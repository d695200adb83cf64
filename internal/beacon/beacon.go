// Package beacon implements the ICC random beacon (paper §2.3, §3.3):
// a sequence R_0, R_1, R_2, … where R_0 is a fixed public value and R_k
// is the unique threshold signature on (k, R_{k−1}). Each round's beacon
// value seeds a pseudorandom permutation of the parties that assigns
// ranks; the rank-0 party is the round leader.
//
// Because the threshold is t+1, the t corrupt parties can never compute
// R_k by themselves (unpredictability), while any t+1 parties — hence
// the honest parties alone — always can (liveness).
package beacon

import (
	"crypto/rand"
	"errors"
	"fmt"
	"sync"

	"icc/internal/crypto/hash"
	"icc/internal/crypto/thresig"
	"icc/internal/types"
)

// ErrPruned reports that a share was requested for a round the beacon
// has already pruned. Once Prune(before) runs, share material below the
// watermark is gone by contract; re-signing it would quietly resurrect
// state the caller asked to discard, so requests fail typed instead.
var ErrPruned = errors.New("beacon: round pruned")

// Beacon tracks beacon values and shares for one party. It is safe for
// concurrent use: the engine event loop and the runtime backfill worker
// (which signs catch-up shares off that loop) share one instance.
type Beacon struct {
	pub  *thresig.PublicInfo
	sk   thresig.SecretShare
	self types.PartyID

	mu sync.Mutex

	// values[k] is R_k's signature; the genesis entry (k=0) is a fixed
	// pseudo-signature derived from the genesis seed.
	values map[types.Round]*thresig.Signature
	// digests[k] caches H(R_k).
	digests map[types.Round]hash.Digest
	// shares holds received shares per round — verified lazily, because
	// verification needs R_{k−1}, which a lagging party may not yet have —
	// and each share's verdict once it has one.
	shares *shareLedger[*thresig.SigShare]
	// perms caches round permutations.
	perms map[types.Round][]types.PartyID

	// own caches this party's signed shares so stall re-broadcasts and
	// catch-up batches never repeat the EC scalar multiplication.
	own *shareCache
	// prunedBefore is the Prune watermark: own-share requests below it
	// fail with ErrPruned instead of re-signing discarded material.
	prunedBefore types.Round

	genesis hash.Digest
}

// New creates a beacon tracker. The genesis seed must be identical across
// all parties (it is part of the public key material).
func New(pub *thresig.PublicInfo, sk thresig.SecretShare, self types.PartyID, genesisSeed []byte) *Beacon {
	b := &Beacon{
		pub:     pub,
		sk:      sk,
		self:    self,
		values:  make(map[types.Round]*thresig.Signature),
		digests: make(map[types.Round]hash.Digest),
		shares:  newShareLedger[*thresig.SigShare](),
		perms:   make(map[types.Round][]types.PartyID),
		own:     newShareCache(0),
		genesis: hash.Sum(hash.DomainBeacon, genesisSeed),
	}
	b.digests[0] = b.genesis
	return b
}

// SetShareCacheSize resizes the own-share cache: 0 selects
// DefaultShareCacheSize, negative disables caching. Call before the
// beacon is shared across goroutines; existing entries are discarded.
func (b *Beacon) SetShareCacheSize(n int) {
	b.mu.Lock()
	b.own = newShareCache(n)
	b.mu.Unlock()
}

// message returns the byte string the round-k beacon signs: (k, R_{k−1}).
// Returns false if R_{k−1} is not yet known. Caller holds b.mu.
func (b *Beacon) message(k types.Round) ([]byte, bool) {
	if k == 0 {
		return nil, false
	}
	prev, ok := b.digests[k-1]
	if !ok {
		return nil, false
	}
	e := types.NewEncoder(8 + hash.Size)
	e.U64(uint64(k))
	e.Bytes32(prev)
	return e.Bytes(), true
}

// ShareForRound produces this party's share of the round-k beacon,
// consulting the own-share cache first and caching fresh signatures. It
// fails if R_{k−1} is not yet known, and with ErrPruned if round k is
// below the prune watermark.
func (b *Beacon) ShareForRound(k types.Round) (*types.BeaconShare, error) {
	b.mu.Lock()
	if k < b.prunedBefore {
		b.mu.Unlock()
		return nil, fmt.Errorf("beacon: share for round %d: %w", k, ErrPruned)
	}
	if sh, ok := b.own.get(k); ok {
		b.mu.Unlock()
		return sh, nil
	}
	msg, ok := b.message(k)
	b.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("beacon: R_%d not yet known, cannot sign R_%d", k-1, k)
	}
	// Sign outside the lock: the scalar multiplication takes milliseconds
	// and must not stall concurrent beacon readers (the engine loop).
	share, err := b.pub.Sign(rand.Reader, b.sk, msg)
	if err != nil {
		return nil, fmt.Errorf("beacon: signing share: %w", err)
	}
	sh := &types.BeaconShare{Round: k, Signer: b.self, Share: share.Encode()}
	b.mu.Lock()
	if k >= b.prunedBefore {
		b.own.put(k, sh)
	}
	b.mu.Unlock()
	return sh, nil
}

// CachedShareForRound returns this party's round-k share only if it is
// already cached — it never signs. The engine uses it to keep catch-up
// responses cheap: cache hits travel inline, misses are deferred to the
// async backfill path.
func (b *Beacon) CachedShareForRound(k types.Round) (*types.BeaconShare, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if k < b.prunedBefore {
		return nil, false
	}
	return b.own.get(k)
}

// AddShare records a received share. Verification is deferred to Reveal
// (R_{k−1} may still be unknown); conspicuously malformed shares, and any
// share of a signer whose earlier share for the round failed verification,
// are rejected immediately. This party's own share, byte-identical to the
// one it signed, is trusted and never verified. The bool reports whether
// the share was newly admitted (false for duplicates).
func (b *Beacon) AddShare(s *types.BeaconShare) (bool, error) {
	if s.Signer < 0 || int(s.Signer) >= b.pub.N {
		return false, fmt.Errorf("beacon: signer %d out of range", s.Signer)
	}
	if s.Round == 0 {
		return false, fmt.Errorf("beacon: share for genesis round")
	}
	decoded, err := thresig.DecodeSigShare(int(s.Signer), s.Share)
	if err != nil {
		return false, fmt.Errorf("beacon: malformed share: %w", err)
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shares.add(s.Round, s.Signer, decoded, b.own.holds(s))
}

// ShareCount returns the number of shares held for a round, verified or
// not; shares that failed verification are not held.
func (b *Beacon) ShareCount(k types.Round) int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.shares.count(k)
}

// Have reports whether R_k is known.
func (b *Beacon) Have(k types.Round) bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	_, ok := b.digests[k]
	return ok
}

// Reveal attempts to compute R_k from the shares held. It returns the
// digest H(R_k) and true on success. Shares not yet verified are checked
// against the public material, only as many as the threshold still needs;
// one that fails is evicted for good (see shareLedger), so a failed Reveal
// is not repeated at full price on the next call.
func (b *Beacon) Reveal(k types.Round) (hash.Digest, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if d, ok := b.digests[k]; ok {
		return d, true
	}
	msg, ok := b.message(k)
	if !ok {
		return hash.Digest{}, false
	}
	valid := b.shares.collect(k, b.pub.N, b.pub.Threshold, func(s *thresig.SigShare) error {
		return b.pub.VerifyShare(msg, s)
	})
	if valid == nil {
		return hash.Digest{}, false
	}
	sigv, err := b.pub.CombineVerified(valid)
	if err != nil {
		return hash.Digest{}, false
	}
	b.values[k] = sigv
	d := sigv.Digest()
	b.digests[k] = d
	return d, true
}

// Digest returns H(R_k) if known.
func (b *Beacon) Digest(k types.Round) (hash.Digest, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	d, ok := b.digests[k]
	return d, ok
}

// Permutation returns the round-k ranking permutation:
// perm[rank] = party. The permutation is a deterministic Fisher–Yates
// shuffle seeded by H(R_k), so every party that knows R_k derives the
// same ranking (paper §3.3).
func (b *Beacon) Permutation(k types.Round) ([]types.PartyID, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.permutationLocked(k)
}

func (b *Beacon) permutationLocked(k types.Round) ([]types.PartyID, bool) {
	if p, ok := b.perms[k]; ok {
		return p, true
	}
	d, ok := b.digests[k]
	if !ok {
		return nil, false
	}
	p := PermutationFromDigest(d, b.pub.N)
	b.perms[k] = p
	return p, true
}

// RankOf returns party p's rank in round k.
func (b *Beacon) RankOf(k types.Round, p types.PartyID) (types.Rank, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	perm, ok := b.permutationLocked(k)
	if !ok {
		return 0, false
	}
	for r, q := range perm {
		if q == p {
			return types.Rank(r), true
		}
	}
	return 0, false
}

// Leader returns the rank-0 party of round k.
func (b *Beacon) Leader(k types.Round) (types.PartyID, bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	perm, ok := b.permutationLocked(k)
	if !ok {
		return 0, false
	}
	return perm[0], true
}

// Prune discards share, permutation, and own-share state for rounds
// before `before`, and raises the watermark below which own-share
// requests fail with ErrPruned. Beacon digests are kept (they chain).
func (b *Beacon) Prune(before types.Round) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.shares.pruneBefore(before)
	for k := range b.perms {
		if k < before {
			delete(b.perms, k)
		}
	}
	for k := range b.values {
		if k < before {
			delete(b.values, k)
		}
	}
	b.own.pruneBefore(before)
	if before > b.prunedBefore {
		b.prunedBefore = before
	}
}

// InstallDigest seeds the digest chain with an externally verified
// H(R_k), typically from a certified checkpoint. The digest chains —
// the round-(k+1) beacon signs (k+1, H(R_k)) — so installing round k's
// digest is exactly what a restored party needs to verify and produce
// shares from round k+1 onward. An already-known digest is kept (the
// chain is unique, so they cannot disagree among honest inputs).
func (b *Beacon) InstallDigest(k types.Round, d hash.Digest) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if _, ok := b.digests[k]; !ok {
		b.digests[k] = d
	}
}

// CachedShares reports the number of own shares currently cached (for
// tests and capacity tuning).
func (b *Beacon) CachedShares() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.own.len()
}

// PermutationFromDigest derives a permutation of [0, n) from a digest via
// Fisher–Yates driven by a hash-based deterministic stream. Exported for
// tests and for adversary tooling that needs to predict rankings.
func PermutationFromDigest(d hash.Digest, n int) []types.PartyID {
	perm := make([]types.PartyID, n)
	for i := range perm {
		perm[i] = types.PartyID(i)
	}
	stream := newHashStream(d)
	for i := n - 1; i > 0; i-- {
		j := int(stream.uintn(uint64(i + 1)))
		perm[i], perm[j] = perm[j], perm[i]
	}
	return perm
}

// hashStream is a deterministic PRNG: SHA-256(digest, counter) blocks.
// Unlike math/rand it is guaranteed stable across platforms and Go
// versions, so rankings derived from a beacon value never drift.
type hashStream struct {
	seed    hash.Digest
	counter uint64
	buf     []byte
}

func newHashStream(seed hash.Digest) *hashStream {
	return &hashStream{seed: seed}
}

func (s *hashStream) next8() uint64 {
	if len(s.buf) < 8 {
		d := hash.Sum(hash.DomainRanking, s.seed[:], []byte{
			byte(s.counter >> 56), byte(s.counter >> 48), byte(s.counter >> 40), byte(s.counter >> 32),
			byte(s.counter >> 24), byte(s.counter >> 16), byte(s.counter >> 8), byte(s.counter),
		})
		s.counter++
		s.buf = append(s.buf, d[:]...)
	}
	v := uint64(0)
	for i := 0; i < 8; i++ {
		v = v<<8 | uint64(s.buf[i])
	}
	s.buf = s.buf[8:]
	return v
}

// uintn returns a uniform value in [0, n) by rejection sampling.
func (s *hashStream) uintn(n uint64) uint64 {
	if n == 0 {
		return 0
	}
	limit := (^uint64(0) / n) * n
	for {
		v := s.next8()
		if v < limit {
			return v % n
		}
	}
}
