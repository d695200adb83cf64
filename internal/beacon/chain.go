// Package beacon implements the ICC random beacon (paper §2.3, §3.3):
// a sequence R_0, R_1, R_2, … where R_0 is a fixed public value and R_k
// is the unique threshold signature on (k, R_{k−1}). Each round's beacon
// value seeds a pseudorandom permutation of the parties that assigns
// ranks; the rank-0 party is the round leader.
//
// Because the threshold is t+1, the t corrupt parties can never compute
// R_k by themselves (unpredictability), while any t+1 parties — hence
// the honest parties alone — always can (liveness).
//
// The paper fixes all of that and leaves one thing open, the signature
// scheme S_beacon. The package is cut the same way: chain is the beacon,
// stated once; a scheme (scheme.go) signs, checks and combines shares and
// nothing else. New, NewBLS and NewSimulated pair the chain with one
// scheme each.
package beacon

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"

	"icc/internal/crypto/hash"
	"icc/internal/types"
)

// ErrPruned reports that a share was requested for a round the beacon
// has already pruned. Once Prune(before) runs, share material below the
// watermark is gone by contract; re-signing it would quietly resurrect
// state the caller asked to discard, so requests fail typed instead.
var ErrPruned = errors.New("beacon: round pruned")

// errGenesis refuses a share or an output for R_0, which nothing signs.
var errGenesis = errors.New("genesis round")

// scheme is S_beacon: a (t+1)-of-n threshold signature scheme with unique
// signatures, seen from one party. S is its decoded share.
type scheme[S any] interface {
	// sign returns this party's share of the signature on msg, in wire form.
	sign(msg []byte) ([]byte, error)
	// decode parses signer's share from its wire form.
	decode(signer types.PartyID, wire []byte) (S, error)
	// verify checks a share against its signer's public material.
	verify(msg []byte, share S) error
	// combine turns threshold verified shares into the signature on msg:
	// digest is H(R_k); value is R_k in wire form if a party holding only
	// the public key can check it (see outputScheme), nil otherwise.
	combine(msg []byte, shares []S) (value []byte, digest hash.Digest, err error)
}

// outputScheme is a scheme whose combined signature a third party can
// check, which is what OutputSource needs.
type outputScheme[S any] interface {
	scheme[S]
	// outputDigest checks the form of an encoded signature and returns its
	// digest, the H(R_k) combine would have returned.
	outputDigest(out []byte) (hash.Digest, error)
	// verifyOutput checks an encoded signature on msg against the global key.
	verifyOutput(msg, out []byte) error
}

// chain tracks beacon values and shares for one party, under any scheme.
// It is safe for concurrent use: the engine event loop and the runtime
// backfill worker (which signs catch-up shares off that loop) share one
// instance.
type chain[S any] struct {
	scheme       scheme[S]
	n, threshold int
	self         types.PartyID

	mu sync.Mutex

	// digests[k] is H(R_k); digests[0] is derived from the genesis seed.
	// Never pruned: each round's message chains to the one before.
	digests map[types.Round]hash.Digest
	// values[k] is R_k in wire form, for schemes that have one.
	values map[types.Round][]byte
	// shares holds received shares per round — verified lazily, because
	// verification needs R_{k−1}, which a lagging party may not yet have —
	// and each share's verdict once it has one.
	shares *shareLedger[S]
	// perms caches round permutations.
	perms map[types.Round][]types.PartyID

	// own caches this party's signed shares so stall re-broadcasts and
	// catch-up batches never repeat the signing.
	own *shareCache
	// prunedBefore is the Prune watermark: own-share requests below it
	// fail with ErrPruned instead of re-signing discarded material.
	prunedBefore types.Round
}

// newChain starts a chain at R_0. The genesis seed must be identical
// across all parties (it is part of the public key material).
func newChain[S any](s scheme[S], n, threshold int, self types.PartyID, genesisSeed []byte) *chain[S] {
	return &chain[S]{
		scheme:    s,
		n:         n,
		threshold: threshold,
		self:      self,
		digests:   map[types.Round]hash.Digest{0: hash.Sum(hash.DomainBeacon, genesisSeed)},
		values:    make(map[types.Round][]byte),
		shares:    newShareLedger[S](),
		perms:     make(map[types.Round][]types.PartyID),
		own:       newShareCache(0),
	}
}

// SetShareCacheSize resizes the own-share cache: 0 selects
// DefaultShareCacheSize, negative disables caching. Call before the
// beacon is shared across goroutines; existing entries are discarded.
func (c *chain[S]) SetShareCacheSize(n int) {
	c.mu.Lock()
	c.own = newShareCache(n)
	c.mu.Unlock()
}

// CachedShares reports the number of own shares currently cached (for
// tests and capacity tuning).
func (c *chain[S]) CachedShares() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.own.len()
}

// message returns the byte string the round-k beacon signs: (k, R_{k−1}).
// It fails for the genesis round and while R_{k−1} is not yet known.
// Caller holds c.mu.
func (c *chain[S]) message(k types.Round) ([]byte, error) {
	if k == 0 {
		return nil, errGenesis
	}
	prev, ok := c.digests[k-1]
	if !ok {
		return nil, fmt.Errorf("R_%d not yet known", k-1)
	}
	e := types.NewEncoder(8 + hash.Size)
	e.U64(uint64(k))
	e.Bytes32(prev)
	return e.Bytes(), nil
}

// ShareForRound produces this party's share of the round-k beacon,
// consulting the own-share cache first and caching fresh signatures. It
// fails if R_{k−1} is not yet known, and with ErrPruned if round k is
// below the prune watermark.
func (c *chain[S]) ShareForRound(k types.Round) (*types.BeaconShare, error) {
	c.mu.Lock()
	if k < c.prunedBefore {
		c.mu.Unlock()
		return nil, fmt.Errorf("beacon: share for round %d: %w", k, ErrPruned)
	}
	if sh, ok := c.own.get(k); ok {
		c.mu.Unlock()
		return sh, nil
	}
	msg, err := c.message(k)
	c.mu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("beacon: share for round %d: %w", k, err)
	}
	// Sign outside the lock: a share is a third of a millisecond under
	// DLEQ and some four milliseconds under BLS, and must not stall
	// concurrent beacon readers (the engine loop).
	wire, err := c.scheme.sign(msg)
	if err != nil {
		return nil, fmt.Errorf("beacon: signing share: %w", err)
	}
	sh := &types.BeaconShare{Round: k, Signer: c.self, Share: wire}
	c.mu.Lock()
	if k >= c.prunedBefore {
		c.own.put(k, sh)
	}
	c.mu.Unlock()
	return sh, nil
}

// CachedShareForRound returns this party's round-k share only if it is
// already cached — it never signs. The engine uses it to keep catch-up
// responses cheap: cache hits travel inline, misses are deferred to the
// async backfill path.
func (c *chain[S]) CachedShareForRound(k types.Round) (*types.BeaconShare, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if k < c.prunedBefore {
		return nil, false
	}
	return c.own.get(k)
}

// AddShare records a received share. Verification is deferred to Reveal
// (R_{k−1} may still be unknown); conspicuously malformed shares, and any
// share of a signer whose earlier share for the round failed verification,
// are rejected immediately. This party's own share, byte-identical to the
// one it signed, is trusted and never verified. The bool reports whether
// the share was newly admitted (false for duplicates).
func (c *chain[S]) AddShare(s *types.BeaconShare) (bool, error) {
	if s.Signer < 0 || int(s.Signer) >= c.n {
		return false, fmt.Errorf("beacon: signer %d out of range", s.Signer)
	}
	if s.Round == 0 {
		return false, fmt.Errorf("beacon: share for round 0: %w", errGenesis)
	}
	decoded, err := c.scheme.decode(s.Signer, s.Share)
	if err != nil {
		return false, fmt.Errorf("beacon: malformed share: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shares.add(s.Round, s.Signer, decoded, c.own.holds(s))
}

// ShareCount returns the number of shares held for a round, verified or
// not; shares that failed verification are not held.
func (c *chain[S]) ShareCount(k types.Round) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.shares.count(k)
}

// Reveal attempts to compute R_k from the shares held. It returns the
// digest H(R_k) and true on success. Shares not yet verified are checked
// against the public material, only as many as the threshold still needs;
// one that fails is evicted for good (see shareLedger), so a failed Reveal
// is not repeated at full price on the next call.
func (c *chain[S]) Reveal(k types.Round) (hash.Digest, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if d, ok := c.digests[k]; ok {
		return d, true
	}
	msg, err := c.message(k)
	if err != nil {
		return hash.Digest{}, false
	}
	valid := c.shares.collect(k, c.n, c.threshold, func(s S) error {
		return c.scheme.verify(msg, s)
	})
	if valid == nil {
		return hash.Digest{}, false
	}
	value, d, err := c.scheme.combine(msg, valid)
	if err != nil {
		return hash.Digest{}, false
	}
	if value != nil {
		c.values[k] = value
	}
	c.digests[k] = d
	return d, true
}

// Have reports whether R_k is known.
func (c *chain[S]) Have(k types.Round) bool {
	_, ok := c.Digest(k)
	return ok
}

// Digest returns H(R_k) if known.
func (c *chain[S]) Digest(k types.Round) (hash.Digest, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	d, ok := c.digests[k]
	return d, ok
}

// Permutation returns the round-k ranking permutation:
// perm[rank] = party. The permutation is a deterministic Fisher–Yates
// shuffle seeded by H(R_k), so every party that knows R_k derives the
// same ranking (paper §3.3).
func (c *chain[S]) Permutation(k types.Round) ([]types.PartyID, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if p, ok := c.perms[k]; ok {
		return p, true
	}
	d, ok := c.digests[k]
	if !ok {
		return nil, false
	}
	p := PermutationFromDigest(d, c.n)
	c.perms[k] = p
	return p, true
}

// RankOf returns party p's rank in round k.
func (c *chain[S]) RankOf(k types.Round, p types.PartyID) (types.Rank, bool) {
	perm, _ := c.Permutation(k)
	for r, q := range perm {
		if q == p {
			return types.Rank(r), true
		}
	}
	return 0, false
}

// Leader returns the rank-0 party of round k.
func (c *chain[S]) Leader(k types.Round) (types.PartyID, bool) {
	perm, ok := c.Permutation(k)
	if !ok {
		return 0, false
	}
	return perm[0], true
}

// Prune discards share, permutation, value and own-share state for rounds
// before `before`, and raises the watermark below which own-share
// requests fail with ErrPruned. Beacon digests are kept (they chain).
func (c *chain[S]) Prune(before types.Round) {
	c.mu.Lock()
	defer c.mu.Unlock()
	pruneBefore(c.shares.rounds, before)
	pruneBefore(c.perms, before)
	pruneBefore(c.values, before)
	c.own.pruneBefore(before)
	if before > c.prunedBefore {
		c.prunedBefore = before
	}
}

// pruneBefore drops every round below the watermark from a per-round map.
func pruneBefore[V any](m map[types.Round]V, before types.Round) {
	for k := range m {
		if k < before {
			delete(m, k)
		}
	}
}

// InstallDigest seeds the digest chain with an externally verified
// H(R_k), typically from a certified checkpoint. The digest chains —
// the round-(k+1) beacon signs (k+1, H(R_k)) — so installing round k's
// digest is exactly what a restored party needs to verify and produce
// shares from round k+1 onward. An already-known digest is kept (the
// chain is unique, so they cannot disagree among honest inputs).
func (c *chain[S]) InstallDigest(k types.Round, d hash.Digest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.digests[k]; !ok {
		c.digests[k] = d
	}
}

// outputChain is a chain whose scheme makes R_k checkable by a party that
// holds no share of it: the OutputSource half of the beacon.
type outputChain[S any] struct {
	*chain[S]
	out outputScheme[S]
}

func newOutputChain[S any](s outputScheme[S], n, threshold int, self types.PartyID, genesisSeed []byte) outputChain[S] {
	return outputChain[S]{chain: newChain[S](s, n, threshold, self, genesisSeed), out: s}
}

// EncodeOutput returns R_k in wire form once this party has combined it or
// been handed it. Every honest party holds identical bytes, so outputs
// deduplicate like any other artifact.
func (c outputChain[S]) EncodeOutput(k types.Round) ([]byte, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.values[k]
	return v, ok
}

// VerifyOutput checks an encoded R_k against the global key — the
// third-party-verifiable property that justifies relaying outputs instead
// of shares. It fails while R_{k−1} is not yet known.
func (c outputChain[S]) VerifyOutput(k types.Round, out []byte) error {
	c.mu.Lock()
	msg, err := c.message(k)
	c.mu.Unlock()
	if err == nil {
		err = c.out.verifyOutput(msg, out)
	}
	if err != nil {
		return fmt.Errorf("beacon: output for round %d: %w", k, err)
	}
	return nil
}

// InstallOutput records R_k, making round k known. It checks form only —
// callers verify first (or consciously skip verification under a
// trusted-input policy). A round already known or already pruned is left
// alone.
func (c outputChain[S]) InstallOutput(k types.Round, out []byte) error {
	if k == 0 {
		return fmt.Errorf("beacon: output for round 0: %w", errGenesis)
	}
	d, err := c.out.outputDigest(out)
	if err != nil {
		return fmt.Errorf("beacon: malformed output: %w", err)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, known := c.digests[k]; known || k < c.prunedBefore {
		return nil
	}
	c.values[k] = bytes.Clone(out)
	c.digests[k] = d
	return nil
}

// PermutationFromDigest derives a permutation of [0, n) from a digest via
// Fisher–Yates driven by a hash-based deterministic stream. Exported for
// tests and for adversary tooling that needs to predict rankings.
func PermutationFromDigest(d hash.Digest, n int) []types.PartyID {
	perm := make([]types.PartyID, n)
	for i := range perm {
		perm[i] = types.PartyID(i)
	}
	stream := &hashStream{seed: d}
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

func (s *hashStream) next8() uint64 {
	if len(s.buf) < 8 {
		d := hash.Sum(hash.DomainRanking, s.seed[:], binary.BigEndian.AppendUint64(nil, s.counter))
		s.counter++
		s.buf = append(s.buf, d[:]...)
	}
	v := binary.BigEndian.Uint64(s.buf)
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
