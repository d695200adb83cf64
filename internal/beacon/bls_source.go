package beacon

import (
	"fmt"

	"icc/internal/crypto/bls"
	"icc/internal/crypto/hash"
	"icc/internal/types"
)

// BLS is a beacon Source backed by the from-scratch BLS12-381 threshold
// signatures of internal/crypto/bls — the exact construction paper §2.3
// names for S_beacon (threshold BLS via Shamir sharing, unique
// signatures, shares and combined values verified with pairings).
//
// It is interchangeable with the default DLEQ-based Source (*Beacon);
// the pairing arithmetic is big.Int-based and therefore slow (hundreds
// of milliseconds per share verification), so this backend suits
// correctness demonstrations and small clusters, not large sweeps.
type BLS struct {
	pub  *bls.ThresholdPublic
	sk   bls.ThresholdShareKey
	self types.PartyID
	n    int

	values       map[types.Round]*bls.Signature
	digests      map[types.Round]hash.Digest
	shares       *shareLedger[*bls.SigShare]
	perms        map[types.Round][]types.PartyID
	own          *shareCache
	prunedBefore types.Round
	genesis      hash.Digest
}

// NewBLS creates a BLS-backed beacon for one party.
func NewBLS(pub *bls.ThresholdPublic, sk bls.ThresholdShareKey, self types.PartyID, genesisSeed []byte) *BLS {
	b := &BLS{
		pub:     pub,
		sk:      sk,
		self:    self,
		n:       pub.N,
		values:  make(map[types.Round]*bls.Signature),
		digests: make(map[types.Round]hash.Digest),
		shares:  newShareLedger[*bls.SigShare](),
		perms:   make(map[types.Round][]types.PartyID),
		own:     newShareCache(0),
		genesis: hash.Sum(hash.DomainBeacon, genesisSeed),
	}
	b.digests[0] = b.genesis
	return b
}

func (b *BLS) message(k types.Round) ([]byte, bool) {
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

// ShareForRound implements Source. Pairing arithmetic here is hundreds
// of milliseconds per call, so hits on the own-share cache matter even
// more than for the DLEQ backend.
func (b *BLS) ShareForRound(k types.Round) (*types.BeaconShare, error) {
	if k < b.prunedBefore {
		return nil, fmt.Errorf("beacon: share for round %d: %w", k, ErrPruned)
	}
	if sh, ok := b.own.get(k); ok {
		return sh, nil
	}
	msg, ok := b.message(k)
	if !ok {
		return nil, fmt.Errorf("beacon: R_%d not yet known, cannot sign R_%d", k-1, k)
	}
	share := b.sk.SignShare(msg)
	sh := &types.BeaconShare{Round: k, Signer: b.self, Share: share.Sig.Point().Encode()}
	b.own.put(k, sh)
	return sh, nil
}

// CachedShareForRound implements Source.
func (b *BLS) CachedShareForRound(k types.Round) (*types.BeaconShare, bool) {
	if k < b.prunedBefore {
		return nil, false
	}
	return b.own.get(k)
}

// AddShare implements Source; shares are structurally validated here and
// cryptographically verified at Reveal (which may happen later, once
// R_{k−1} is known), each at most once — see shareLedger.
func (b *BLS) AddShare(s *types.BeaconShare) (bool, error) {
	if s.Signer < 0 || int(s.Signer) >= b.n {
		return false, fmt.Errorf("beacon: signer %d out of range", s.Signer)
	}
	if s.Round == 0 {
		return false, fmt.Errorf("beacon: share for genesis round")
	}
	pt, err := bls.DecodeG1(s.Share)
	if err != nil {
		return false, fmt.Errorf("beacon: malformed BLS share: %w", err)
	}
	share := &bls.SigShare{Index: int(s.Signer), Sig: bls.SignatureFromPoint(pt)}
	return b.shares.add(s.Round, s.Signer, share, b.own.holds(s))
}

// ShareCount implements Source.
func (b *BLS) ShareCount(k types.Round) int { return b.shares.count(k) }

// Have implements Source.
func (b *BLS) Have(k types.Round) bool {
	_, ok := b.digests[k]
	return ok
}

// Reveal implements Source: combine (and pairing-verify) any t+1 shares.
func (b *BLS) Reveal(k types.Round) (hash.Digest, bool) {
	if d, ok := b.digests[k]; ok {
		return d, true
	}
	msg, ok := b.message(k)
	if !ok {
		return hash.Digest{}, false
	}
	valid := b.shares.collect(k, b.n, b.pub.Threshold, func(s *bls.SigShare) error {
		return b.pub.VerifyShare(msg, s)
	})
	if valid == nil {
		return hash.Digest{}, false
	}
	sig, err := b.pub.CombineVerified(valid)
	if err != nil {
		return hash.Digest{}, false
	}
	// Defense in depth: the combined value must verify under the global
	// key (the third-party-verifiable property BLS adds over the DLEQ
	// backend).
	if err := b.pub.VerifyCombined(msg, sig); err != nil {
		return hash.Digest{}, false
	}
	b.values[k] = sig
	d := hash.Sum(hash.DomainBeacon, sig.Point().Encode())
	b.digests[k] = d
	return d, true
}

// Digest implements Source.
func (b *BLS) Digest(k types.Round) (hash.Digest, bool) {
	d, ok := b.digests[k]
	return d, ok
}

// Permutation implements Source.
func (b *BLS) Permutation(k types.Round) ([]types.PartyID, bool) {
	if p, ok := b.perms[k]; ok {
		return p, true
	}
	d, ok := b.digests[k]
	if !ok {
		return nil, false
	}
	p := PermutationFromDigest(d, b.n)
	b.perms[k] = p
	return p, true
}

// RankOf implements Source.
func (b *BLS) RankOf(k types.Round, p types.PartyID) (types.Rank, bool) {
	perm, ok := b.Permutation(k)
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

// Leader implements Source.
func (b *BLS) Leader(k types.Round) (types.PartyID, bool) {
	perm, ok := b.Permutation(k)
	if !ok {
		return 0, false
	}
	return perm[0], true
}

// Prune implements Source.
func (b *BLS) Prune(before types.Round) {
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

// InstallDigest implements Source.
func (b *BLS) InstallDigest(k types.Round, d hash.Digest) {
	if _, ok := b.digests[k]; !ok {
		b.digests[k] = d
	}
}

// EncodeOutput implements OutputSource: the combined unique signature
// σ_k as an uncompressed G1 point. Every honest party recovers the
// identical point, so outputs deduplicate like any other artifact.
func (b *BLS) EncodeOutput(k types.Round) ([]byte, bool) {
	sig, ok := b.values[k]
	if !ok {
		return nil, false
	}
	return sig.Point().Encode(), true
}

// VerifyOutput implements OutputSource: one pairing check of σ_k
// against the global key — the third-party-verifiable property that
// justifies relaying outputs instead of shares for this backend.
func (b *BLS) VerifyOutput(k types.Round, out []byte) error {
	msg, ok := b.message(k)
	if !ok {
		return fmt.Errorf("beacon: R_%d not yet known, cannot verify R_%d", k-1, k)
	}
	pt, err := bls.DecodeG1(out)
	if err != nil {
		return fmt.Errorf("beacon: malformed output: %w", err)
	}
	return b.pub.VerifyCombined(msg, bls.SignatureFromPoint(pt))
}

// InstallOutput implements OutputSource.
func (b *BLS) InstallOutput(k types.Round, out []byte) error {
	if k == 0 {
		return fmt.Errorf("beacon: output for genesis round")
	}
	pt, err := bls.DecodeG1(out)
	if err != nil {
		return fmt.Errorf("beacon: malformed output: %w", err)
	}
	if k < b.prunedBefore {
		return nil
	}
	if _, ok := b.digests[k]; ok {
		return nil
	}
	sig := bls.SignatureFromPoint(pt)
	b.values[k] = sig
	b.digests[k] = hash.Sum(hash.DomainBeacon, sig.Point().Encode())
	return nil
}

var (
	_ Source       = (*BLS)(nil)
	_ OutputSource = (*BLS)(nil)
)
