package beacon

import (
	"bytes"
	"crypto/rand"
	"fmt"

	"icc/internal/crypto/bls"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/thresig"
	"icc/internal/types"
)

// Beacon is the default beacon: the chain under the DLEQ threshold scheme
// of internal/crypto/thresig (secp256k1). It is a Source and deliberately
// not an OutputSource — see there.
type Beacon struct {
	*chain[*thresig.SigShare]
}

// New creates a DLEQ-backed beacon for one party.
func New(pub *thresig.PublicInfo, sk thresig.SecretShare, self types.PartyID, genesisSeed []byte) *Beacon {
	return &Beacon{newChain[*thresig.SigShare](dleqScheme{pub, sk}, pub.N, pub.Threshold, self, genesisSeed)}
}

type dleqScheme struct {
	pub *thresig.PublicInfo
	sk  thresig.SecretShare
}

func (s dleqScheme) sign(msg []byte) ([]byte, error) {
	share, err := s.pub.Sign(rand.Reader, s.sk, msg)
	if err != nil {
		return nil, err
	}
	return share.Encode(), nil
}

func (s dleqScheme) decode(signer types.PartyID, wire []byte) (*thresig.SigShare, error) {
	return thresig.DecodeSigShare(int(signer), wire)
}

func (s dleqScheme) verify(msg []byte, share *thresig.SigShare) error {
	return s.pub.VerifyShare(msg, share)
}

// combine returns no value: the combined point is checked share by share
// against per-party DLEQ proofs, and a party holding only the point has
// nothing to check it against.
func (s dleqScheme) combine(_ []byte, shares []*thresig.SigShare) ([]byte, hash.Digest, error) {
	sig, err := s.pub.CombineVerified(shares)
	if err != nil {
		return nil, hash.Digest{}, err
	}
	return nil, sig.Digest(), nil
}

// BLS is the chain under the from-scratch BLS12-381 threshold signatures
// of internal/crypto/bls — the exact construction paper §2.3 names for
// S_beacon (threshold BLS via Shamir sharing, unique signatures, shares
// and combined values verified with pairings).
//
// It is interchangeable with *Beacon; the pairing arithmetic is
// big.Int-based and therefore slow (hundreds of milliseconds per share
// verification), so it suits correctness demonstrations and small
// clusters, not large sweeps.
type BLS struct {
	outputChain[*bls.SigShare]
}

// NewBLS creates a BLS-backed beacon for one party.
func NewBLS(pub *bls.ThresholdPublic, sk bls.ThresholdShareKey, self types.PartyID, genesisSeed []byte) *BLS {
	return &BLS{newOutputChain[*bls.SigShare](blsScheme{pub, sk}, pub.N, pub.Threshold, self, genesisSeed)}
}

type blsScheme struct {
	pub *bls.ThresholdPublic
	sk  bls.ThresholdShareKey
}

func (s blsScheme) sign(msg []byte) ([]byte, error) {
	return s.sk.SignShare(msg).Sig.Point().Encode(), nil
}

func (s blsScheme) decode(signer types.PartyID, wire []byte) (*bls.SigShare, error) {
	sig, err := decodeBLSSignature(wire)
	if err != nil {
		return nil, err
	}
	return &bls.SigShare{Index: int(signer), Sig: sig}, nil
}

func (s blsScheme) verify(msg []byte, share *bls.SigShare) error {
	return s.pub.VerifyShare(msg, share)
}

// combine's value is σ_k as an uncompressed G1 point.
func (s blsScheme) combine(msg []byte, shares []*bls.SigShare) ([]byte, hash.Digest, error) {
	sig, err := s.pub.CombineVerified(shares)
	if err != nil {
		return nil, hash.Digest{}, err
	}
	// Defense in depth: the combined value must verify under the global
	// key, as verifyOutput will ask of it at every other party.
	if err := s.pub.VerifyCombined(msg, sig); err != nil {
		return nil, hash.Digest{}, err
	}
	value := sig.Point().Encode()
	return value, hash.Sum(hash.DomainBeacon, value), nil
}

// outputDigest hashes the bytes as given: DecodeG1 accepts only the
// encoding Encode produces.
func (s blsScheme) outputDigest(out []byte) (hash.Digest, error) {
	if _, err := decodeBLSSignature(out); err != nil {
		return hash.Digest{}, err
	}
	return hash.Sum(hash.DomainBeacon, out), nil
}

// verifyOutput is one pairing check of σ_k against the global key.
func (s blsScheme) verifyOutput(msg, out []byte) error {
	sig, err := decodeBLSSignature(out)
	if err != nil {
		return err
	}
	return s.pub.VerifyCombined(msg, sig)
}

func decodeBLSSignature(wire []byte) (*bls.Signature, error) {
	pt, err := bls.DecodeG1(wire)
	if err != nil {
		return nil, err
	}
	return bls.SignatureFromPoint(pt), nil
}

// Simulated is the chain under a scheme with no cryptography in it:
// R_k = H(k, R_{k−1}), and a share is a filler of the length of a real
// threshold share. It keeps the protocol's observable behaviour — parties
// still wait for t+1 distinct shares before revealing a round's beacon,
// and beacon messages have production sizes — but skips the elliptic-curve
// work, so that large simulation sweeps keep the exact message pattern at
// a fraction of the CPU cost (see DESIGN.md §5).
//
// It is NOT cryptographically secure (any party can predict every
// future beacon value); it exists purely to scale honest-majority
// simulation experiments.
type Simulated struct {
	outputChain[struct{}]
}

// NewSimulated creates a simulated beacon for an n-party cluster.
func NewSimulated(n int, self types.PartyID, genesisSeed []byte) *Simulated {
	return &Simulated{newOutputChain[struct{}](simScheme{}, n, types.BeaconQuorum(n), self, genesisSeed)}
}

type simScheme struct{}

func (simScheme) sign([]byte) ([]byte, error) {
	return make([]byte, thresig.SigShareLen), nil
}

// decode is all the checking a filler gets: a share of the right length
// is trusted on admission, because there is nothing in it to forge — it
// counts towards the t+1 a Reveal waits for and carries no value.
func (simScheme) decode(_ types.PartyID, wire []byte) (struct{}, error) {
	if len(wire) != thresig.SigShareLen {
		return struct{}{}, fmt.Errorf("%d bytes, want %d", len(wire), thresig.SigShareLen)
	}
	return struct{}{}, nil
}

func (simScheme) verify([]byte, struct{}) error { return nil }

// combine hashes the message (k, H(R_{k−1})), the round first: anyone can
// recompute it, so the value is its own digest.
func (simScheme) combine(msg []byte, _ []struct{}) ([]byte, hash.Digest, error) {
	round := hash.Sum(hash.DomainBeacon, msg[:8])
	d := hash.Sum(hash.DomainBeacon, round[:], msg[8:])
	return d[:], d, nil
}

func (simScheme) outputDigest(out []byte) (hash.Digest, error) {
	if len(out) != hash.Size {
		return hash.Digest{}, fmt.Errorf("%d bytes, want %d", len(out), hash.Size)
	}
	return hash.Digest(out), nil
}

func (s simScheme) verifyOutput(msg, out []byte) error {
	if want, _, _ := s.combine(msg, nil); !bytes.Equal(out, want) {
		return fmt.Errorf("not H(k, R_{k-1})")
	}
	return nil
}
