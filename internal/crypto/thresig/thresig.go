// Package thresig implements the unique (t, t+1, n)-threshold signature
// scheme S_beacon required by the ICC random beacon (paper §2.3, approach
// (iii)). A signature on message m is the group element sk·H2C(m), where
// sk is Shamir-shared among the n parties: signature shares are
// sk_i·H2C(m) with a DLEQ proof of correctness, and any threshold of
// valid shares combine — via Lagrange interpolation in the exponent — to
// the unique signature point.
//
// Uniqueness is the property the beacon needs: whichever subset of
// parties contributes shares, the combined signature (and hence the
// beacon value derived by hashing it) is identical, and it is
// unpredictable until at least one honest party has released a share.
package thresig

import (
	"errors"
	"fmt"
	"io"

	"icc/internal/crypto"
	"icc/internal/crypto/dleq"
	"icc/internal/crypto/ec"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/shamir"
)

// PublicInfo is the public key material for one scheme instance: the
// global public key and the per-party share public keys, as provisioned
// by the trusted dealer (paper §3.1).
type PublicInfo struct {
	N         int
	Threshold int
	Global    *ec.Point   // sk·G
	Shares    []*ec.Point // sk_i·G, indexed by party
}

// SecretShare is one party's signing key share.
type SecretShare struct {
	Index int
	Key   *ec.Scalar
}

// SigShare is a signature share together with its proof of correctness.
type SigShare struct {
	Index int
	Point *ec.Point // sk_i · H2C(m)
	Proof *dleq.Proof
}

// Signature is a combined (unique) threshold signature.
type Signature struct {
	Point *ec.Point // sk · H2C(m)
}

// Errors returned by the package. ErrBadShare wraps the repository-wide
// crypto.ErrBadShare sentinel for cross-scheme classification.
var (
	ErrBadIndex        = errors.New("thresig: share index out of range")
	ErrBadShare        = fmt.Errorf("thresig: %w", crypto.ErrBadShare)
	ErrNotEnoughShares = errors.New("thresig: not enough valid shares")
)

// Deal generates a fresh scheme instance with the given threshold.
// For the ICC beacon, threshold = t+1 so that t corrupt parties can never
// compute the next beacon value alone, while any t+1 parties can.
func Deal(rng io.Reader, threshold, n int) (*PublicInfo, []SecretShare, error) {
	sk, err := ec.RandomScalar(rng)
	if err != nil {
		return nil, nil, fmt.Errorf("thresig: sampling master key: %w", err)
	}
	shares, err := shamir.Deal(rng, sk, threshold, n)
	if err != nil {
		return nil, nil, fmt.Errorf("thresig: dealing: %w", err)
	}
	pub := &PublicInfo{
		N:         n,
		Threshold: threshold,
		Global:    ec.BaseMul(sk),
		Shares:    shamir.PublicShares(shares),
	}
	secrets := make([]SecretShare, n)
	for i, s := range shares {
		secrets[i] = SecretShare{Index: s.Index, Key: s.Value}
	}
	return pub, secrets, nil
}

// messagePoint maps a message into the group.
func messagePoint(msg []byte) *ec.Point {
	d := hash.Sum(hash.DomainBeacon, msg)
	return ec.HashToPoint(d[:])
}

// Sign produces the signature share of sk's party on msg. The proof is
// bound to the party's dealt public share p.Shares[sk.Index], which saves
// recomputing sk.Key·G on every call.
func (p *PublicInfo) Sign(rng io.Reader, sk SecretShare, msg []byte) (*SigShare, error) {
	if sk.Index < 0 || sk.Index >= p.N {
		return nil, ErrBadIndex
	}
	h := messagePoint(msg)
	pt := h.Mul(sk.Key)
	proof, err := dleq.Prove(rng, sk.Key, h, p.Shares[sk.Index], pt, msg)
	if err != nil {
		return nil, fmt.Errorf("thresig: proving share: %w", err)
	}
	return &SigShare{Index: sk.Index, Point: pt, Proof: proof}, nil
}

// VerifyShare checks that a signature share was correctly computed with
// the registered key share of its claimed party.
func (p *PublicInfo) VerifyShare(msg []byte, s *SigShare) error {
	if s == nil || s.Index < 0 || s.Index >= p.N {
		return ErrBadIndex
	}
	if s.Point == nil || !s.Point.IsOnCurve() {
		return fmt.Errorf("%w: point off curve", ErrBadShare)
	}
	h := messagePoint(msg)
	if err := dleq.Verify(s.Proof, h, p.Shares[s.Index], s.Point, msg); err != nil {
		return fmt.Errorf("%w: %v", ErrBadShare, err)
	}
	return nil
}

// Combine verifies the given shares and combines any threshold of valid
// ones into the unique signature. Invalid or duplicate shares are skipped
// rather than failing the combination, matching the protocol's tolerance
// of corrupt contributions.
func (p *PublicInfo) Combine(msg []byte, shares []*SigShare) (*Signature, error) {
	valid := make([]*SigShare, 0, p.Threshold)
	seen := make(map[int]struct{}, len(shares))
	for _, s := range shares {
		if len(valid) == p.Threshold {
			break
		}
		if s == nil {
			continue
		}
		if _, dup := seen[s.Index]; dup {
			continue
		}
		if err := p.VerifyShare(msg, s); err != nil {
			continue
		}
		seen[s.Index] = struct{}{}
		valid = append(valid, s)
	}
	return p.CombineVerified(valid)
}

// CombineVerified combines the first Threshold of the given shares
// without verifying them: every one must already have passed VerifyShare
// for the message, and their indices must be distinct. The beacon uses it
// to verify each share once however often combination is attempted.
func (p *PublicInfo) CombineVerified(shares []*SigShare) (*Signature, error) {
	if len(shares) < p.Threshold {
		return nil, fmt.Errorf("%w: %d valid of %d needed", ErrNotEnoughShares, len(shares), p.Threshold)
	}
	points := make([]shamir.PointShare, p.Threshold)
	for i, s := range shares[:p.Threshold] {
		points[i] = shamir.PointShare{Index: s.Index, Value: s.Point}
	}
	pt, err := shamir.RecoverPoint(p.Threshold, points)
	if err != nil {
		return nil, fmt.Errorf("thresig: combining: %w", err)
	}
	return &Signature{Point: pt}, nil
}

// Digest hashes the unique signature into a 32-byte value — the beacon
// output R_k for the round (modelled as a random oracle, paper §2.3).
func (s *Signature) Digest() hash.Digest {
	return hash.Sum(hash.DomainBeacon, s.Point.Encode())
}

// Encode serialises the signature point.
func (s *Signature) Encode() []byte { return s.Point.Encode() }

// DecodeSignature parses an encoded signature.
func DecodeSignature(b []byte) (*Signature, error) {
	pt, err := ec.DecodePoint(b)
	if err != nil {
		return nil, fmt.Errorf("thresig: decoding signature: %w", err)
	}
	return &Signature{Point: pt}, nil
}

// SigShareLen is the wire size of an encoded share (point + proof).
const SigShareLen = ec.PointLen + dleq.ProofLen

// Encode serialises a share as point || proof (the index travels in the
// enclosing protocol message).
func (s *SigShare) Encode() []byte {
	out := make([]byte, 0, SigShareLen)
	out = append(out, s.Point.Encode()...)
	out = append(out, s.Proof.Encode()...)
	return out
}

// DecodeSigShare parses an encoded share for the given party index. The
// identity decodes as a point but is no party's share — sk_i·H2C(m) is the
// identity only for a zero key — and is refused here, where it costs a
// comparison, not at the proof check a Reveal would spend on it.
func DecodeSigShare(index int, b []byte) (*SigShare, error) {
	if len(b) != SigShareLen {
		return nil, fmt.Errorf("%w: length %d", ErrBadShare, len(b))
	}
	pt, err := ec.DecodePoint(b[:ec.PointLen])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadShare, err)
	}
	if pt.IsInfinity() {
		return nil, fmt.Errorf("%w: identity point", ErrBadShare)
	}
	proof, err := dleq.Decode(b[ec.PointLen:])
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadShare, err)
	}
	return &SigShare{Index: index, Point: pt, Proof: proof}, nil
}
