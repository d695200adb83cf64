// Package dleq implements non-interactive Chaum–Pedersen proofs of
// discrete-logarithm equality: a proof that log_G(X) = log_B(Y) for known
// points G, X, B, Y without revealing the exponent.
//
// The ICC beacon's threshold signature shares are verified with these
// proofs: a share on message m is x_i·H(m), and the DLEQ proof shows it
// was computed with the same x_i that underlies the party's registered
// public key x_i·G. This gives per-share public verifiability — the
// property paper §2.3 obtains from pairings in threshold BLS — without a
// pairing (see DESIGN.md §5 for the substitution argument).
package dleq

import (
	"errors"
	"fmt"
	"io"

	"icc/internal/crypto/ec"
	"icc/internal/crypto/hash"
)

// Proof is a Fiat–Shamir transformed Chaum–Pedersen proof.
type Proof struct {
	C *ec.Scalar // challenge
	Z *ec.Scalar // response
}

// ProofLen is the encoded size of a Proof.
const ProofLen = 2 * ec.ScalarLen

// ErrInvalidProof is returned when a proof fails verification or decoding.
var ErrInvalidProof = errors.New("dleq: invalid proof")

// generatorEncoding is G as every challenge hashes it.
var generatorEncoding = ec.Generator().Encode()

// challenge derives the Fiat–Shamir challenge binding every public value.
func challenge(base2, pub1, pub2, a1, a2 *ec.Point, context []byte) *ec.Scalar {
	d := hash.Sum(hash.DomainDLEQ,
		generatorEncoding, base2.Encode(),
		pub1.Encode(), pub2.Encode(),
		a1.Encode(), a2.Encode(),
		context,
	)
	return ec.ScalarFromBytesWide(d[:])
}

// Prove creates a proof that pub1 = x·G and pub2 = x·base2 for the given
// secret x. The context bytes bind the proof to a particular protocol
// message, preventing replay across messages.
func Prove(rng io.Reader, x *ec.Scalar, base2, pub1, pub2 *ec.Point, context []byte) (*Proof, error) {
	k, err := ec.RandomScalar(rng)
	if err != nil {
		return nil, fmt.Errorf("dleq: sampling nonce: %w", err)
	}
	a1 := ec.BaseMul(k)
	a2 := base2.Mul(k)
	c := challenge(base2, pub1, pub2, a1, a2, context)
	// z = k - c*x
	z := k.Sub(c.Mul(x))
	return &Proof{C: c, Z: z}, nil
}

// Verify checks a proof that log_G(pub1) = log_{base2}(pub2).
func Verify(p *Proof, base2, pub1, pub2 *ec.Point, context []byte) error {
	if p == nil || p.C == nil || p.Z == nil {
		return fmt.Errorf("%w: nil fields", ErrInvalidProof)
	}
	// Recompute commitments: a1 = z·G + c·pub1, a2 = z·base2 + c·pub2.
	zc := []*ec.Scalar{p.Z, p.C}
	a1 := ec.MultiMul(zc, []*ec.Point{ec.Generator(), pub1})
	a2 := ec.MultiMul(zc, []*ec.Point{base2, pub2})
	c := challenge(base2, pub1, pub2, a1, a2, context)
	if !c.Equal(p.C) {
		return ErrInvalidProof
	}
	return nil
}

// Encode serialises the proof as C || Z.
func (p *Proof) Encode() []byte {
	out := make([]byte, 0, ProofLen)
	out = append(out, p.C.Encode()...)
	out = append(out, p.Z.Encode()...)
	return out
}

// Decode parses a proof encoded by Encode.
func Decode(b []byte) (*Proof, error) {
	if len(b) != ProofLen {
		return nil, fmt.Errorf("%w: length %d", ErrInvalidProof, len(b))
	}
	c, err := ec.DecodeScalar(b[:ec.ScalarLen])
	if err != nil {
		return nil, fmt.Errorf("%w: challenge: %v", ErrInvalidProof, err)
	}
	z, err := ec.DecodeScalar(b[ec.ScalarLen:])
	if err != nil {
		return nil, fmt.Errorf("%w: response: %v", ErrInvalidProof, err)
	}
	return &Proof{C: c, Z: z}, nil
}
