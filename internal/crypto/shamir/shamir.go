// Package shamir implements Shamir secret sharing over the scalar field of
// the ec group, plus Lagrange interpolation both in the field and "in the
// exponent" (on group elements). It is the basis of the threshold
// signature scheme S_beacon used by the ICC random beacon (paper §2.3,
// approach (iii), citing [34]).
//
// Shares use evaluation points x = index+1 so that the secret is the
// polynomial evaluated at 0 and no share index collides with it.
package shamir

import (
	"errors"
	"fmt"
	"io"

	"icc/internal/crypto/ec"
)

// Share is one party's share of a secret: the polynomial evaluated at
// point Index+1.
type Share struct {
	Index int // party index in [0, n)
	Value *ec.Scalar
}

// ErrNotEnoughShares is returned when fewer than threshold shares are
// supplied to Recover.
var ErrNotEnoughShares = errors.New("shamir: not enough shares")

// ErrDuplicateShare is returned when two shares carry the same index.
var ErrDuplicateShare = errors.New("shamir: duplicate share index")

// Deal splits secret into n shares such that any `threshold` of them
// recover the secret and fewer reveal nothing. threshold = degree+1.
// For the ICC beacon scheme S_beacon (a (t, t+1, n) scheme), threshold
// is t+1.
func Deal(rng io.Reader, secret *ec.Scalar, threshold, n int) ([]Share, error) {
	if threshold < 1 || threshold > n {
		return nil, fmt.Errorf("shamir: invalid threshold %d for n=%d", threshold, n)
	}
	// coeffs[0] = secret; higher coefficients random.
	coeffs := make([]*ec.Scalar, threshold)
	coeffs[0] = secret
	for i := 1; i < threshold; i++ {
		c, err := ec.RandomScalar(rng)
		if err != nil {
			return nil, fmt.Errorf("shamir: sampling coefficient: %w", err)
		}
		coeffs[i] = c
	}
	shares := make([]Share, n)
	for idx := 0; idx < n; idx++ {
		x := ec.ScalarFromUint64(uint64(idx + 1))
		shares[idx] = Share{Index: idx, Value: eval(coeffs, x)}
	}
	return shares, nil
}

// eval evaluates the polynomial with the given coefficients at x using
// Horner's rule.
func eval(coeffs []*ec.Scalar, x *ec.Scalar) *ec.Scalar {
	acc := ec.ZeroScalar()
	for i := len(coeffs) - 1; i >= 0; i-- {
		acc = acc.Mul(x).Add(coeffs[i])
	}
	return acc
}

// lagrangeCoefficients returns the coefficients λ_i such that
// f(0) = Σ λ_i · f(x_i) for the distinct evaluation points x_i = idx+1.
func lagrangeCoefficients(indices []int) ([]*ec.Scalar, error) {
	seen := make(map[int]struct{}, len(indices))
	xs := make([]*ec.Scalar, len(indices))
	for i, idx := range indices {
		if _, dup := seen[idx]; dup {
			return nil, fmt.Errorf("%w: index %d", ErrDuplicateShare, idx)
		}
		seen[idx] = struct{}{}
		xs[i] = ec.ScalarFromUint64(uint64(idx + 1))
	}
	coeffs := make([]*ec.Scalar, len(indices))
	for i := range indices {
		num := ec.OneScalar()
		den := ec.OneScalar()
		for j := range indices {
			if j == i {
				continue
			}
			// num *= (0 - x_j) ; den *= (x_i - x_j)
			num = num.Mul(xs[j].Neg())
			den = den.Mul(xs[i].Sub(xs[j]))
		}
		coeffs[i] = num.Mul(den.Inv())
	}
	return coeffs, nil
}

// Recover reconstructs the secret from at least `threshold` shares.
// Extra shares beyond threshold are ignored (the first threshold are
// used), which keeps recovery deterministic for a given share order.
func Recover(threshold int, shares []Share) (*ec.Scalar, error) {
	if len(shares) < threshold {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(shares), threshold)
	}
	use := shares[:threshold]
	indices := make([]int, threshold)
	for i, s := range use {
		indices[i] = s.Index
	}
	lam, err := lagrangeCoefficients(indices)
	if err != nil {
		return nil, err
	}
	acc := ec.ZeroScalar()
	for i, s := range use {
		acc = acc.Add(lam[i].Mul(s.Value))
	}
	return acc, nil
}

// PointShare is a share whose value is a group element x_i·B for a common
// base B — the form signature shares take in the threshold VRF.
type PointShare struct {
	Index int
	Value *ec.Point
}

// RecoverPoint performs Lagrange interpolation in the exponent:
// given point shares f(x_i)·B it reconstructs f(0)·B.
func RecoverPoint(threshold int, shares []PointShare) (*ec.Point, error) {
	if len(shares) < threshold {
		return nil, fmt.Errorf("%w: have %d, need %d", ErrNotEnoughShares, len(shares), threshold)
	}
	use := shares[:threshold]
	indices := make([]int, threshold)
	for i, s := range use {
		indices[i] = s.Index
	}
	lam, err := lagrangeCoefficients(indices)
	if err != nil {
		return nil, err
	}
	values := make([]*ec.Point, threshold)
	for i, s := range use {
		values[i] = s.Value
	}
	return ec.MultiMul(lam, values), nil
}

// PublicShares derives the per-party public keys g^{f(x_i)} and the global
// public key g^{f(0)} from a dealt share set. Used by the trusted dealer
// to provision verification material.
func PublicShares(shares []Share) []*ec.Point {
	pub := make([]*ec.Point, len(shares))
	for i, s := range shares {
		pub[i] = ec.BaseMul(s.Value)
	}
	return pub
}
