// Package bls implements the BLS12-381 pairing-friendly curve from
// scratch on math/big — base field, quadratic/sextic/duodecic extension
// tower, the G1 and G2 groups, the Tate pairing, and BLS signatures with
// Shamir-threshold signing on top.
//
// This is the signature scheme the paper actually names for the beacon
// (§2.3 approach (iii), BLS [6] with secret sharing [34]): unique
// signatures, t+1-of-n reconstruction by Lagrange interpolation in the
// exponent, and pairing-based verification of both shares and combined
// signatures. The package favours auditability over speed: arithmetic is
// plain big.Int, the Miller loop is the textbook denominator-carrying
// Tate loop, and the final exponentiation is one generic power of
// (p¹²−1)/r — every step checkable against the definitions. A production
// deployment would swap in an optimised pairing; every consumer-visible
// property (bilinearity, uniqueness, threshold reconstruction) is
// identical.
package bls

import (
	"math/big"
)

// Base-field and curve constants for BLS12-381.
var (
	// P is the 381-bit base-field prime.
	P, _ = new(big.Int).SetString("1a0111ea397fe69a4b1ba7b6434bacd764774b84f38512bf6730d2a0f6b0f6241eabfffeb153ffffb9feffffffffaaab", 16)
	// R is the (255-bit prime) order of G1 and G2.
	R, _ = new(big.Int).SetString("73eda753299d7d483339d80809a1d80553bda402fffe5bfeffffffff00000001", 16)
	// g1CofactorH clears the G1 cofactor when hashing to the curve.
	g1CofactorH, _ = new(big.Int).SetString("396c8c005555e1568c00aaab0000aaab", 16)

	bigOne  = big.NewInt(1)
	curveB4 = big.NewInt(4) // G1: y² = x³ + 4
)

// fpAdd etc. implement base-field arithmetic; values are always reduced
// to [0, P).
func fpAdd(a, b *big.Int) *big.Int {
	c := new(big.Int).Add(a, b)
	if c.Cmp(P) >= 0 {
		c.Sub(c, P)
	}
	return c
}

func fpSub(a, b *big.Int) *big.Int {
	c := new(big.Int).Sub(a, b)
	if c.Sign() < 0 {
		c.Add(c, P)
	}
	return c
}

func fpMul(a, b *big.Int) *big.Int {
	c := new(big.Int).Mul(a, b)
	return c.Mod(c, P)
}

func fpNeg(a *big.Int) *big.Int {
	if a.Sign() == 0 {
		return new(big.Int)
	}
	return new(big.Int).Sub(P, a)
}

func fpInv(a *big.Int) *big.Int {
	return new(big.Int).ModInverse(a, P)
}

// fpSqrt computes a square root mod P (P ≡ 3 mod 4), returning nil if a
// is a non-residue.
var fpSqrtExp = new(big.Int).Rsh(new(big.Int).Add(P, bigOne), 2)

func fpSqrt(a *big.Int) *big.Int {
	y := new(big.Int).Exp(a, fpSqrtExp, P)
	if fpMul(y, y).Cmp(new(big.Int).Mod(a, P)) != 0 {
		return nil
	}
	return y
}

// fp2 is Fp[u]/(u²+1): a0 + a1·u.
type fp2 struct {
	a0, a1 *big.Int
}

func fp2Zero() fp2 { return fp2{new(big.Int), new(big.Int)} }
func fp2One() fp2  { return fp2{big.NewInt(1), new(big.Int)} }

// fp2FromInts builds an element from small integers (tests, ξ).
func fp2FromInts(a0, a1 int64) fp2 {
	x0 := big.NewInt(a0)
	x0.Mod(x0, P)
	x1 := big.NewInt(a1)
	x1.Mod(x1, P)
	return fp2{x0, x1}
}

func (x fp2) isZero() bool { return x.a0.Sign() == 0 && x.a1.Sign() == 0 }

func (x fp2) equal(y fp2) bool { return x.a0.Cmp(y.a0) == 0 && x.a1.Cmp(y.a1) == 0 }

func (x fp2) add(y fp2) fp2 { return fp2{fpAdd(x.a0, y.a0), fpAdd(x.a1, y.a1)} }

func (x fp2) sub(y fp2) fp2 { return fp2{fpSub(x.a0, y.a0), fpSub(x.a1, y.a1)} }

func (x fp2) neg() fp2 { return fp2{fpNeg(x.a0), fpNeg(x.a1)} }

// mul: (a0 + a1·u)(b0 + b1·u) = (a0b0 − a1b1) + (a0b1 + a1b0)·u.
func (x fp2) mul(y fp2) fp2 {
	t0 := fpMul(x.a0, y.a0)
	t1 := fpMul(x.a1, y.a1)
	t2 := fpMul(fpAdd(x.a0, x.a1), fpAdd(y.a0, y.a1))
	re := fpSub(t0, t1)
	im := fpSub(fpSub(t2, t0), t1)
	return fp2{re, im}
}

func (x fp2) square() fp2 { return x.mul(x) }

func (x fp2) mulScalar(k *big.Int) fp2 {
	return fp2{fpMul(x.a0, k), fpMul(x.a1, k)}
}

// inv: 1/(a0 + a1·u) = (a0 − a1·u)/(a0² + a1²).
func (x fp2) inv() fp2 {
	norm := fpAdd(fpMul(x.a0, x.a0), fpMul(x.a1, x.a1))
	ni := fpInv(norm)
	return fp2{fpMul(x.a0, ni), fpMul(fpNeg(x.a1), ni)}
}

// xi is the Fp6 non-residue ξ = 1 + u.
func xi() fp2 { return fp2FromInts(1, 1) }

// mulXi multiplies by ξ = 1+u: (a0+a1·u)(1+u) = (a0−a1) + (a0+a1)·u.
func (x fp2) mulXi() fp2 {
	return fp2{fpSub(x.a0, x.a1), fpAdd(x.a0, x.a1)}
}
