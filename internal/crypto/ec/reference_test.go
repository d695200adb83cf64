package ec

import (
	"fmt"
	"math/big"

	"icc/internal/crypto/hash"
)

// The group law as this package computed it before field.go: coordinates
// are *big.Int values reduced mod P after every step, one allocation each.
// It is kept, under ref names and otherwise as it stood, as the oracle the
// differential tests and fuzzers of field_test.go and group_test.go hold
// the limb arithmetic to; it shares with curve.go the scalar type, the
// window reader and nothing else.

var (
	// b is the curve constant (a = 0, b = 7).
	curveB = big.NewInt(7)
	// Generator coordinates.
	gX, _ = new(big.Int).SetString("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798", 16)
	gY, _ = new(big.Int).SetString("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8", 16)
)

// refPoint is an element of the secp256k1 group, stored in affine
// coordinates.
type refPoint struct {
	x, y *big.Int // nil, nil encodes the point at infinity
}

// refInfinity returns the group identity.
func refInfinity() *refPoint { return &refPoint{} }

// refGenerator returns the standard base point G.
func refGenerator() *refPoint {
	return &refPoint{x: new(big.Int).Set(gX), y: new(big.Int).Set(gY)}
}

// IsInfinity reports whether p is the identity.
func (p *refPoint) IsInfinity() bool { return p.x == nil }

// Equal reports whether two points are the same group element.
func (p *refPoint) Equal(q *refPoint) bool {
	if p.IsInfinity() || q.IsInfinity() {
		return p.IsInfinity() && q.IsInfinity()
	}
	return p.x.Cmp(q.x) == 0 && p.y.Cmp(q.y) == 0
}

// IsOnCurve reports whether p satisfies the curve equation (the identity
// is considered on-curve).
func (p *refPoint) IsOnCurve() bool {
	if p.IsInfinity() {
		return true
	}
	// y^2 == x^3 + 7 (mod p)
	y2 := new(big.Int).Mul(p.y, p.y)
	y2.Mod(y2, P)
	x3 := new(big.Int).Mul(p.x, p.x)
	x3.Mul(x3, p.x)
	x3.Add(x3, curveB)
	x3.Mod(x3, P)
	return y2.Cmp(x3) == 0
}

// refJacobian is an internal projective representation (X/Z^2, Y/Z^3).
type refJacobian struct {
	x, y, z *big.Int // z == 0 encodes infinity
}

func refJacobianInfinity() *refJacobian {
	return &refJacobian{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
}

func refToJacobian(p *refPoint) *refJacobian {
	if p.IsInfinity() {
		return refJacobianInfinity()
	}
	return &refJacobian{x: new(big.Int).Set(p.x), y: new(big.Int).Set(p.y), z: big.NewInt(1)}
}

func (j *refJacobian) isInfinity() bool { return j.z.Sign() == 0 }

func (j *refJacobian) toAffine() *refPoint {
	if j.isInfinity() {
		return refInfinity()
	}
	zInv := new(big.Int).ModInverse(j.z, P)
	zInv2 := new(big.Int).Mul(zInv, zInv)
	zInv2.Mod(zInv2, P)
	x := new(big.Int).Mul(j.x, zInv2)
	x.Mod(x, P)
	zInv3 := zInv2.Mul(zInv2, zInv)
	zInv3.Mod(zInv3, P)
	y := new(big.Int).Mul(j.y, zInv3)
	y.Mod(y, P)
	return &refPoint{x: x, y: y}
}

// double returns 2*j using the standard Jacobian doubling formulas for
// a = 0 curves (dbl-2009-l).
func (j *refJacobian) double() *refJacobian {
	if j.isInfinity() || j.y.Sign() == 0 {
		return refJacobianInfinity()
	}
	a := new(big.Int).Mul(j.x, j.x) // A = X^2
	a.Mod(a, P)
	b := new(big.Int).Mul(j.y, j.y) // B = Y^2
	b.Mod(b, P)
	c := new(big.Int).Mul(b, b) // C = B^2
	c.Mod(c, P)
	// D = 2*((X+B)^2 - A - C)
	d := new(big.Int).Add(j.x, b)
	d.Mul(d, d)
	d.Sub(d, a)
	d.Sub(d, c)
	d.Lsh(d, 1)
	d.Mod(d, P)
	// E = 3*A
	e := new(big.Int).Lsh(a, 1)
	e.Add(e, a)
	e.Mod(e, P)
	// F = E^2
	f := new(big.Int).Mul(e, e)
	f.Mod(f, P)
	// X3 = F - 2*D
	x3 := new(big.Int).Lsh(d, 1)
	x3.Sub(f, x3)
	x3.Mod(x3, P)
	// Y3 = E*(D - X3) - 8*C
	y3 := new(big.Int).Sub(d, x3)
	y3.Mul(y3, e)
	c8 := new(big.Int).Lsh(c, 3)
	y3.Sub(y3, c8)
	y3.Mod(y3, P)
	// Z3 = 2*Y*Z
	z3 := new(big.Int).Mul(j.y, j.z)
	z3.Lsh(z3, 1)
	z3.Mod(z3, P)
	return &refJacobian{x: x3, y: y3, z: z3}
}

// add returns j + q (add-2007-bl general addition).
func (j *refJacobian) add(q *refJacobian) *refJacobian {
	if j.isInfinity() {
		return &refJacobian{x: new(big.Int).Set(q.x), y: new(big.Int).Set(q.y), z: new(big.Int).Set(q.z)}
	}
	if q.isInfinity() {
		return &refJacobian{x: new(big.Int).Set(j.x), y: new(big.Int).Set(j.y), z: new(big.Int).Set(j.z)}
	}
	z1z1 := new(big.Int).Mul(j.z, j.z)
	z1z1.Mod(z1z1, P)
	z2z2 := new(big.Int).Mul(q.z, q.z)
	z2z2.Mod(z2z2, P)
	u1 := new(big.Int).Mul(j.x, z2z2)
	u1.Mod(u1, P)
	u2 := new(big.Int).Mul(q.x, z1z1)
	u2.Mod(u2, P)
	s1 := new(big.Int).Mul(j.y, q.z)
	s1.Mul(s1, z2z2)
	s1.Mod(s1, P)
	s2 := new(big.Int).Mul(q.y, j.z)
	s2.Mul(s2, z1z1)
	s2.Mod(s2, P)
	if u1.Cmp(u2) == 0 {
		if s1.Cmp(s2) != 0 {
			// P + (-P) = infinity
			return refJacobianInfinity()
		}
		return j.double()
	}
	h := new(big.Int).Sub(u2, u1)
	h.Mod(h, P)
	i := new(big.Int).Lsh(h, 1)
	i.Mul(i, i)
	i.Mod(i, P)
	jj := new(big.Int).Mul(h, i)
	jj.Mod(jj, P)
	r := new(big.Int).Sub(s2, s1)
	r.Lsh(r, 1)
	r.Mod(r, P)
	v := new(big.Int).Mul(u1, i)
	v.Mod(v, P)
	// X3 = r^2 - J - 2*V
	x3 := new(big.Int).Mul(r, r)
	x3.Sub(x3, jj)
	x3.Sub(x3, v)
	x3.Sub(x3, v)
	x3.Mod(x3, P)
	// Y3 = r*(V - X3) - 2*S1*J
	y3 := new(big.Int).Sub(v, x3)
	y3.Mul(y3, r)
	s1j := new(big.Int).Mul(s1, jj)
	s1j.Lsh(s1j, 1)
	y3.Sub(y3, s1j)
	y3.Mod(y3, P)
	// Z3 = ((Z1+Z2)^2 - Z1Z1 - Z2Z2) * H
	z3 := new(big.Int).Add(j.z, q.z)
	z3.Mul(z3, z3)
	z3.Sub(z3, z1z1)
	z3.Sub(z3, z2z2)
	z3.Mul(z3, h)
	z3.Mod(z3, P)
	return &refJacobian{x: x3, y: y3, z: z3}
}

// Add returns p + q.
func (p *refPoint) Add(q *refPoint) *refPoint {
	return refToJacobian(p).add(refToJacobian(q)).toAffine()
}

// Neg returns -p.
func (p *refPoint) Neg() *refPoint {
	if p.IsInfinity() {
		return refInfinity()
	}
	y := new(big.Int).Sub(P, p.y)
	y.Mod(y, P)
	return &refPoint{x: new(big.Int).Set(p.x), y: y}
}

// refMultiMul returns Σ ks[i]·ps[i] by Straus's interleaved method: every
// term gets a table of its point's multiples 1..15, the scalars are read
// in 4-bit windows from the top, and all terms share one chain of 256
// doublings and one conversion back to affine coordinates. A term costs
// at most 14 table operations plus 64 additions, where an independent Mul
// pays the whole doubling chain again and Add a modular inversion each.
// It panics if the slices differ in length (a programming error).
func refMultiMul(ks []*Scalar, ps []*refPoint) *refPoint {
	if len(ks) != len(ps) {
		panic("ec: MultiMul with mismatched slice lengths")
	}
	tables := make([]*[16]*refJacobian, 0, len(ps))
	digits := make([][ScalarLen]byte, 0, len(ps))
	for i, p := range ps {
		if p.IsInfinity() || ks[i].v.Sign() == 0 {
			continue
		}
		tables = append(tables, refWindowTable(p))
		var kb [ScalarLen]byte
		ks[i].v.FillBytes(kb[:])
		digits = append(digits, kb)
	}
	acc := refJacobianInfinity()
	for w := 63; w >= 0; w-- {
		for i := 0; i < 4; i++ {
			acc = acc.double()
		}
		for i, t := range tables {
			if d := nibble(&digits[i], w); d != 0 {
				acc = acc.add(t[d])
			}
		}
	}
	return acc.toAffine()
}

// refWindowTable returns t with t[d] = d·p for d in 1..15 (t[0] is unused).
func refWindowTable(p *refPoint) *[16]*refJacobian {
	var t [16]*refJacobian
	t[1] = refToJacobian(p)
	for d := 2; d < 16; d++ {
		if d%2 == 0 {
			t[d] = t[d/2].double()
		} else {
			t[d] = t[d-1].add(t[1])
		}
	}
	return &t
}

// Encode returns the 33-byte compressed SEC1 encoding of the point.
// The identity encodes as 33 zero bytes.
func (p *refPoint) Encode() []byte {
	out := make([]byte, PointLen)
	if p.IsInfinity() {
		return out
	}
	if p.y.Bit(0) == 0 {
		out[0] = 0x02
	} else {
		out[0] = 0x03
	}
	p.x.FillBytes(out[1:])
	return out
}

// refDecodePoint parses a 33-byte compressed encoding.
func refDecodePoint(b []byte) (*refPoint, error) {
	if len(b) != PointLen {
		return nil, fmt.Errorf("%w: length %d", ErrInvalidPoint, len(b))
	}
	allZero := true
	for _, c := range b {
		if c != 0 {
			allZero = false
			break
		}
	}
	if allZero {
		return refInfinity(), nil
	}
	if b[0] != 0x02 && b[0] != 0x03 {
		return nil, fmt.Errorf("%w: prefix 0x%02x", ErrInvalidPoint, b[0])
	}
	x := new(big.Int).SetBytes(b[1:])
	if x.Cmp(P) >= 0 {
		return nil, fmt.Errorf("%w: x out of range", ErrInvalidPoint)
	}
	y, ok := refLiftX(x)
	if !ok {
		return nil, fmt.Errorf("%w: x not on curve", ErrInvalidPoint)
	}
	if y.Bit(0) != uint(b[0]&1) {
		y.Sub(P, y)
	}
	return &refPoint{x: x, y: y}, nil
}

// refLiftX computes a square root of x^3 + 7 mod p, if one exists.
// Since p ≡ 3 (mod 4), sqrt(a) = a^((p+1)/4).
var sqrtExp = new(big.Int).Rsh(new(big.Int).Add(P, big.NewInt(1)), 2)

func refLiftX(x *big.Int) (*big.Int, bool) {
	rhs := new(big.Int).Mul(x, x)
	rhs.Mul(rhs, x)
	rhs.Add(rhs, curveB)
	rhs.Mod(rhs, P)
	y := new(big.Int).Exp(rhs, sqrtExp, P)
	chk := new(big.Int).Mul(y, y)
	chk.Mod(chk, P)
	if chk.Cmp(rhs) != 0 {
		return nil, false
	}
	return y, true
}

// refHashToPoint maps arbitrary bytes to a curve point using deterministic
// try-and-increment: candidates x = H(domain, msg, ctr) are tried until
// one lies on the curve (expected two attempts). The discrete log of the
// result with respect to G is unknown, which is what the threshold VRF
// construction requires.
func refHashToPoint(msg []byte) *refPoint {
	for ctr := uint64(0); ; ctr++ {
		var ctrBuf [8]byte
		for i := 0; i < 8; i++ {
			ctrBuf[7-i] = byte(ctr >> (8 * i))
		}
		d := hash.Sum(hash.DomainHashToCurve, msg, ctrBuf[:])
		x := new(big.Int).SetBytes(d[:])
		if x.Cmp(P) >= 0 {
			continue
		}
		if y, ok := refLiftX(x); ok {
			// Pick the even-y representative for determinism.
			if y.Bit(0) == 1 {
				y.Sub(P, y)
			}
			return &refPoint{x: x, y: y}
		}
	}
}
