// Package ec implements the secp256k1 elliptic-curve group from scratch on
// top of math/big. It is the prime-order group underlying the threshold
// signature scheme S_beacon used by the ICC random beacon (paper §2.3,
// approach (iii)): the protocol needs a group in which discrete logs are
// hard, points can be hashed to, and Lagrange interpolation "in the
// exponent" works.
//
// The implementation favours clarity over speed: field elements are
// *big.Int values reduced mod p, and point arithmetic uses Jacobian
// projective coordinates to avoid a modular inversion per addition.
// It is not fast: a scalar multiplication is 256 doublings of nine
// big.Int reductions each and takes milliseconds, not microseconds, which
// makes the beacon the largest consumer of processor time in a small
// cluster (bench/README.md). MultiMul exists so that the sums the beacon
// needs — two-term DLEQ commitments, Lagrange combination — pay that
// doubling chain once; sweeps that need thousands of rounds per second
// run on beacon.Simulated instead.
package ec

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"math/big"
	"sync"

	"icc/internal/crypto/hash"
)

// Curve parameters for secp256k1: y^2 = x^3 + 7 over F_p.
var (
	// P is the field prime 2^256 - 2^32 - 977.
	P, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffffffffffffffffffffffffffefffffc2f", 16)
	// N is the (prime) group order.
	N, _ = new(big.Int).SetString("fffffffffffffffffffffffffffffffebaaedce6af48a03bbfd25e8cd0364141", 16)
	// b is the curve constant (a = 0, b = 7).
	curveB = big.NewInt(7)
	// Generator coordinates.
	gX, _ = new(big.Int).SetString("79be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798", 16)
	gY, _ = new(big.Int).SetString("483ada7726a3c4655da4fbfc0e1108a8fd17b448a68554199c47d08ffb10d4b8", 16)
)

// PointLen is the length of a compressed point encoding.
const PointLen = 33

// ScalarLen is the length of a scalar encoding.
const ScalarLen = 32

// ErrInvalidPoint is returned when decoding bytes that are not a valid
// compressed curve point.
var ErrInvalidPoint = errors.New("ec: invalid point encoding")

// ErrInvalidScalar is returned when decoding bytes that are not a valid
// scalar in [0, N).
var ErrInvalidScalar = errors.New("ec: invalid scalar encoding")

// Point is an element of the secp256k1 group, stored in affine
// coordinates. The zero value is NOT valid; use Infinity() or the
// constructors. Points are immutable once created.
type Point struct {
	x, y *big.Int // nil, nil encodes the point at infinity
}

// Infinity returns the group identity.
func Infinity() *Point { return &Point{} }

// Generator returns the standard base point G.
func Generator() *Point {
	return &Point{x: new(big.Int).Set(gX), y: new(big.Int).Set(gY)}
}

// IsInfinity reports whether p is the identity.
func (p *Point) IsInfinity() bool { return p.x == nil }

// Equal reports whether two points are the same group element.
func (p *Point) Equal(q *Point) bool {
	if p.IsInfinity() || q.IsInfinity() {
		return p.IsInfinity() && q.IsInfinity()
	}
	return p.x.Cmp(q.x) == 0 && p.y.Cmp(q.y) == 0
}

// IsOnCurve reports whether p satisfies the curve equation (the identity
// is considered on-curve).
func (p *Point) IsOnCurve() bool {
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

// jacobian is an internal projective representation (X/Z^2, Y/Z^3).
type jacobian struct {
	x, y, z *big.Int // z == 0 encodes infinity
}

func jacobianInfinity() *jacobian {
	return &jacobian{x: big.NewInt(1), y: big.NewInt(1), z: new(big.Int)}
}

func toJacobian(p *Point) *jacobian {
	if p.IsInfinity() {
		return jacobianInfinity()
	}
	return &jacobian{x: new(big.Int).Set(p.x), y: new(big.Int).Set(p.y), z: big.NewInt(1)}
}

func (j *jacobian) isInfinity() bool { return j.z.Sign() == 0 }

func (j *jacobian) toAffine() *Point {
	if j.isInfinity() {
		return Infinity()
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
	return &Point{x: x, y: y}
}

// double returns 2*j using the standard Jacobian doubling formulas for
// a = 0 curves (dbl-2009-l).
func (j *jacobian) double() *jacobian {
	if j.isInfinity() || j.y.Sign() == 0 {
		return jacobianInfinity()
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
	return &jacobian{x: x3, y: y3, z: z3}
}

// add returns j + q (add-2007-bl general addition).
func (j *jacobian) add(q *jacobian) *jacobian {
	if j.isInfinity() {
		return &jacobian{x: new(big.Int).Set(q.x), y: new(big.Int).Set(q.y), z: new(big.Int).Set(q.z)}
	}
	if q.isInfinity() {
		return &jacobian{x: new(big.Int).Set(j.x), y: new(big.Int).Set(j.y), z: new(big.Int).Set(j.z)}
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
			return jacobianInfinity()
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
	return &jacobian{x: x3, y: y3, z: z3}
}

// Add returns p + q.
func (p *Point) Add(q *Point) *Point {
	return toJacobian(p).add(toJacobian(q)).toAffine()
}

// Neg returns -p.
func (p *Point) Neg() *Point {
	if p.IsInfinity() {
		return Infinity()
	}
	y := new(big.Int).Sub(P, p.y)
	y.Mod(y, P)
	return &Point{x: new(big.Int).Set(p.x), y: y}
}

// Sub returns p - q.
func (p *Point) Sub(q *Point) *Point { return p.Add(q.Neg()) }

// Mul returns k*p (a one-term MultiMul).
func (p *Point) Mul(k *Scalar) *Point {
	return MultiMul([]*Scalar{k}, []*Point{p})
}

// MultiMul returns Σ ks[i]·ps[i] by Straus's interleaved method: every
// term gets a table of its point's multiples 1..15, the scalars are read
// in 4-bit windows from the top, and all terms share one chain of 256
// doublings and one conversion back to affine coordinates. A term costs
// at most 14 table operations plus 64 additions, where an independent Mul
// pays the whole doubling chain again and Add a modular inversion each.
// It panics if the slices differ in length (a programming error).
func MultiMul(ks []*Scalar, ps []*Point) *Point {
	if len(ks) != len(ps) {
		panic("ec: MultiMul with mismatched slice lengths")
	}
	tables := make([]*[16]*jacobian, 0, len(ps))
	digits := make([][ScalarLen]byte, 0, len(ps))
	for i, p := range ps {
		if p.IsInfinity() || ks[i].v.Sign() == 0 {
			continue
		}
		tables = append(tables, windowTable(p))
		var kb [ScalarLen]byte
		ks[i].v.FillBytes(kb[:])
		digits = append(digits, kb)
	}
	acc := jacobianInfinity()
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

// windowTable returns t with t[d] = d·p for d in 1..15 (t[0] is unused).
// The generator's table is the first row of the BaseMul table, built once.
func windowTable(p *Point) *[16]*jacobian {
	if p.x.Cmp(gX) == 0 && p.y.Cmp(gY) == 0 {
		baseTableOnce.Do(buildBaseTable)
		return &baseTable[0]
	}
	var t [16]*jacobian
	t[1] = toJacobian(p)
	for d := 2; d < 16; d++ {
		if d%2 == 0 {
			t[d] = t[d/2].double()
		} else {
			t[d] = t[d-1].add(t[1])
		}
	}
	return &t
}

// nibble returns the w-th 4-bit window of a big-endian scalar, window 0
// being the least significant.
func nibble(kb *[ScalarLen]byte, w int) byte {
	b := kb[ScalarLen-1-w/2]
	if w%2 == 0 {
		return b & 0x0f
	}
	return b >> 4
}

// baseTable caches multiples of G for faster base-point multiplication
// (windowed, 4-bit). Built lazily on first use.
var (
	baseTableOnce sync.Once
	baseTable     [64][16]*jacobian // baseTable[w][d] = d * 16^w * G
)

func buildBaseTable() {
	g := toJacobian(Generator())
	for w := 0; w < 64; w++ {
		baseTable[w][0] = jacobianInfinity()
		baseTable[w][1] = g
		for d := 2; d < 16; d++ {
			baseTable[w][d] = baseTable[w][d-1].add(g)
		}
		// advance g by 16x
		for i := 0; i < 4; i++ {
			g = g.double()
		}
	}
}

// BaseMul returns k*G using a precomputed window table.
func BaseMul(k *Scalar) *Point {
	baseTableOnce.Do(buildBaseTable)
	if k.v.Sign() == 0 {
		return Infinity()
	}
	acc := jacobianInfinity()
	var kb [ScalarLen]byte
	k.v.FillBytes(kb[:])
	for w := 0; w < 64; w++ {
		if d := nibble(&kb, w); d != 0 {
			acc = acc.add(baseTable[w][d])
		}
	}
	return acc.toAffine()
}

// Encode returns the 33-byte compressed SEC1 encoding of the point.
// The identity encodes as 33 zero bytes.
func (p *Point) Encode() []byte {
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

// DecodePoint parses a 33-byte compressed encoding.
func DecodePoint(b []byte) (*Point, error) {
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
		return Infinity(), nil
	}
	if b[0] != 0x02 && b[0] != 0x03 {
		return nil, fmt.Errorf("%w: prefix 0x%02x", ErrInvalidPoint, b[0])
	}
	x := new(big.Int).SetBytes(b[1:])
	if x.Cmp(P) >= 0 {
		return nil, fmt.Errorf("%w: x out of range", ErrInvalidPoint)
	}
	y, ok := liftX(x)
	if !ok {
		return nil, fmt.Errorf("%w: x not on curve", ErrInvalidPoint)
	}
	if y.Bit(0) != uint(b[0]&1) {
		y.Sub(P, y)
	}
	return &Point{x: x, y: y}, nil
}

// liftX computes a square root of x^3 + 7 mod p, if one exists.
// Since p ≡ 3 (mod 4), sqrt(a) = a^((p+1)/4).
var sqrtExp = new(big.Int).Rsh(new(big.Int).Add(P, big.NewInt(1)), 2)

func liftX(x *big.Int) (*big.Int, bool) {
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

// HashToPoint maps arbitrary bytes to a curve point using deterministic
// try-and-increment: candidates x = H(domain, msg, ctr) are tried until
// one lies on the curve (expected two attempts). The discrete log of the
// result with respect to G is unknown, which is what the threshold VRF
// construction requires.
func HashToPoint(msg []byte) *Point {
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
		if y, ok := liftX(x); ok {
			// Pick the even-y representative for determinism.
			if y.Bit(0) == 1 {
				y.Sub(P, y)
			}
			return &Point{x: x, y: y}
		}
	}
}

// RandomPoint returns r*G for a uniformly random scalar r, together with r.
// Used only by tests and key generation.
func RandomPoint(rng io.Reader) (*Scalar, *Point, error) {
	s, err := RandomScalar(rng)
	if err != nil {
		return nil, nil, err
	}
	return s, BaseMul(s), nil
}

// randReader defaults to crypto/rand.
var randReader io.Reader = rand.Reader
