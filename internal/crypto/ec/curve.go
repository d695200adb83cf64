// Package ec implements the secp256k1 elliptic-curve group from scratch. It
// is the prime-order group underlying the threshold signature scheme
// S_beacon used by the ICC random beacon (paper §2.3, approach (iii)): the
// protocol needs a group in which discrete logs are hard, points can be
// hashed to, and Lagrange interpolation "in the exponent" works.
//
// Field elements are four 64-bit limbs reduced by the prime's special form
// (field.go); points are value types in affine coordinates, and sums run in
// Jacobian projective coordinates so that a chain of additions pays one
// field inversion, at the end. Nothing allocates per field operation. A
// scalar multiplication is 256 doublings and some 60 additions, about 3 000
// field multiplications of 40 ns, and takes 150 µs on the benchmark's host
// (EXPERIMENTS.md E24); a multiple of G is 64 mixed additions out of a
// precomputed affine table and takes a quarter of that. MultiMul computes
// the sums the beacon needs — two-term DLEQ commitments, Lagrange
// combination — on one doubling chain. Scalars (scalar.go) stay on big.Int:
// a proof does a handful of operations mod N and no workload notices them.
// The arithmetic is not constant-time, which the big.Int arithmetic it
// replaces was not either.
package ec

import (
	"crypto/rand"
	"errors"
	"fmt"
	"io"
	"sync"

	"icc/internal/crypto/hash"
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

// Point is an element of the secp256k1 group y² = x³ + 7 over F_p, stored
// in affine coordinates. (0, 0) is not on the curve and stands for the
// point at infinity, so the zero Point is the identity, as its encoding is
// 33 zero bytes. Points are immutable once created.
type Point struct {
	x, y fe
}

// generator is the standard base point G.
var generator = &Point{
	x: fe{0x59f2815b16f81798, 0x029bfcdb2dce28d9, 0x55a06295ce870b07, 0x79be667ef9dcbbac},
	y: fe{0x9c47d08ffb10d4b8, 0xfd17b448a6855419, 0x5da4fbfc0e1108a8, 0x483ada7726a3c465},
}

// Infinity returns the group identity.
func Infinity() *Point { return &Point{} }

// Generator returns the standard base point G.
func Generator() *Point { return generator }

// IsInfinity reports whether p is the identity.
func (p *Point) IsInfinity() bool { return *p == Point{} }

// Equal reports whether two points are the same group element.
func (p *Point) Equal(q *Point) bool { return *p == *q }

// IsOnCurve reports whether p satisfies the curve equation (the identity
// is considered on-curve).
func (p *Point) IsOnCurve() bool {
	return p.IsInfinity() || p.y.sqr() == curveRHS(p.x)
}

// curveRHS returns x³ + 7.
func curveRHS(x fe) fe { return x.sqr().mul(x).add(feSeven) }

// jacobian is the projective representation (X/Z², Y/Z³) sums are computed
// in; z == 0 encodes infinity, which makes the zero value the identity.
type jacobian struct {
	x, y, z fe
}

func (p *Point) jacobian() jacobian {
	if p.IsInfinity() {
		return jacobian{}
	}
	return jacobian{x: p.x, y: p.y, z: fe{1}}
}

func (j *jacobian) isInfinity() bool { return j.z.isZero() }

func (j *jacobian) affine() *Point {
	if j.isInfinity() {
		return Infinity()
	}
	p := j.scaled(j.z.inv())
	return &p
}

// scaled returns the affine form of a finite j, given 1/Z.
func (j *jacobian) scaled(zInv fe) Point {
	zInv2 := zInv.sqr()
	return Point{x: j.x.mul(zInv2), y: j.y.mul(zInv2.mul(zInv))}
}

// double returns 2*j using the standard Jacobian doubling formulas for
// a = 0 curves (dbl-2009-l): two multiplications and five squarings.
func (j *jacobian) double() jacobian {
	if j.isInfinity() {
		return jacobian{}
	}
	a := j.x.sqr()
	b := j.y.sqr()
	c := b.sqr()
	d := j.x.add(b).sqr().sub(a).sub(c).double() // 2*((X+B)^2 - A - C)
	e := a.double().add(a)                       // 3*A
	x3 := e.sqr().sub(d.double())                // E^2 - 2*D
	c8 := c.double().double().double()
	return jacobian{
		x: x3,
		y: e.mul(d.sub(x3)).sub(c8), // E*(D - X3) - 8*C
		z: j.y.mul(j.z).double(),    // 2*Y*Z
	}
}

// add returns j + q (add-2007-bl general addition: eleven multiplications
// and five squarings).
func (j *jacobian) add(q *jacobian) jacobian {
	if j.isInfinity() {
		return *q
	}
	if q.isInfinity() {
		return *j
	}
	z1z1 := j.z.sqr()
	z2z2 := q.z.sqr()
	u1 := j.x.mul(z2z2)
	u2 := q.x.mul(z1z1)
	s1 := j.y.mul(q.z).mul(z2z2)
	s2 := q.y.mul(j.z).mul(z1z1)
	z3 := j.z.add(q.z).sqr().sub(z1z1).sub(z2z2) // 2*Z1*Z2
	return j.addTail(u1, s1, u2.sub(u1), s2.sub(s1), z3)
}

// addAffine returns j + q for a finite affine q (madd-2007-bl mixed
// addition: with Z2 = 1, seven multiplications and four squarings).
func (j *jacobian) addAffine(q *Point) jacobian {
	if j.isInfinity() {
		return q.jacobian()
	}
	z1z1 := j.z.sqr()
	u2 := q.x.mul(z1z1)
	s2 := q.y.mul(j.z).mul(z1z1)
	return j.addTail(j.x, j.y, u2.sub(j.x), s2.sub(j.y), j.z.double())
}

// addTail finishes both additions from the first summand's X and Y scaled
// to the common denominator (u1, s1), the differences h = U2 − U1 and
// d = S2 − S1, and zz = 2·Z1·Z2, the factor Z3 has beside h.
func (j *jacobian) addTail(u1, s1, h, d, zz fe) jacobian {
	if h.isZero() {
		if !d.isZero() {
			return jacobian{} // P + (-P)
		}
		return j.double()
	}
	i := h.double().sqr()
	jj := h.mul(i)
	r := d.double()
	v := u1.mul(i)
	x3 := r.sqr().sub(jj).sub(v.double()) // r^2 - J - 2*V
	return jacobian{
		x: x3,
		y: r.mul(v.sub(x3)).sub(s1.mul(jj).double()), // r*(V - X3) - 2*S1*J
		z: zz.mul(h),
	}
}

// Add returns p + q.
func (p *Point) Add(q *Point) *Point {
	if q.IsInfinity() {
		return p
	}
	j := p.jacobian()
	j = j.addAffine(q)
	return j.affine()
}

// Neg returns -p.
func (p *Point) Neg() *Point {
	return &Point{x: p.x, y: p.y.neg()}
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
// pays the whole doubling chain again and Add a field inversion each.
// Terms in G skip the chain: they are 64 mixed additions out of the
// BaseMul table. It panics if the slices differ in length (a programming
// error).
func MultiMul(ks []*Scalar, ps []*Point) *Point {
	if len(ks) != len(ps) {
		panic("ec: MultiMul with mismatched slice lengths")
	}
	tables := make([][16]jacobian, 0, len(ps))
	digits := make([][ScalarLen]byte, 0, len(ps))
	var acc, base jacobian
	for i, p := range ps {
		switch {
		case p.IsInfinity() || ks[i].IsZero():
		case *p == *generator:
			base.addBase(ks[i])
		default:
			tables = append(tables, windowTable(p))
			digits = append(digits, ks[i].bytes())
		}
	}
	if len(tables) > 0 {
		for w := 63; w >= 0; w-- {
			for i := 0; i < 4; i++ {
				acc = acc.double()
			}
			for i := range tables {
				if d := nibble(&digits[i], w); d != 0 {
					acc = acc.add(&tables[i][d])
				}
			}
		}
	}
	acc = acc.add(&base)
	return acc.affine()
}

// windowTable returns t with t[d] = d·p for d in 1..15 (t[0] is unused).
func windowTable(p *Point) (t [16]jacobian) {
	t[1] = p.jacobian()
	for d := 2; d < 16; d++ {
		if d%2 == 0 {
			t[d] = t[d/2].double()
		} else {
			t[d] = t[d-1].addAffine(p)
		}
	}
	return t
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

// baseTable caches multiples of G in affine coordinates, so that a
// multiple of G is 64 mixed additions and no doubling (windowed, 4-bit).
// Built lazily on first use.
var (
	baseTableOnce sync.Once
	baseTable     [64][16]Point // baseTable[w][d] = d * 16^w * G; [w][0] is unused
)

func buildBaseTable() {
	var js [64 * 15]jacobian
	g := generator.jacobian()
	for w := 0; w < 64; w++ {
		row := js[w*15 : (w+1)*15]
		row[0] = g
		for d := 1; d < 15; d++ {
			row[d] = row[d-1].add(&g)
		}
		// advance g by 16x
		g = row[7].double()
	}
	// One inversion for the whole table (Montgomery's trick): invert the
	// product of every Z, then peel one Z off at a time. No entry is the
	// identity — d·16^w < N — so no Z is zero.
	var prefix [len(js)]fe
	acc := fe{1}
	for i := range js {
		prefix[i] = acc
		acc = acc.mul(js[i].z)
	}
	inv := acc.inv()
	for i := len(js) - 1; i >= 0; i-- {
		baseTable[i/15][i%15+1] = js[i].scaled(inv.mul(prefix[i]))
		inv = inv.mul(js[i].z)
	}
}

// addBase adds k*G to j.
func (j *jacobian) addBase(k *Scalar) {
	baseTableOnce.Do(buildBaseTable)
	kb := k.bytes()
	for w := 0; w < 64; w++ {
		if d := nibble(&kb, w); d != 0 {
			*j = j.addAffine(&baseTable[w][d])
		}
	}
}

// BaseMul returns k*G using a precomputed window table.
func BaseMul(k *Scalar) *Point {
	var acc jacobian
	acc.addBase(k)
	return acc.affine()
}

// Encode returns the 33-byte compressed SEC1 encoding of the point.
// The identity encodes as 33 zero bytes.
func (p *Point) Encode() []byte {
	out := make([]byte, PointLen)
	if p.IsInfinity() {
		return out
	}
	out[0] = 0x02
	if p.y.isOdd() {
		out[0] = 0x03
	}
	p.x.putBytes(out[1:])
	return out
}

// DecodePoint parses a 33-byte compressed encoding.
func DecodePoint(b []byte) (*Point, error) {
	if len(b) != PointLen {
		return nil, fmt.Errorf("%w: length %d", ErrInvalidPoint, len(b))
	}
	if [PointLen]byte(b) == [PointLen]byte{} {
		return Infinity(), nil
	}
	if b[0] != 0x02 && b[0] != 0x03 {
		return nil, fmt.Errorf("%w: prefix 0x%02x", ErrInvalidPoint, b[0])
	}
	x, ok := feFromBytes(b[1:])
	if !ok {
		return nil, fmt.Errorf("%w: x out of range", ErrInvalidPoint)
	}
	y, ok := curveRHS(x).sqrt()
	if !ok {
		return nil, fmt.Errorf("%w: x not on curve", ErrInvalidPoint)
	}
	if y.isOdd() != (b[0] == 0x03) {
		y = y.neg()
	}
	return &Point{x: x, y: y}, nil
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
		x, ok := feFromBytes(d[:])
		if !ok {
			continue
		}
		if y, ok := curveRHS(x).sqrt(); ok {
			// Pick the even-y representative for determinism.
			if y.isOdd() {
				y = y.neg()
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
