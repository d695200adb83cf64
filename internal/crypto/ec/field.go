package ec

import (
	"encoding/binary"
	"math/bits"
)

// fe is an element of F_p, p = 2²⁵⁶ − 2³² − 977, as four 64-bit limbs,
// least significant first, always fully reduced to [0, p): two elements are
// equal exactly when the arrays are, and the big-endian encoding is the
// limbs written out, with no conversion in or out of a Montgomery form.
// Every operation takes and returns values and allocates nothing.
type fe [4]uint64

// pc is 2²⁵⁶ − p. Reduction rests on 2²⁵⁶ ≡ pc (mod p): whatever stands
// above bit 256 is multiplied by pc and added back in below it.
const pc = 1<<32 + 977

// feSeven is the curve constant b of y² = x³ + b.
var feSeven = fe{7}

// reduceOnce returns carry·2²⁵⁶ + t mod p for a value below 2p: it
// subtracts p once if the value reaches it, and subtracting p is adding pc
// mod 2²⁵⁶. The carry is a coin toss and is handled without a branch;
// t ≥ p with no carry needs three limbs of ones and is a branch never
// taken.
func (t fe) reduceOnce(carry uint64) fe {
	if t[3]&t[2]&t[1] == ^uint64(0) && t[0] >= 1<<64-pc {
		carry = 1
	}
	var c uint64
	t[0], c = bits.Add64(t[0], pc&-carry, 0)
	t[1], c = bits.Add64(t[1], 0, c)
	t[2], c = bits.Add64(t[2], 0, c)
	t[3], _ = bits.Add64(t[3], 0, c)
	return t
}

func (a fe) add(b fe) fe {
	var t fe
	var c uint64
	t[0], c = bits.Add64(a[0], b[0], 0)
	t[1], c = bits.Add64(a[1], b[1], c)
	t[2], c = bits.Add64(a[2], b[2], c)
	t[3], c = bits.Add64(a[3], b[3], c)
	return t.reduceOnce(c)
}

func (a fe) double() fe { return a.add(a) }

// sub returns a − b: where the limbs borrow, the difference stands 2²⁵⁶
// too high, and adding p to it is subtracting pc mod 2²⁵⁶.
func (a fe) sub(b fe) fe {
	var t fe
	var c uint64
	t[0], c = bits.Sub64(a[0], b[0], 0)
	t[1], c = bits.Sub64(a[1], b[1], c)
	t[2], c = bits.Sub64(a[2], b[2], c)
	t[3], c = bits.Sub64(a[3], b[3], c)
	t[0], c = bits.Sub64(t[0], pc&-c, 0)
	t[1], c = bits.Sub64(t[1], 0, c)
	t[2], c = bits.Sub64(t[2], 0, c)
	t[3], _ = bits.Sub64(t[3], 0, c)
	return t
}

func (a fe) neg() fe { return fe{}.sub(a) }

func (a fe) isZero() bool { return a == fe{} }

func (a fe) isOdd() bool { return a[0]&1 == 1 }

// mac returns a·b + c + d as (high, low) words; the sum cannot exceed
// 2¹²⁸ − 1.
func mac(a, b, c, d uint64) (hi, lo uint64) {
	hi, lo = bits.Mul64(a, b)
	var k uint64
	lo, k = bits.Add64(lo, c, 0)
	hi, _ = bits.Add64(hi, 0, k)
	lo, k = bits.Add64(lo, d, 0)
	hi, _ = bits.Add64(hi, 0, k)
	return hi, lo
}

// mul returns a·b: the 512-bit schoolbook product, row by row, then reduce.
func (a fe) mul(b fe) fe {
	var r [8]uint64
	var c uint64
	c, r[0] = bits.Mul64(a[0], b[0])
	c, r[1] = mac(a[0], b[1], c, 0)
	c, r[2] = mac(a[0], b[2], c, 0)
	r[4], r[3] = mac(a[0], b[3], c, 0)

	c, r[1] = mac(a[1], b[0], r[1], 0)
	c, r[2] = mac(a[1], b[1], r[2], c)
	c, r[3] = mac(a[1], b[2], r[3], c)
	r[5], r[4] = mac(a[1], b[3], r[4], c)

	c, r[2] = mac(a[2], b[0], r[2], 0)
	c, r[3] = mac(a[2], b[1], r[3], c)
	c, r[4] = mac(a[2], b[2], r[4], c)
	r[6], r[5] = mac(a[2], b[3], r[5], c)

	c, r[3] = mac(a[3], b[0], r[3], 0)
	c, r[4] = mac(a[3], b[1], r[4], c)
	c, r[5] = mac(a[3], b[2], r[5], c)
	r[7], r[6] = mac(a[3], b[3], r[6], c)
	return reduce(&r)
}

// sqr returns a²: the six products a_i·a_j with i < j are computed once
// and doubled, then the four squares a_i² go onto the even positions — ten
// word multiplications where mul does sixteen.
func (a fe) sqr() fe {
	var r [8]uint64
	var c uint64
	c, r[1] = bits.Mul64(a[0], a[1])
	c, r[2] = mac(a[0], a[2], c, 0)
	r[4], r[3] = mac(a[0], a[3], c, 0)

	c, r[3] = mac(a[1], a[2], r[3], 0)
	r[5], r[4] = mac(a[1], a[3], r[4], c)

	r[6], r[5] = mac(a[2], a[3], r[5], 0)

	r[7] = r[6] >> 63
	r[6] = r[6]<<1 | r[5]>>63
	r[5] = r[5]<<1 | r[4]>>63
	r[4] = r[4]<<1 | r[3]>>63
	r[3] = r[3]<<1 | r[2]>>63
	r[2] = r[2]<<1 | r[1]>>63
	r[1] = r[1] << 1

	var hi, k uint64
	hi, r[0] = bits.Mul64(a[0], a[0])
	r[1], k = bits.Add64(r[1], hi, 0)
	hi, lo := bits.Mul64(a[1], a[1])
	r[2], k = bits.Add64(r[2], lo, k)
	r[3], k = bits.Add64(r[3], hi, k)
	hi, lo = bits.Mul64(a[2], a[2])
	r[4], k = bits.Add64(r[4], lo, k)
	r[5], k = bits.Add64(r[5], hi, k)
	hi, lo = bits.Mul64(a[3], a[3])
	r[6], k = bits.Add64(r[6], lo, k)
	r[7], _ = bits.Add64(r[7], hi, k)
	return reduce(&r)
}

// reduce brings a 512-bit value into [0, p) in two folds and one
// conditional subtraction. The first fold turns the high four words into
// high·pc, leaving a fifth word below 2³⁴; the second turns that word into
// at most 2⁶⁷, after which the value is below 2²⁵⁶ + 2⁶⁷ < 2p.
func reduce(r *[8]uint64) fe {
	var t fe
	var c, k uint64
	c, t[0] = mac(r[4], pc, r[0], 0)
	c, t[1] = mac(r[5], pc, r[1], c)
	c, t[2] = mac(r[6], pc, r[2], c)
	c, t[3] = mac(r[7], pc, r[3], c)

	hi, lo := bits.Mul64(c, pc)
	t[0], k = bits.Add64(t[0], lo, 0)
	t[1], k = bits.Add64(t[1], hi, k)
	t[2], k = bits.Add64(t[2], 0, k)
	t[3], k = bits.Add64(t[3], 0, k)
	return t.reduceOnce(k)
}

// sqrN returns a^(2ⁿ).
func (a fe) sqrN(n int) fe {
	for ; n > 0; n-- {
		a = a.sqr()
	}
	return a
}

// powTop returns a^(2²⁴⁶ − 2²³ + 2²² − 1) and a³. The exponent is the top
// 246 bits that p − 2 and (p + 1)/4 share — 223 ones, a zero, 22 ones —
// reached through a^(2ᵏ − 1) for k = 2, 3, 6, 9, 11, 22, 44, 88, 176, 220,
// 223: 245 squarings and 12 multiplications.
func (a fe) powTop() (top, x2 fe) {
	x2 = a.sqr().mul(a)
	x3 := x2.sqr().mul(a)
	x6 := x3.sqrN(3).mul(x3)
	x9 := x6.sqrN(3).mul(x3)
	x11 := x9.sqrN(2).mul(x2)
	x22 := x11.sqrN(11).mul(x11)
	x44 := x22.sqrN(22).mul(x22)
	x88 := x44.sqrN(44).mul(x44)
	x176 := x88.sqrN(88).mul(x88)
	x220 := x176.sqrN(44).mul(x44)
	x223 := x220.sqrN(3).mul(x3)
	return x223.sqrN(23).mul(x22), x2
}

// inv returns a⁻¹ = a^(p−2) (and 0 for 0). The low ten bits of p − 2 are
// 0000101101.
func (a fe) inv() fe {
	t, x2 := a.powTop()
	t = t.sqrN(5).mul(a)
	t = t.sqrN(3).mul(x2)
	return t.sqrN(2).mul(a)
}

// sqrt returns a square root of a, if a is a square. Since p ≡ 3 (mod 4)
// the candidate is a^((p+1)/4), whose low eight bits are 00001100.
func (a fe) sqrt() (fe, bool) {
	t, x2 := a.powTop()
	r := t.sqrN(6).mul(x2).sqrN(2)
	return r, r.sqr() == a
}

// feFromBytes reads 32 big-endian bytes; ok is false when they encode a
// value of p or more.
func feFromBytes(b []byte) (a fe, ok bool) {
	a = fe{
		binary.BigEndian.Uint64(b[24:32]),
		binary.BigEndian.Uint64(b[16:24]),
		binary.BigEndian.Uint64(b[8:16]),
		binary.BigEndian.Uint64(b[0:8]),
	}
	return a, a.reduceOnce(0) == a
}

// putBytes writes a as 32 big-endian bytes.
func (a fe) putBytes(b []byte) {
	binary.BigEndian.PutUint64(b[0:8], a[3])
	binary.BigEndian.PutUint64(b[8:16], a[2])
	binary.BigEndian.PutUint64(b[16:24], a[1])
	binary.BigEndian.PutUint64(b[24:32], a[0])
}
