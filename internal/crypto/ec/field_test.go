package ec

import (
	"bytes"
	"math/big"
	"math/rand"
	"testing"
)

// big returns a as an integer, for comparison with the math/big oracle.
func (a fe) big() *big.Int {
	var b [32]byte
	a.putBytes(b[:])
	return new(big.Int).SetBytes(b[:])
}

// Cmp and Text let curve_test.go's known-answer test, written when
// coordinates were *big.Int, read fe coordinates as it stands.
func (a fe) Cmp(v *big.Int) int   { return a.big().Cmp(v) }
func (a fe) Text(base int) string { return a.big().Text(base) }

// feFromBig returns v mod p.
func feFromBig(v *big.Int) fe {
	var b [32]byte
	new(big.Int).Mod(v, P).FillBytes(b[:])
	a, ok := feFromBytes(b[:])
	if !ok {
		panic("reduced value rejected")
	}
	return a
}

var feP = fe{^uint64(0) - pc + 1, ^uint64(0), ^uint64(0), ^uint64(0)} // not a valid element: p itself

// edgeElements are the operands where carries, borrows and folds happen.
func edgeElements() []fe {
	ones := ^uint64(0)
	pMinus := func(k uint64) fe { return fe{feP[0] - k, ones, ones, ones} }
	return []fe{
		{}, {1}, {2}, {7}, pMinus(1), pMinus(2), pMinus(3),
		{ones}, {0, ones}, {0, 0, ones}, {0, 0, 0, ones}, // single all-ones limbs
		{ones, ones, ones, ones >> 1}, // 2²⁵⁵ − 1
		{0, 0, 0, 1 << 63},            // 2²⁵⁵
		{pc}, {pc - 1}, {pc + 1}, {1 << 32}, {0, 1}, {0, 0, 0, 1},
		feFromBig(new(big.Int).Rsh(P, 1)), // (p−1)/2
		{ones, ones, ones, ones - 1},      // 2²⁵⁶ − 2¹⁹² − 1
		feFromBig(new(big.Int).Sqrt(P)),   // squares to just under p
		feFromBig(new(big.Int).Add(new(big.Int).Sqrt(P), big.NewInt(1))),
	}
}

func randomFe(rng *rand.Rand) fe {
	var b [32]byte
	rng.Read(b[:])
	return feFromBig(new(big.Int).SetBytes(b[:]))
}

func modP(v *big.Int) *big.Int { return v.Mod(v, P) }

// checkFieldOps compares every operation on (a, b) with math/big.
func checkFieldOps(t *testing.T, a, b fe) {
	t.Helper()
	x, y := a.big(), b.big()
	check := func(op string, got fe, want *big.Int) {
		t.Helper()
		if got.big().Cmp(want) != 0 {
			t.Fatalf("%s(%x, %x) = %x, want %x", op, x, y, got.big(), want)
		}
		if got.reduceOnce(0) != got {
			t.Fatalf("%s(%x, %x) = %x is not reduced", op, x, y, got.big())
		}
	}
	check("add", a.add(b), modP(new(big.Int).Add(x, y)))
	check("sub", a.sub(b), modP(new(big.Int).Sub(x, y)))
	check("neg", a.neg(), modP(new(big.Int).Neg(x)))
	check("double", a.double(), modP(new(big.Int).Lsh(x, 1)))
	check("mul", a.mul(b), modP(new(big.Int).Mul(x, y)))
	check("sqr", a.sqr(), modP(new(big.Int).Mul(x, x)))
	if x.Sign() == 0 {
		check("inv", a.inv(), new(big.Int))
	} else {
		check("inv", a.inv(), new(big.Int).ModInverse(x, P))
	}
	root, ok := a.sqrt()
	want := new(big.Int).ModSqrt(x, P)
	if ok != (want != nil) {
		t.Fatalf("sqrt(%x): square %v, math/big says %v", x, ok, want != nil)
	}
	if ok {
		// The root a^((p+1)/4) is the one refLiftX computes.
		check("sqrt", root, new(big.Int).Exp(x, sqrtExp, P))
		check("sqrt²", root.sqr(), x)
	}
}

func TestFieldMatchesBig(t *testing.T) {
	edges := edgeElements()
	for _, a := range edges {
		for _, b := range edges {
			checkFieldOps(t, a, b)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		a, b := randomFe(rng), randomFe(rng)
		checkFieldOps(t, a, b)
		checkFieldOps(t, a, edges[i%len(edges)])
	}
}

// wideBig returns the 512-bit value of r.
func wideBig(r *[8]uint64) *big.Int {
	v := new(big.Int)
	for i := 7; i >= 0; i-- {
		v.Lsh(v, 64).Or(v, new(big.Int).SetUint64(r[i]))
	}
	return v
}

// TestReduceMatchesBig feeds reduce 512-bit values no product of two
// reduced elements reaches, among them the ones whose second fold carries
// out of the fourth limb again.
func TestReduceMatchesBig(t *testing.T) {
	ones := ^uint64(0)
	cases := [][8]uint64{
		{},
		{ones, ones, ones, ones},       // 2²⁵⁶ − 1: no fold, one subtraction
		{feP[0], ones, ones, ones},     // p
		{feP[0] - 1, ones, ones, ones}, // p − 1
		{0, 0, 0, 0, 1},                // 2²⁵⁶
		{ones, ones, ones, ones, ones, ones, ones, ones}, // 2⁵¹² − 1: both folds carry
		{0, 0, 0, 0, ones, ones, ones, ones},
		{ones, ones, ones, ones, 1},
		{feP[0], ones, ones, ones, 0, 0, 0, 1 << 63},
		{ones - pc, ones, ones, ones, 0, 0, 0, ones}, // first fold leaves 2²⁵⁶ − 1 − pc + …
		{0, 0, 0, 0, 0, 0, 0, ones},
	}
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 2000; i++ {
		var r [8]uint64
		for j := range r {
			r[j] = rng.Uint64()
		}
		cases = append(cases, r)
	}
	for _, r := range cases {
		got, want := reduce(&r), modP(wideBig(&r))
		if got.big().Cmp(want) != 0 {
			t.Fatalf("reduce(%x) = %x, want %x", r, got.big(), want)
		}
	}
	// reduceOnce on its whole domain's corners: values below 2p, with and
	// without the carry bit.
	for _, c := range []struct {
		t     fe
		carry uint64
	}{
		{feP, 0}, {fe{ones, ones, ones, ones}, 0}, {fe{}, 1}, {fe{feP[0] - pc - 1, ones, ones, ones}, 1}, // 2p − 1
		{fe{feP[0] - 1, ones, ones, ones}, 0},
	} {
		v := c.t.big()
		if c.carry == 1 {
			v.Add(v, new(big.Int).Lsh(big.NewInt(1), 256))
		}
		if got := c.t.reduceOnce(c.carry); got.big().Cmp(modP(v)) != 0 {
			t.Fatalf("reduceOnce(%x, %d) = %x", c.t, c.carry, got.big())
		}
	}
}

func TestFieldBytesRoundTrip(t *testing.T) {
	for _, a := range edgeElements() {
		var b [32]byte
		a.putBytes(b[:])
		got, ok := feFromBytes(b[:])
		if !ok || got != a {
			t.Fatalf("round trip of %x: %x, %v", a.big(), got.big(), ok)
		}
	}
	// p, p + 1 and 2²⁵⁶ − 1 are not canonical.
	for _, v := range []*big.Int{P, new(big.Int).Add(P, big.NewInt(1)), new(big.Int).Sub(new(big.Int).Lsh(big.NewInt(1), 256), big.NewInt(1))} {
		var b [32]byte
		v.FillBytes(b[:])
		if _, ok := feFromBytes(b[:]); ok {
			t.Fatalf("feFromBytes accepted %x", v)
		}
	}
}

func FuzzFieldMul(f *testing.F) {
	edges := edgeElements()
	for i, a := range edges {
		ab, bb := make([]byte, 32), make([]byte, 32)
		a.putBytes(ab)
		edges[(i+1)%len(edges)].putBytes(bb)
		f.Add(ab, ab)
		f.Add(ab, bb)
	}
	f.Add(bytes.Repeat([]byte{0xff}, 32), bytes.Repeat([]byte{0xff}, 32)) // 2⁵¹² − 1 before reduction
	f.Fuzz(func(t *testing.T, ab, bb []byte) {
		// Any bytes name an element: the integer they spell, mod p.
		a, b := feFromBig(new(big.Int).SetBytes(ab)), feFromBig(new(big.Int).SetBytes(bb))
		checkFieldOps(t, a, b)
		// The same bytes, unreduced, as limbs of a 512-bit value.
		var r [8]uint64
		for i, c := range append(append([]byte{}, ab...), bb...) {
			r[i/8%8] ^= uint64(c) << (8 * (i % 8))
		}
		if got, want := reduce(&r), modP(wideBig(&r)); got.big().Cmp(want) != 0 {
			t.Fatalf("reduce(%x) = %x, want %x", r, got.big(), want)
		}
	})
}

var (
	sinkFe  fe
	sinkJac jacobian
)

// TestArithmeticDoesNotAllocate pins what the rewrite was for: a field
// operation or a group operation in Jacobian coordinates touches no heap.
func TestArithmeticDoesNotAllocate(t *testing.T) {
	a, b := generator.x, generator.y
	p, q := generator.jacobian(), HashToPoint([]byte("alloc")).jacobian()
	p = p.double() // Z ≠ 1
	h := HashToPoint([]byte("alloc-affine"))
	for name, fn := range map[string]func(){
		"fe.mul":             func() { sinkFe = a.mul(b) },
		"fe.sqr":             func() { sinkFe = a.sqr() },
		"fe.inv":             func() { sinkFe = a.inv() },
		"jacobian.double":    func() { sinkJac = p.double() },
		"jacobian.add":       func() { sinkJac = p.add(&q) },
		"jacobian.addAffine": func() { sinkJac = p.addAffine(h) },
	} {
		if n := testing.AllocsPerRun(100, fn); n != 0 {
			t.Errorf("%s allocates %v times per call", name, n)
		}
	}
}

func BenchmarkFieldMul(b *testing.B) {
	x, y := generator.x, generator.y
	for i := 0; i < b.N; i++ {
		x = x.mul(y)
	}
	sinkFe = x
}

func BenchmarkFieldSqr(b *testing.B) {
	x := generator.x
	for i := 0; i < b.N; i++ {
		x = x.sqr()
	}
	sinkFe = x
}

func BenchmarkFieldInv(b *testing.B) {
	x := generator.x
	for i := 0; i < b.N; i++ {
		x = x.inv()
	}
	sinkFe = x
}
