package ec

import (
	"crypto/rand"
	"math/big"
	"testing"
	"testing/quick"
)

// Known-answer values for secp256k1 small multiples of G.
var kat2Gx, _ = new(big.Int).SetString("c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5", 16)
var kat2Gy, _ = new(big.Int).SetString("1ae168fea63dc339a3c58419466ceaeef7f632653266d0e1236431a950cfe52a", 16)

func TestGeneratorOnCurve(t *testing.T) {
	if !Generator().IsOnCurve() {
		t.Fatal("generator not on curve")
	}
}

func TestDoubleKnownAnswer(t *testing.T) {
	g2 := Generator().Add(Generator())
	if g2.x.Cmp(kat2Gx) != 0 || g2.y.Cmp(kat2Gy) != 0 {
		t.Fatalf("2G mismatch: got (%s, %s)", g2.x.Text(16), g2.y.Text(16))
	}
}

func TestMulMatchesRepeatedAdd(t *testing.T) {
	g := Generator()
	acc := Infinity()
	for k := uint64(0); k <= 20; k++ {
		got := g.Mul(ScalarFromUint64(k))
		if !got.Equal(acc) {
			t.Fatalf("k=%d: Mul does not match repeated addition", k)
		}
		if !got.IsOnCurve() {
			t.Fatalf("k=%d: result off curve", k)
		}
		acc = acc.Add(g)
	}
}

func TestBaseMulMatchesMul(t *testing.T) {
	for i := 0; i < 20; i++ {
		k, err := RandomScalar(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		if !BaseMul(k).Equal(Generator().Mul(k)) {
			t.Fatalf("BaseMul mismatch for k=%s", k)
		}
	}
}

func TestOrderAnnihilates(t *testing.T) {
	// N*G must be the identity; (N-1)*G must be -G.
	nMinus1 := NewScalar(new(big.Int).Sub(N, big.NewInt(1)))
	if !BaseMul(nMinus1).Equal(Generator().Neg()) {
		t.Fatal("(N-1)*G != -G")
	}
	if !BaseMul(nMinus1).Add(Generator()).IsInfinity() {
		t.Fatal("N*G != infinity")
	}
}

func TestAddInverse(t *testing.T) {
	_, p, err := RandomPoint(rand.Reader)
	if err != nil {
		t.Fatal(err)
	}
	if !p.Add(p.Neg()).IsInfinity() {
		t.Fatal("P + (-P) != infinity")
	}
	if !p.Sub(p).IsInfinity() {
		t.Fatal("P - P != infinity")
	}
	if !p.Add(Infinity()).Equal(p) {
		t.Fatal("P + 0 != P")
	}
	if !Infinity().Add(p).Equal(p) {
		t.Fatal("0 + P != P")
	}
}

func TestScalarMulHomomorphic(t *testing.T) {
	// (a+b)*G == a*G + b*G for random a, b.
	f := func(aRaw, bRaw [32]byte) bool {
		a := ScalarFromBytesWide(aRaw[:])
		b := ScalarFromBytesWide(bRaw[:])
		lhs := BaseMul(a.Add(b))
		rhs := BaseMul(a).Add(BaseMul(b))
		return lhs.Equal(rhs)
	}
	cfg := &quick.Config{MaxCount: 10}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestScalarMulAssociative(t *testing.T) {
	// (a*b)*G == a*(b*G).
	a, _ := RandomScalar(rand.Reader)
	b, _ := RandomScalar(rand.Reader)
	lhs := BaseMul(a.Mul(b))
	rhs := BaseMul(b).Mul(a)
	if !lhs.Equal(rhs) {
		t.Fatal("(a*b)*G != a*(b*G)")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	for i := 0; i < 20; i++ {
		_, p, err := RandomPoint(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		q, err := DecodePoint(p.Encode())
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if !q.Equal(p) {
			t.Fatal("round-trip mismatch")
		}
	}
	// Identity round-trips too.
	q, err := DecodePoint(Infinity().Encode())
	if err != nil || !q.IsInfinity() {
		t.Fatalf("infinity round-trip failed: %v", err)
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	cases := [][]byte{
		nil,
		make([]byte, 32),
		append([]byte{0x05}, make([]byte, 32)...), // bad prefix
		func() []byte { // x = p (out of range)
			b := make([]byte, 33)
			b[0] = 0x02
			P.FillBytes(b[1:])
			return b
		}(),
	}
	for i, c := range cases {
		if _, err := DecodePoint(c); err == nil {
			t.Fatalf("case %d: expected decode error", i)
		}
	}
}

func TestHashToPointDeterministicAndOnCurve(t *testing.T) {
	p1 := HashToPoint([]byte("round 1 beacon"))
	p2 := HashToPoint([]byte("round 1 beacon"))
	if !p1.Equal(p2) {
		t.Fatal("HashToPoint not deterministic")
	}
	if !p1.IsOnCurve() || p1.IsInfinity() {
		t.Fatal("HashToPoint result invalid")
	}
	p3 := HashToPoint([]byte("round 2 beacon"))
	if p1.Equal(p3) {
		t.Fatal("distinct messages mapped to same point")
	}
}

func TestScalarFieldAlgebra(t *testing.T) {
	a, _ := RandomScalar(rand.Reader)
	b, _ := RandomScalar(rand.Reader)
	if !a.Add(b).Sub(b).Equal(a) {
		t.Fatal("a+b-b != a")
	}
	if !a.Mul(b).Mul(b.Inv()).Equal(a) {
		t.Fatal("a*b*b^-1 != a")
	}
	if !a.Add(a.Neg()).IsZero() {
		t.Fatal("a + (-a) != 0")
	}
	if !a.Mul(OneScalar()).Equal(a) {
		t.Fatal("a*1 != a")
	}
	if !a.Mul(ZeroScalar()).IsZero() {
		t.Fatal("a*0 != 0")
	}
}

func TestScalarEncodeDecode(t *testing.T) {
	a, _ := RandomScalar(rand.Reader)
	b, err := DecodeScalar(a.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !a.Equal(b) {
		t.Fatal("scalar round-trip mismatch")
	}
	// Non-canonical (>= N) must be rejected.
	raw := make([]byte, 32)
	N.FillBytes(raw)
	if _, err := DecodeScalar(raw); err == nil {
		t.Fatal("expected rejection of scalar >= N")
	}
	if _, err := DecodeScalar([]byte{1, 2, 3}); err == nil {
		t.Fatal("expected rejection of short scalar")
	}
}

func TestInvZeroPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on Inv of zero")
		}
	}()
	ZeroScalar().Inv()
}

// naiveMul is the reference k*p for the MultiMul tests: bit-by-bit
// double-and-add, sharing nothing with the windowed code but the group law.
func naiveMul(p *Point, k *Scalar) *Point {
	acc := Infinity()
	for i := k.v.BitLen() - 1; i >= 0; i-- {
		acc = acc.Add(acc)
		if k.v.Bit(i) == 1 {
			acc = acc.Add(p)
		}
	}
	return acc
}

func naiveMultiMul(ks []*Scalar, ps []*Point) *Point {
	acc := Infinity()
	for i := range ks {
		acc = acc.Add(naiveMul(ps[i], ks[i]))
	}
	return acc
}

func TestMultiMulMatchesNaiveOnRandomInputs(t *testing.T) {
	for terms := 1; terms <= 6; terms++ {
		ks := make([]*Scalar, terms)
		ps := make([]*Point, terms)
		for i := range ks {
			ks[i], _ = RandomScalar(rand.Reader)
			_, ps[i], _ = RandomPoint(rand.Reader)
		}
		got := MultiMul(ks, ps)
		if !got.Equal(naiveMultiMul(ks, ps)) {
			t.Fatalf("%d terms: MultiMul differs from the naive sum", terms)
		}
		if !got.IsOnCurve() {
			t.Fatalf("%d terms: result off curve", terms)
		}
	}
}

func TestMultiMulEdgeCases(t *testing.T) {
	k1, _ := RandomScalar(rand.Reader)
	k2, _ := RandomScalar(rand.Reader)
	_, p, _ := RandomPoint(rand.Reader)
	_, q, _ := RandomPoint(rand.Reader)
	nMinus1 := NewScalar(new(big.Int).Sub(N, big.NewInt(1)))
	g := Generator()
	cases := []struct {
		name string
		ks   []*Scalar
		ps   []*Point
	}{
		{"no terms", nil, nil},
		{"single term", []*Scalar{k1}, []*Point{p}},
		{"single generator term", []*Scalar{k1}, []*Point{g}},
		{"zero scalar", []*Scalar{ZeroScalar(), k2}, []*Point{p, q}},
		{"all scalars zero", []*Scalar{ZeroScalar(), ZeroScalar()}, []*Point{p, q}},
		{"infinity point", []*Scalar{k1, k2}, []*Point{Infinity(), q}},
		{"repeated point", []*Scalar{k1, k2}, []*Point{p, p}},
		{"repeated point and scalar", []*Scalar{k1, k1}, []*Point{p, p}},
		{"point with its negation", []*Scalar{k1, k1}, []*Point{p, p.Neg()}},
		{"negation with other scalar", []*Scalar{k1, k2}, []*Point{p, p.Neg()}},
		{"scalar N-1", []*Scalar{nMinus1, k2}, []*Point{p, q}},
		{"scalar N-1 alone", []*Scalar{nMinus1}, []*Point{p}},
		{"scalar one", []*Scalar{OneScalar(), OneScalar()}, []*Point{p, q}},
		{"generator beside a point", []*Scalar{k1, k2}, []*Point{g, p}},
	}
	for _, c := range cases {
		got := MultiMul(c.ks, c.ps)
		if want := naiveMultiMul(c.ks, c.ps); !got.Equal(want) {
			t.Errorf("%s: MultiMul differs from the naive sum", c.name)
		}
	}
	if !MultiMul([]*Scalar{k1, k1}, []*Point{p, p.Neg()}).IsInfinity() {
		t.Error("k·P + k·(−P) is not the identity")
	}
	if !MultiMul([]*Scalar{nMinus1}, []*Point{p}).Equal(p.Neg()) {
		t.Error("(N−1)·P != −P")
	}
}

func TestMultiMulLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on mismatched lengths")
		}
	}()
	MultiMul([]*Scalar{OneScalar()}, nil)
}

// sinkPoint keeps benchmarked results alive.
var sinkPoint *Point

func BenchmarkMultiMul2(b *testing.B) {
	k1, _ := RandomScalar(rand.Reader)
	k2, _ := RandomScalar(rand.Reader)
	ks := []*Scalar{k1, k2}
	ps := []*Point{HashToPoint([]byte("bench-1")), HashToPoint([]byte("bench-2"))}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sinkPoint = MultiMul(ks, ps)
	}
}

func BenchmarkBaseMul(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BaseMul(k)
	}
}

func BenchmarkPointMul(b *testing.B) {
	k, _ := RandomScalar(rand.Reader)
	p := HashToPoint([]byte("bench"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.Mul(k)
	}
}

func BenchmarkHashToPoint(b *testing.B) {
	msg := []byte("beacon round payload")
	for i := 0; i < b.N; i++ {
		HashToPoint(msg)
	}
}
