package ec

import (
	"bytes"
	"encoding/hex"
	"math/big"
	"math/rand"
	"testing"
)

// ref returns p in the oracle's representation.
func (p *Point) ref() *refPoint {
	if p.IsInfinity() {
		return refInfinity()
	}
	return &refPoint{x: p.x.big(), y: p.y.big()}
}

// rescale returns the same point with Z = z, so that the Jacobian formulas
// are checked on operands whose denominators differ.
func rescale(p *Point, z fe) jacobian {
	if p.IsInfinity() {
		return jacobian{x: z, y: z} // any X, Y beside Z = 0
	}
	z2 := z.sqr()
	return jacobian{x: p.x.mul(z2), y: p.y.mul(z2.mul(z)), z: z}
}

func lawOperands() []*Point {
	g := Generator()
	h := HashToPoint([]byte("group law"))
	g2 := g.Add(g)
	return []*Point{Infinity(), g, g.Neg(), g2, g2.Neg(), h, h.Neg(), h.Add(g), BaseMul(ScalarFromUint64(3))}
}

// TestGroupLawMatchesReference holds double, add and the mixed addition
// to the big.Int group law on every pair of operands that takes a special
// path — equal points, inverse points, the identity on either side — each
// in several projective representations.
func TestGroupLawMatchesReference(t *testing.T) {
	zs := []fe{{1}, {2}, generator.y, fe{1}.neg()}
	same := func(what string, got jacobian, want *refPoint) {
		t.Helper()
		if a := got.affine(); !a.IsOnCurve() || !a.ref().Equal(want) {
			t.Fatalf("%s: got %x, want %x", what, a.Encode(), want.Encode())
		}
	}
	ops := lawOperands()
	for i, p := range ops {
		for _, zp := range zs {
			jp := rescale(p, zp)
			if !jp.affine().Equal(p) {
				t.Fatalf("operand %d: affine(rescale) differs", i)
			}
			same("double", jp.double(), refToJacobian(p.ref()).double().toAffine())
			for k, q := range ops {
				want := p.ref().Add(q.ref())
				for _, zq := range zs {
					jq := rescale(q, zq)
					same("add", jp.add(&jq), want)
				}
				if !q.IsInfinity() {
					same("addAffine", jp.addAffine(q), want)
				}
				if got := p.Add(q); !got.ref().Equal(want) {
					t.Fatalf("Add(%d, %d): got %x, want %x", i, k, got.Encode(), want.Encode())
				}
			}
		}
	}
}

func mustHex(t *testing.T, s string) []byte {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBaseMultiplesKnownAnswers pins k·G for the k where a windowed method
// can go wrong at the ends, through every route to a multiple of G.
func TestBaseMultiplesKnownAnswers(t *testing.T) {
	nMinus1 := new(big.Int).Sub(N, big.NewInt(1))
	for _, c := range []struct {
		k    *big.Int
		want string
	}{
		{big.NewInt(0), "000000000000000000000000000000000000000000000000000000000000000000"},
		{big.NewInt(1), "0279be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"},
		{big.NewInt(2), "02c6047f9441ed7d6d3045406e95c07cd85c778e4b8cef3ca7abac09b95c709ee5"},
		{big.NewInt(3), "02f9308a019258c31049344f85f89d5229b531c845836f99b08601f113bce036f9"},
		{nMinus1, "0379be667ef9dcbbac55a06295ce870b07029bfcdb2dce28d959f2815b16f81798"},
		{N, "000000000000000000000000000000000000000000000000000000000000000000"},
	} {
		k, want := NewScalar(c.k), mustHex(t, c.want)
		// A copy of G is still G to MultiMul; k·H + k·(G − H) reaches k·G
		// on the doubling chain alone, without the base table.
		gCopy := &Point{x: generator.x, y: generator.y}
		h := HashToPoint([]byte("kat"))
		routes := map[string]*Point{
			"BaseMul":           BaseMul(k),
			"Generator().Mul":   Generator().Mul(k),
			"copy of G":         gCopy.Mul(k),
			"MultiMul beside H": MultiMul([]*Scalar{k, OneScalar()}, []*Point{Generator(), h}).Sub(h),
			"doubling chain":    MultiMul([]*Scalar{k, k}, []*Point{h, Generator().Sub(h)}),
		}
		for name, got := range routes {
			if !bytes.Equal(got.Encode(), want) {
				t.Errorf("%s·G by %s = %x, want %x", c.k.Text(16), name, got.Encode(), want)
			}
		}
	}
}

// TestHashToPointKnownAnswers pins the map into the group: the beacon
// signs HashToPoint of the round's message, so a different point here is a
// different leader schedule.
func TestHashToPointKnownAnswers(t *testing.T) {
	for msg, want := range map[string]string{
		"":                     "02a330d084ed70b55ea62e48ea455b18cb079fe7ceb496c40b2b02592f18d790dd",
		"round 1 beacon":       "021fe9ba9f595c334903c15709ca0b53dbd9a6e0db8518351e73d1959d3108e46c",
		"icc":                  "020647cffac222153275e04360b1013aaef64a7788452eb77de7fb3147464f5bf5",
		"beacon round payload": "02670133ae74dcd34f6315d8696637165999765e4f1562bc787e91d64aa5dc0ab6",
	} {
		if got := HashToPoint([]byte(msg)).Encode(); !bytes.Equal(got, mustHex(t, want)) {
			t.Errorf("HashToPoint(%q) = %x, want %s", msg, got, want)
		}
	}
}

// TestCodecMatchesReference: HashToPoint, Encode and DecodePoint agree
// with the oracle byte for byte and error for error.
func TestCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 200; i++ {
		msg := make([]byte, rng.Intn(40))
		rng.Read(msg)
		p, want := HashToPoint(msg), refHashToPoint(msg)
		if !p.ref().Equal(want) || !bytes.Equal(p.Encode(), want.Encode()) {
			t.Fatalf("HashToPoint(%x) = %x, want %x", msg, p.Encode(), want.Encode())
		}
		// Decoding: the point, its negation, and a random x that is on the
		// curve about half the time.
		enc := p.Encode()
		enc[0] ^= 1
		raw := make([]byte, PointLen)
		rng.Read(raw)
		raw[0] = 2 + raw[0]&1
		for _, b := range [][]byte{p.Encode(), enc, raw} {
			got, err := DecodePoint(b)
			want, refErr := refDecodePoint(b)
			if (err == nil) != (refErr == nil) {
				t.Fatalf("DecodePoint(%x): %v, reference: %v", b, err, refErr)
			}
			if err == nil && (!got.ref().Equal(want) || !bytes.Equal(got.Encode(), b)) {
				t.Fatalf("DecodePoint(%x) = %x", b, got.Encode())
			}
		}
	}
}

// multiMulTerms spells out terms from fuzz bytes: 33 bytes a term, 32 of
// scalar and one choosing the point — the identity, G, a hashed point, or
// the previous term's point or its negation, which is where the sum meets
// the doubling and the cancelling branches of the addition.
func multiMulTerms(data []byte) (ks []*Scalar, ps []*Point) {
	for len(data) >= 33 && len(ks) < 6 {
		ks = append(ks, ScalarFromBytesWide(data[:32]))
		sel := data[32]
		var p *Point
		switch {
		case sel == 0:
			p = Infinity()
		case sel < 32:
			p = Generator()
		case sel < 48 && len(ps) > 0:
			p = ps[len(ps)-1]
		case sel < 64 && len(ps) > 0:
			p = ps[len(ps)-1].Neg()
		default:
			p = HashToPoint([]byte{sel})
		}
		ps = append(ps, p)
		data = data[33:]
	}
	return ks, ps
}

func checkMultiMul(t *testing.T, data []byte) {
	t.Helper()
	ks, ps := multiMulTerms(data)
	refs := make([]*refPoint, len(ps))
	for i, p := range ps {
		refs[i] = p.ref()
	}
	got, want := MultiMul(ks, ps), refMultiMul(ks, refs)
	if !got.IsOnCurve() || !bytes.Equal(got.Encode(), want.Encode()) {
		t.Fatalf("MultiMul of %d terms = %x, want %x", len(ks), got.Encode(), want.Encode())
	}
}

// multiMulSeeds are the corpus of FuzzMultiMul, and run as a plain test
// too: equal and opposite terms, scalars 0, 1, N − 1 and all-ones, G
// beside other points.
func multiMulSeeds() [][]byte {
	term := func(k *big.Int, sel byte) []byte {
		b := make([]byte, 33)
		k.FillBytes(b[:32])
		b[32] = sel
		return b
	}
	one, nMinus1 := big.NewInt(1), new(big.Int).Sub(N, big.NewInt(1))
	wide := new(big.Int).Sub(new(big.Int).Lsh(one, 256), one)
	k := new(big.Int).SetBytes(bytes.Repeat([]byte{0x5a, 0xc3}, 16))
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	return [][]byte{
		nil,
		term(k, 1),
		term(k, 200),
		term(k, 0),
		cat(term(k, 200), term(k, 40)),                // k·H + k·H
		cat(term(k, 200), term(k, 60)),                // k·H − k·H
		cat(term(k, 1), term(k, 60)),                  // k·G − k·G
		cat(term(k, 1), term(nMinus1, 40)),            // k·G − G, both from the base table
		cat(term(one, 200), term(one, 40)),            // H + H: the table's own doubling
		cat(term(nMinus1, 200), term(one, 40)),        // −H + H
		cat(term(wide, 201), term(new(big.Int), 202)), // 2²⁵⁶ − 1 reduced mod N, a zero scalar
		cat(term(k, 1), term(k, 200), term(nMinus1, 201), term(one, 1), term(k, 0)),
	}
}

func TestMultiMulMatchesReference(t *testing.T) {
	for _, s := range multiMulSeeds() {
		checkMultiMul(t, s)
	}
	rng := rand.New(rand.NewSource(4))
	for i := 0; i < 30; i++ {
		data := make([]byte, 33*(1+rng.Intn(5)))
		rng.Read(data)
		checkMultiMul(t, data)
	}
}

func FuzzMultiMul(f *testing.F) {
	for _, s := range multiMulSeeds() {
		f.Add(s)
	}
	f.Fuzz(checkMultiMul)
}
