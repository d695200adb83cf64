package multisig

import (
	"crypto/rand"
	"testing"

	"icc/internal/crypto/hash"
	"icc/internal/crypto/sig"
)

const testDomain = hash.Domain("test/notarization")

func deal(t testing.TB, threshold, n int) (*PublicInfo, []SecretKey) {
	t.Helper()
	pks := make([]sig.PublicKey, n)
	keys := make([]SecretKey, n)
	for i := 0; i < n; i++ {
		pk, sk, err := sig.GenerateKey(rand.Reader)
		if err != nil {
			t.Fatal(err)
		}
		pks[i] = pk
		keys[i] = SecretKey{Index: i, Key: sk}
	}
	return NewPublicInfo(n, threshold, pks), keys
}

func signAll(keys []SecretKey, msg []byte) []*Share {
	shares := make([]*Share, len(keys))
	for i, k := range keys {
		shares[i] = k.Sign(testDomain, msg)
	}
	return shares
}

func TestSignCombineVerify(t *testing.T) {
	pub, keys := deal(t, 9, 13) // n-t with n=13, t=4
	msg := []byte("notarize block X")
	shares := signAll(keys, msg)
	agg, err := pub.Combine(testDomain, msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg.SignerIDs()) != 9 {
		t.Fatalf("aggregate carries %d signers, want 9", len(agg.SignerIDs()))
	}
	if err := pub.Verify(testDomain, msg, agg); err != nil {
		t.Fatalf("valid aggregate rejected: %v", err)
	}
}

func TestVerifyShareRejectsWrongSigner(t *testing.T) {
	pub, keys := deal(t, 2, 4)
	msg := []byte("m")
	s := keys[1].Sign(testDomain, msg)
	s.Signer = 2 // claim someone else's identity
	if err := pub.VerifyShare(testDomain, msg, s); err == nil {
		t.Fatal("share with stolen identity accepted")
	}
	if err := pub.VerifyShare(testDomain, msg, &Share{Signer: -1}); err == nil {
		t.Fatal("negative signer accepted")
	}
	if err := pub.VerifyShare(testDomain, msg, nil); err == nil {
		t.Fatal("nil share accepted")
	}
}

func TestDomainSeparation(t *testing.T) {
	pub, keys := deal(t, 1, 2)
	msg := []byte("m")
	s := keys[0].Sign(hash.Domain("test/finalization"), msg)
	if err := pub.VerifyShare(testDomain, msg, s); err == nil {
		t.Fatal("cross-domain share accepted")
	}
}

func TestCombineSkipsJunk(t *testing.T) {
	pub, keys := deal(t, 3, 5)
	msg := []byte("m")
	good := signAll(keys, msg)
	bad := keys[0].Sign(testDomain, []byte("other message"))
	input := []*Share{nil, bad, good[1], good[1], good[2], good[4]}
	agg, err := pub.Combine(testDomain, msg, input)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(testDomain, msg, agg); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 4}
	for i, s := range agg.SignerIDs() {
		if s != want[i] {
			t.Fatalf("signers = %v, want %v", agg.SignerIDs(), want)
		}
	}
}

func TestCombineFailsBelowThreshold(t *testing.T) {
	pub, keys := deal(t, 4, 5)
	msg := []byte("m")
	shares := signAll(keys, msg)
	if _, err := pub.Combine(testDomain, msg, shares[:3]); err == nil {
		t.Fatal("combined below threshold")
	}
}

func TestVerifyRejectsMalformedAggregates(t *testing.T) {
	pub, keys := deal(t, 2, 4)
	msg := []byte("m")
	cert, err := pub.Combine(testDomain, msg, signAll(keys, msg))
	if err != nil {
		t.Fatal(err)
	}
	agg := cert.(*Aggregate)
	cases := map[string]*Aggregate{
		"nil":               nil,
		"too few":           {Signers: agg.Signers[:1], Sigs: agg.Sigs[:1]},
		"length mismatch":   {Signers: agg.Signers, Sigs: agg.Sigs[:1]},
		"duplicate signers": {Signers: []int{1, 1}, Sigs: []([]byte){agg.Sigs[0], agg.Sigs[0]}},
		"unsorted":          {Signers: []int{1, 0}, Sigs: []([]byte){agg.Sigs[1], agg.Sigs[0]}},
		"out of range":      {Signers: []int{0, 9}, Sigs: []([]byte){agg.Sigs[0], agg.Sigs[1]}},
		"bad signature":     {Signers: []int{0, 1}, Sigs: []([]byte){agg.Sigs[1], agg.Sigs[0]}},
	}
	for name, a := range cases {
		if err := pub.Verify(testDomain, msg, a); err == nil {
			t.Fatalf("%s: malformed aggregate accepted", name)
		}
	}
}

// VerifyKnown leaves out exactly the signatures the caller vouches for:
// every structural check still holds for them, and an unvouched forged
// signature is still refused.
func TestVerifyKnownSkipsOnlyVouchedSignatures(t *testing.T) {
	pub, keys := deal(t, 2, 4)
	msg := []byte("m")
	cert, err := pub.Combine(testDomain, msg, signAll(keys, msg))
	if err != nil {
		t.Fatal(err)
	}
	agg := cert.(*Aggregate)
	junk := make([]byte, 64)
	all := func(int, []byte) bool { return true }
	// A vouched signature is not checked: junk under it passes.
	if err := pub.VerifyKnown(testDomain, msg, &Aggregate{Signers: agg.Signers, Sigs: [][]byte{junk, junk}}, all); err != nil {
		t.Fatalf("vouched signatures were checked: %v", err)
	}
	// Structure is checked whatever the caller vouches for.
	for name, a := range map[string]*Aggregate{
		"too few":      {Signers: agg.Signers[:1], Sigs: agg.Sigs[:1]},
		"unsorted":     {Signers: []int{1, 0}, Sigs: [][]byte{agg.Sigs[1], agg.Sigs[0]}},
		"out of range": {Signers: []int{0, 9}, Sigs: [][]byte{agg.Sigs[0], agg.Sigs[1]}},
	} {
		if err := pub.VerifyKnown(testDomain, msg, a, all); err == nil {
			t.Fatalf("%s: malformed aggregate accepted", name)
		}
	}
	// Signer 0 vouched, signer 1 forged and not: refused.
	first := func(signer int, _ []byte) bool { return signer == agg.Signers[0] }
	if err := pub.VerifyKnown(testDomain, msg, &Aggregate{Signers: agg.Signers, Sigs: [][]byte{agg.Sigs[0], junk}}, first); err == nil {
		t.Fatal("unvouched forged signature accepted")
	}
}

func TestVerifyRejectsWrongMessage(t *testing.T) {
	pub, keys := deal(t, 2, 3)
	agg, err := pub.Combine(testDomain, []byte("m1"), signAll(keys, []byte("m1")))
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(testDomain, []byte("m2"), agg); err == nil {
		t.Fatal("aggregate verified for different message")
	}
}

func TestEncodeDecodeRoundTrip(t *testing.T) {
	pub, keys := deal(t, 3, 5)
	msg := []byte("wire")
	agg, err := pub.Combine(testDomain, msg, signAll(keys, msg))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(agg.Encode()), pub.CertSize(len(agg.SignerIDs())); got != want {
		t.Fatalf("encoded %d bytes, CertSize says %d", got, want)
	}
	dec, err := DecodeAggregate(agg.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Verify(testDomain, msg, dec); err != nil {
		t.Fatalf("decoded aggregate rejected: %v", err)
	}
	if _, err := DecodeAggregate([]byte{0}); err == nil {
		t.Fatal("truncated aggregate accepted")
	}
	if _, err := DecodeAggregate(agg.Encode()[:5]); err == nil {
		t.Fatal("short aggregate accepted")
	}
}

func BenchmarkCombine13(b *testing.B) {
	pub, keys := deal(b, 9, 13)
	msg := []byte("bench")
	shares := signAll(keys, msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pub.Combine(testDomain, msg, shares); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyAggregate13(b *testing.B) {
	pub, keys := deal(b, 9, 13)
	msg := []byte("bench")
	agg, _ := pub.Combine(testDomain, msg, signAll(keys, msg))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.Verify(testDomain, msg, agg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSign13(b *testing.B) {
	_, keys := deal(b, 9, 13)
	msg := []byte("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		keys[i%len(keys)].Sign(testDomain, msg)
	}
}

// TestEachKeyDecodedOnce: a share check cycling over every signer of a large
// instance (n = 200, 600 keys a cluster) reuses each key's table. A check
// that rebuilt its table would allocate the table's 256 points.
func TestEachKeyDecodedOnce(t *testing.T) {
	pub, keys := deal(t, 134, 200)
	msg := []byte("every signer in turn")
	shares := signAll(keys, msg)
	for _, s := range shares {
		if err := pub.VerifyShare(testDomain, msg, s); err != nil {
			t.Fatal(err)
		}
	}
	checkpoint := pub.WithQuorum(67)
	i := 0
	if n := testing.AllocsPerRun(2*len(shares), func() {
		s := shares[i%len(shares)]
		i++
		if err := checkpoint.VerifyShare(testDomain, msg, s); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Fatalf("a share check allocates %v times after its key's first check", n)
	}
}

// BenchmarkVerifyShare checks one share at a time, cycling over the 13
// signers as a party's verify pipeline does.
func BenchmarkVerifyShare(b *testing.B) {
	pub, keys := deal(b, 9, 13)
	msg := []byte("bench")
	shares := signAll(keys, msg)
	for _, s := range shares {
		if err := pub.VerifyShare(testDomain, msg, s); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.VerifyShare(testDomain, msg, shares[i%len(shares)]); err != nil {
			b.Fatal(err)
		}
	}
}
