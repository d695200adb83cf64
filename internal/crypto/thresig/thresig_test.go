package thresig

import (
	"crypto/rand"
	"errors"
	"testing"

	"icc/internal/crypto/ec"
)

func deal(t testing.TB, threshold, n int) (*PublicInfo, []SecretShare) {
	t.Helper()
	pub, secrets, err := Deal(rand.Reader, threshold, n)
	if err != nil {
		t.Fatal(err)
	}
	return pub, secrets
}

func signAll(t testing.TB, pub *PublicInfo, secrets []SecretShare, msg []byte) []*SigShare {
	t.Helper()
	shares := make([]*SigShare, len(secrets))
	for i, sk := range secrets {
		s, err := pub.Sign(rand.Reader, sk, msg)
		if err != nil {
			t.Fatal(err)
		}
		shares[i] = s
	}
	return shares
}

func TestSignVerifyCombine(t *testing.T) {
	pub, secrets := deal(t, 3, 7)
	msg := []byte("beacon round 1")
	shares := signAll(t, pub, secrets, msg)
	for _, s := range shares {
		if err := pub.VerifyShare(msg, s); err != nil {
			t.Fatalf("share %d rejected: %v", s.Index, err)
		}
	}
	sig, err := pub.Combine(msg, shares[:3])
	if err != nil {
		t.Fatal(err)
	}
	// Combined signature must equal sk·H2C(m); check via uniqueness below
	// and via the global key relation using a full-degree recombination.
	if sig.Point.IsInfinity() {
		t.Fatal("combined signature is identity")
	}
}

func TestUniquenessAcrossSubsets(t *testing.T) {
	pub, secrets := deal(t, 4, 9)
	msg := []byte("round 42")
	shares := signAll(t, pub, secrets, msg)
	sig1, err := pub.Combine(msg, shares[0:4])
	if err != nil {
		t.Fatal(err)
	}
	sig2, err := pub.Combine(msg, shares[5:9])
	if err != nil {
		t.Fatal(err)
	}
	sig3, err := pub.Combine(msg, []*SigShare{shares[8], shares[1], shares[6], shares[3]})
	if err != nil {
		t.Fatal(err)
	}
	if !sig1.Point.Equal(sig2.Point) || !sig1.Point.Equal(sig3.Point) {
		t.Fatal("signature differs across share subsets — uniqueness violated")
	}
	if sig1.Digest() != sig2.Digest() {
		t.Fatal("digests differ")
	}
}

func TestDistinctMessagesDistinctSignatures(t *testing.T) {
	pub, secrets := deal(t, 2, 4)
	s1, err := pub.Combine([]byte("m1"), signAll(t, pub, secrets, []byte("m1")))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := pub.Combine([]byte("m2"), signAll(t, pub, secrets, []byte("m2")))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Point.Equal(s2.Point) {
		t.Fatal("same signature for different messages")
	}
}

func TestVerifyShareRejectsForgery(t *testing.T) {
	pub, secrets := deal(t, 2, 4)
	msg := []byte("target")
	// A share computed with the wrong key (another party's) but claiming
	// index 0 must be rejected.
	forged, err := pub.Sign(rand.Reader, SecretShare{Index: 0, Key: secrets[1].Key}, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.VerifyShare(msg, forged); err == nil {
		t.Fatal("forged share accepted")
	}
	// A share for a different message must be rejected for this message.
	other, err := pub.Sign(rand.Reader, secrets[0], []byte("other"))
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.VerifyShare(msg, other); err == nil {
		t.Fatal("cross-message share accepted")
	}
	// Out-of-range index.
	bad := &SigShare{Index: 99, Point: ec.Generator(), Proof: other.Proof}
	if err := pub.VerifyShare(msg, bad); err == nil {
		t.Fatal("out-of-range index accepted")
	}
}

func TestCombineSkipsInvalidAndDuplicateShares(t *testing.T) {
	pub, secrets := deal(t, 3, 6)
	msg := []byte("m")
	shares := signAll(t, pub, secrets, msg)
	// Corrupt one share, duplicate another, include a nil: Combine must
	// still succeed using the remaining valid distinct shares.
	corrupted := &SigShare{Index: shares[0].Index, Point: ec.Generator(), Proof: shares[0].Proof}
	input := []*SigShare{corrupted, nil, shares[1], shares[1], shares[2], shares[3]}
	sig, err := pub.Combine(msg, input)
	if err != nil {
		t.Fatal(err)
	}
	want, err := pub.Combine(msg, shares[3:6])
	if err != nil {
		t.Fatal(err)
	}
	if !sig.Point.Equal(want.Point) {
		t.Fatal("combination with junk input produced a different signature")
	}
}

func TestCombineFailsBelowThreshold(t *testing.T) {
	pub, secrets := deal(t, 4, 6)
	msg := []byte("m")
	shares := signAll(t, pub, secrets, msg)
	if _, err := pub.Combine(msg, shares[:3]); err == nil {
		t.Fatal("combined below threshold")
	}
}

func TestShareEncodeDecode(t *testing.T) {
	pub, secrets := deal(t, 2, 3)
	msg := []byte("wire")
	s, err := pub.Sign(rand.Reader, secrets[1], msg)
	if err != nil {
		t.Fatal(err)
	}
	enc := s.Encode()
	if len(enc) != SigShareLen {
		t.Fatalf("encoded length %d, want %d", len(enc), SigShareLen)
	}
	dec, err := DecodeSigShare(1, enc)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.VerifyShare(msg, dec); err != nil {
		t.Fatalf("decoded share rejected: %v", err)
	}
	if _, err := DecodeSigShare(1, enc[:4]); err == nil {
		t.Fatal("short encoding accepted")
	}
}

// TestDecodeRejectsIdentityShare: 33 zero bytes decode as the group
// identity, which lies "on the curve" and would otherwise wait in a ledger
// for a full proof verification to refuse it.
func TestDecodeRejectsIdentityShare(t *testing.T) {
	pub, secrets := deal(t, 2, 3)
	s, err := pub.Sign(rand.Reader, secrets[1], []byte("wire"))
	if err != nil {
		t.Fatal(err)
	}
	enc := s.Encode()
	copy(enc, make([]byte, ec.PointLen)) // the identity beside a well-formed proof
	if _, err := DecodeSigShare(1, enc); !errors.Is(err, ErrBadShare) {
		t.Fatalf("identity share point: err = %v, want ErrBadShare", err)
	}
}

func TestSignatureEncodeDecode(t *testing.T) {
	pub, secrets := deal(t, 2, 3)
	msg := []byte("wire")
	sig, err := pub.Combine(msg, signAll(t, pub, secrets, msg))
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeSignature(sig.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !dec.Point.Equal(sig.Point) {
		t.Fatal("signature round-trip mismatch")
	}
}

func BenchmarkSignShare(b *testing.B) {
	pub, secrets, err := Deal(rand.Reader, 5, 13)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("beacon")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pub.Sign(rand.Reader, secrets[0], msg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkVerifyShare(b *testing.B) {
	pub, secrets, err := Deal(rand.Reader, 5, 13)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("beacon")
	s, _ := pub.Sign(rand.Reader, secrets[0], msg)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := pub.VerifyShare(msg, s); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCombine13of5(b *testing.B) {
	pub, secrets, err := Deal(rand.Reader, 5, 13)
	if err != nil {
		b.Fatal(err)
	}
	msg := []byte("beacon")
	shares := make([]*SigShare, 5)
	for i := range shares {
		shares[i], _ = pub.Sign(rand.Reader, secrets[i], msg)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pub.Combine(msg, shares); err != nil {
			b.Fatal(err)
		}
	}
}
