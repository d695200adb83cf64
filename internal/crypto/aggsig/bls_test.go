package aggsig

import (
	"bytes"
	"crypto/rand"
	"errors"
	"sync"
	"testing"

	"icc/internal/crypto"
	"icc/internal/crypto/hash"
)

const testDomain = hash.Domain("test/notarization")

func dealTest(t testing.TB, quorum, n int) (*BLSInfo, []BLSSecretKey) {
	t.Helper()
	info, sks, err := DealBLS(rand.Reader, quorum, n)
	if err != nil {
		t.Fatal(err)
	}
	return info, sks
}

func signAll(sks []BLSSecretKey, msg []byte) []*Share {
	shares := make([]*Share, len(sks))
	for i, k := range sks {
		shares[i] = k.Sign(testDomain, msg)
	}
	return shares
}

func TestBLSSignCombineVerify(t *testing.T) {
	info, sks := dealTest(t, 3, 4)
	msg := []byte("notarize block X")
	shares := signAll(sks, msg)
	cert, err := info.Combine(testDomain, msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(cert.SignerIDs()); got != 3 {
		t.Fatalf("certificate carries %d signers, want 3", got)
	}
	if err := info.Verify(testDomain, msg, cert); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	if err := info.Verify(testDomain, []byte("other message"), cert); err == nil {
		t.Fatal("certificate verified for a different message")
	}
	if !errors.Is(info.Verify(testDomain, []byte("other"), cert), crypto.ErrBadAggregate) {
		t.Fatal("verification failure does not wrap crypto.ErrBadAggregate")
	}
}

func TestBLSCombineVerifiedMatchesCombine(t *testing.T) {
	info, sks := dealTest(t, 3, 4)
	msg := []byte("m")
	shares := signAll(sks, msg)
	a, err := info.Combine(testDomain, msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	b, err := info.CombineVerified(shares)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Encode(), b.Encode()) {
		t.Fatal("Combine and CombineVerified disagree on honest input")
	}
}

func TestBLSCombineEvictsForgedShare(t *testing.T) {
	info, sks := dealTest(t, 3, 5)
	msg := []byte("m")
	good := signAll(sks, msg)
	forged := sks[0].Sign(testDomain, []byte("a different message"))
	input := []*Share{forged, good[1], good[2], good[3]}
	cert, err := info.Combine(testDomain, msg, input)
	if err == nil {
		// Quorum still reachable without the forged share only if ≥3
		// honest shares were supplied — here exactly 3 are, so the
		// fallback must have evicted signer 0.
		for _, s := range cert.SignerIDs() {
			if s == 0 {
				t.Fatal("forged share survived into the certificate")
			}
		}
		if err := info.Verify(testDomain, msg, cert); err != nil {
			t.Fatalf("repaired certificate rejected: %v", err)
		}
		return
	}
	t.Fatalf("combine failed despite a reachable honest quorum: %v", err)
}

func TestBLSVerifyShare(t *testing.T) {
	info, sks := dealTest(t, 2, 3)
	msg := []byte("m")
	s := sks[1].Sign(testDomain, msg)
	if err := info.VerifyShare(testDomain, msg, s); err != nil {
		t.Fatalf("valid share rejected: %v", err)
	}
	s.Signer = 2 // claim someone else's identity
	if err := info.VerifyShare(testDomain, msg, s); err == nil {
		t.Fatal("share with stolen identity accepted")
	}
	if err := info.VerifyShare(testDomain, msg, nil); err == nil {
		t.Fatal("nil share accepted")
	}
	if err := info.VerifyShare(hash.Domain("test/other"), msg, sks[0].Sign(testDomain, msg)); err == nil {
		t.Fatal("cross-domain share accepted")
	}
}

func TestBLSEncodeDecodeRoundTrip(t *testing.T) {
	info, sks := dealTest(t, 3, 4)
	msg := []byte("wire")
	cert, err := info.CombineVerified(signAll(sks, msg))
	if err != nil {
		t.Fatal(err)
	}
	enc := cert.Encode()
	// Party N−1 signed, so the bitmap is as long as it gets.
	if want := info.CertSize(len(cert.SignerIDs())); len(enc) != want {
		t.Fatalf("encoded %d bytes, CertSize says %d", len(enc), want)
	}
	dec, err := info.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("round trip not byte-identical")
	}
	if err := info.Verify(testDomain, msg, dec); err != nil {
		t.Fatalf("decoded certificate rejected: %v", err)
	}
}

func TestBLSDecodeRejectsMalformed(t *testing.T) {
	info, sks := dealTest(t, 3, 4)
	cert, err := info.CombineVerified(signAll(sks, []byte("m")))
	if err != nil {
		t.Fatal(err)
	}
	enc := cert.Encode()
	cases := map[string][]byte{
		"empty":            nil,
		"tag only":         {byte(SchemeBLS)},
		"truncated point":  enc[:len(enc)-1],
		"trailing byte":    append(append([]byte{}, enc...), 0),
		"oversized bitmap": append([]byte{byte(SchemeBLS), 0xff, 0xff}, enc[3:]...),
		"padding bits set": paddingTamper(enc),
		"point off curve":  pointTamper(enc),
		"multisig tag":     append([]byte{byte(SchemeMultisig)}, enc[1:]...),
		"unregistered tag": append([]byte{0x7f}, enc[1:]...),
	}
	for name, b := range cases {
		_, err := info.Decode(b)
		if err == nil {
			t.Fatalf("%s: malformed certificate accepted", name)
		}
		if !errors.Is(err, crypto.ErrBadAggregate) {
			t.Fatalf("%s: error %v does not wrap crypto.ErrBadAggregate", name, err)
		}
	}
}

// paddingTamper sets a bitmap bit beyond nbits.
func paddingTamper(enc []byte) []byte {
	out := append([]byte{}, enc...)
	nbits := int(out[1])<<8 | int(out[2])
	if nbits%8 == 0 {
		// No padding bits in this width; shrink nbits by one so the last
		// set bit lands in padding.
		nbits--
		out[1], out[2] = byte(nbits>>8), byte(nbits)
	}
	bitmapStart := 3
	out[bitmapStart+(nbits+7)/8-1] |= 1 << 7
	return out
}

// pointTamper corrupts the aggregate point coordinates.
func pointTamper(enc []byte) []byte {
	out := append([]byte{}, enc...)
	out[len(out)-1] ^= 0x01
	return out
}

func TestBLSCrossSchemeVerifyRejected(t *testing.T) {
	info, sks := dealTest(t, 2, 3)
	cert, err := info.CombineVerified(signAll(sks, []byte("m")))
	if err != nil {
		t.Fatal(err)
	}
	// A certificate handed to a scheme it was not produced by must fail
	// with the typed sentinel, never panic — including typed nils.
	if err := info.Verify(testDomain, []byte("m"), fakeCert{}); !errors.Is(err, crypto.ErrBadAggregate) {
		t.Fatalf("foreign certificate: %v", err)
	}
	if err := info.Verify(testDomain, []byte("m"), (*BLSCertificate)(nil)); !errors.Is(err, crypto.ErrBadAggregate) {
		t.Fatalf("typed-nil certificate: %v", err)
	}
	if err := info.Verify(testDomain, []byte("m"), nil); !errors.Is(err, crypto.ErrBadAggregate) {
		t.Fatalf("nil certificate: %v", err)
	}
	_ = cert
}

type fakeCert struct{}

func (fakeCert) Scheme() SchemeID { return SchemeID(99) }
func (fakeCert) SignerIDs() []int { return nil }
func (fakeCert) Encode() []byte   { return []byte{99} }

// TestBLSConcurrentCombineVerify exercises concurrent relay-side use of
// one shared BLSInfo — the shape the gossip layer and the pool produce
// under -race: many goroutines combining overlapping share sets and
// verifying the results simultaneously.
func TestBLSConcurrentCombineVerify(t *testing.T) {
	info, sks := dealTest(t, 3, 4)
	msg := []byte("race")
	shares := signAll(sks, msg)
	ref, err := info.CombineVerified(shares)
	if err != nil {
		t.Fatal(err)
	}
	refEnc := ref.Encode()
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for w := 0; w < 8; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				subset := shares[w%2:] // overlapping share windows
				cert, err := info.CombineVerified(subset)
				if err != nil {
					errs <- err
					return
				}
				dec, err := info.Decode(cert.Encode())
				if err != nil {
					errs <- err
					return
				}
				if len(dec.SignerIDs()) < info.Quorum() {
					errs <- errors.New("undersized certificate")
					return
				}
				_ = refEnc
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// FuzzCertDecode round-trips arbitrary bytes through both schemes'
// decoders: no input may panic, and anything that decodes must re-encode
// to a frame the same decoder accepts with identical signer sets.
func FuzzCertDecode(f *testing.F) {
	info, sks := dealTest(f, 2, 3)
	cert, err := info.CombineVerified(signAll(sks, []byte("seed")))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(cert.Encode())
	f.Add([]byte{byte(SchemeMultisig), 0, 1})
	f.Add([]byte{byte(SchemeBLS), 0, 3, 0x07})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, b []byte) {
		if dec, err := info.Decode(b); err == nil {
			enc := dec.Encode()
			dec2, err := info.Decode(enc)
			if err != nil {
				t.Fatalf("re-decode failed: %v", err)
			}
			a, bIDs := dec.SignerIDs(), dec2.SignerIDs()
			if len(a) != len(bIDs) {
				t.Fatal("signer set changed across round trip")
			}
			for i := range a {
				if a[i] != bIDs[i] {
					t.Fatal("signer set changed across round trip")
				}
			}
		}
	})
}

// Scheme-comparison micro-benchmarks, mirroring the multisig package's
// Combine13/Verify13 shapes (quorum 9 of n=13): `make bench` runs both
// so the BLS-vs-multisig sign/combine/verify costs land side by side.

func BenchmarkBLSSign13(b *testing.B) {
	_, sks := dealTest(b, 9, 13)
	msg := []byte("bench")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sks[i%len(sks)].Sign(testDomain, msg)
	}
}

func BenchmarkBLSCombine13(b *testing.B) {
	info, sks := dealTest(b, 9, 13)
	msg := []byte("bench")
	shares := signAll(sks, msg)[:9]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := info.CombineVerified(shares); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkBLSVerifyAggregate13(b *testing.B) {
	info, sks := dealTest(b, 9, 13)
	msg := []byte("bench")
	cert, err := info.CombineVerified(signAll(sks, msg))
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := info.Verify(testDomain, msg, cert); err != nil {
			b.Fatal(err)
		}
	}
}
