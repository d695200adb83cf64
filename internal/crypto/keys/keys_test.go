package keys

import (
	"bytes"
	"crypto/rand"
	"encoding/json"
	"testing"

	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/thresig"
	"icc/internal/types"
)

func TestDealShapes(t *testing.T) {
	pub, privs, err := Deal(rand.Reader, 7)
	if err != nil {
		t.Fatal(err)
	}
	if pub.N != 7 || pub.T != 2 {
		t.Fatalf("n=%d t=%d, want 7, 2", pub.N, pub.T)
	}
	if len(pub.Auth) != 7 || len(privs) != 7 {
		t.Fatal("key slices wrong length")
	}
	if pub.Notary.Quorum() != 5 || pub.Final.Quorum() != 5 {
		t.Fatalf("notary/final thresholds %d/%d, want 5", pub.Notary.Quorum(), pub.Final.Quorum())
	}
	if pub.Beacon.Threshold != 3 {
		t.Fatalf("beacon threshold %d, want 3", pub.Beacon.Threshold)
	}
	if len(pub.GenesisSeed) == 0 {
		t.Fatal("missing genesis seed")
	}
}

func TestDealRejectsBadN(t *testing.T) {
	if _, _, err := Deal(rand.Reader, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func TestKeysAreUsable(t *testing.T) {
	pub, privs, err := Deal(rand.Reader, 4)
	if err != nil {
		t.Fatal(err)
	}
	msg := []byte("hello")
	// Auth.
	s := privs[2].Notary.Sign(types.DomainNotarization, msg)
	if err := pub.Notary.VerifyShare(types.DomainNotarization, msg, s); err != nil {
		t.Fatalf("notary share: %v", err)
	}
	// Beacon: all four shares sign, any 2 combine to same signature.
	shares := make([]*thresig.SigShare, 4)
	for i := range shares {
		shares[i], err = pub.Beacon.Sign(rand.Reader, privs[i].Beacon, msg)
		if err != nil {
			t.Fatal(err)
		}
		if err := pub.Beacon.VerifyShare(msg, shares[i]); err != nil {
			t.Fatalf("beacon share %d: %v", i, err)
		}
	}
	s1, err := pub.Beacon.Combine(msg, shares[:2])
	if err != nil {
		t.Fatal(err)
	}
	s2, err := pub.Beacon.Combine(msg, shares[2:])
	if err != nil {
		t.Fatal(err)
	}
	if !s1.Point.Equal(s2.Point) {
		t.Fatal("beacon signature not unique")
	}
}

func TestDealBLSScheme(t *testing.T) {
	pub, privs, err := DealScheme(rand.Reader, 4, aggsig.SchemeBLS)
	if err != nil {
		t.Fatal(err)
	}
	if pub.CertScheme() != aggsig.SchemeBLS {
		t.Fatalf("cert scheme %s, want bls", pub.CertScheme())
	}
	if pub.Notary.Quorum() != types.NotaryQuorum(4) || pub.Final.Quorum() != types.NotaryQuorum(4) {
		t.Fatal("wrong BLS quorums")
	}
	// A full sign→combine→verify cycle across the two instances: shares
	// from one instance must not combine under the other (independent
	// keys), and the checkpoint sub-quorum view must verify too.
	msg := []byte("bls deal")
	shares := make([]*aggsig.Share, 3)
	for i := 0; i < 3; i++ {
		shares[i] = privs[i].Notary.Sign(types.DomainNotarization, msg)
	}
	cert, err := pub.Notary.CombineVerified(shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Notary.Verify(types.DomainNotarization, msg, cert); err != nil {
		t.Fatalf("notary certificate rejected: %v", err)
	}
	if err := pub.Final.Verify(types.DomainNotarization, msg, cert); err == nil {
		t.Fatal("notary certificate verified under the finalization instance")
	}
}

func TestJSONRoundTripBLS(t *testing.T) {
	pub, privs, err := DealScheme(rand.Reader, 4, aggsig.SchemeBLS)
	if err != nil {
		t.Fatal(err)
	}
	pubRaw, err := json.Marshal(pub)
	if err != nil {
		t.Fatal(err)
	}
	var pub2 Public
	if err := json.Unmarshal(pubRaw, &pub2); err != nil {
		t.Fatal(err)
	}
	if pub2.CertScheme() != aggsig.SchemeBLS {
		t.Fatalf("decoded cert scheme %s, want bls", pub2.CertScheme())
	}
	privRaw, err := json.Marshal(&privs[1])
	if err != nil {
		t.Fatal(err)
	}
	var priv2 Private
	if err := json.Unmarshal(privRaw, &priv2); err != nil {
		t.Fatal(err)
	}
	// Decoded secret + original public and vice versa must interoperate:
	// certificates combined from round-tripped shares verify under the
	// round-tripped public info.
	msg := []byte("bls round trip")
	shares := []*aggsig.Share{
		privs[0].Notary.Sign(types.DomainNotarization, msg),
		priv2.Notary.Sign(types.DomainNotarization, msg),
		privs[2].Notary.Sign(types.DomainNotarization, msg),
	}
	cert, err := pub2.Notary.CombineVerified(shares)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Notary.Verify(types.DomainNotarization, msg, cert); err != nil {
		t.Fatalf("round-tripped BLS material unusable: %v", err)
	}
	enc := cert.Encode()
	dec, err := pub2.Notary.Decode(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dec.Encode(), enc) {
		t.Fatal("certificate codec not stable across JSON round trip")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	pub, privs, err := Deal(rand.Reader, 4)
	if err != nil {
		t.Fatal(err)
	}
	pubRaw, err := json.Marshal(pub)
	if err != nil {
		t.Fatal(err)
	}
	var pub2 Public
	if err := json.Unmarshal(pubRaw, &pub2); err != nil {
		t.Fatal(err)
	}
	privRaw, err := json.Marshal(&privs[1])
	if err != nil {
		t.Fatal(err)
	}
	var priv2 Private
	if err := json.Unmarshal(privRaw, &priv2); err != nil {
		t.Fatal(err)
	}
	// The round-tripped material must interoperate with the original:
	// a beacon share signed with the decoded secret must verify under the
	// original public info, and vice versa.
	msg := []byte("round trip")
	share, err := pub2.Beacon.Sign(rand.Reader, priv2.Beacon, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Beacon.VerifyShare(msg, share); err != nil {
		t.Fatalf("decoded private key unusable: %v", err)
	}
	origShare, err := pub.Beacon.Sign(rand.Reader, privs[0].Beacon, msg)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub2.Beacon.VerifyShare(msg, origShare); err != nil {
		t.Fatalf("decoded public info unusable: %v", err)
	}
	// Multisig keys interoperate too.
	ms := priv2.Notary.Sign(types.DomainNotarization, msg)
	if err := pub2.Notary.VerifyShare(types.DomainNotarization, msg, ms); err != nil {
		t.Fatalf("decoded notary material unusable: %v", err)
	}
	if pub2.N != pub.N || pub2.T != pub.T {
		t.Fatal("parameters lost in round trip")
	}
}
