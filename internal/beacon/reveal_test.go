package beacon

import (
	"crypto/rand"
	"errors"
	"testing"

	"icc/internal/crypto"
	"icc/internal/crypto/ec"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/types"
)

// TestRevealJudgesEachShareOnce is the regression test for Reveal's
// "invalid shares are discarded" promise: a forged but decodable share
// from the lowest-index party used to stay in the round's share set and be
// re-verified, with every other share, by every later Reveal.
func TestRevealJudgesEachShareOnce(t *testing.T) {
	bs := cluster(t, 4) // t=1, quorum=2
	b := bs[3]
	share := func(p int) *types.BeaconShare {
		s, err := bs[p].ShareForRound(1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	mustAdd := func(s *types.BeaconShare) {
		t.Helper()
		if added, err := b.AddShare(s); !added || err != nil {
			t.Fatalf("share of signer %d: added=%v err=%v", s.Signer, added, err)
		}
	}
	forged := share(1)
	forged.Signer = 0 // party 1's share relabelled: decodable, wrong key
	mustAdd(forged)
	mustAdd(share(1))

	// Two shares held, one of them bad: both are judged, the reveal fails.
	if _, ok := b.Reveal(1); ok {
		t.Fatal("revealed with one valid share of two needed")
	}
	if got := b.shares.verifies; got != 2 {
		t.Fatalf("first Reveal verified %d shares, want 2", got)
	}
	if got := b.ShareCount(1); got != 1 {
		t.Fatalf("ShareCount = %d after the forged share failed, want 1", got)
	}
	// Polling again costs nothing: the bad share is gone, the good one has
	// its verdict.
	for i := 0; i < 3; i++ {
		if _, ok := b.Reveal(1); ok {
			t.Fatal("revealed with one valid share of two needed")
		}
	}
	if got := b.shares.verifies; got != 2 {
		t.Fatalf("idle Reveals verified again: %d verifications, want 2", got)
	}
	// The signer of the failed share is ignored for the round.
	if added, err := b.AddShare(share(0)); added || err == nil {
		t.Fatalf("share of a rejected signer: added=%v err=%v", added, err)
	}
	// One more valid share is t+1: Reveal succeeds at once, verifying only
	// the newcomer.
	mustAdd(share(2))
	d, ok := b.Reveal(1)
	if !ok {
		t.Fatal("reveal failed with t+1 valid shares held")
	}
	if got := b.shares.verifies; got != 3 {
		t.Fatalf("%d verifications for 3 distinct shares, want 3", got)
	}
	advance(t, bs[:3], 1)
	if want, _ := bs[0].Digest(1); d != want {
		t.Fatal("forged share changed the beacon value")
	}
}

// TestAddShareDropsIdentityShare: a share whose point is the group
// identity is malformed, not a candidate — it never enters the ledger, so
// no Reveal spends a verification on it and its signer is not barred from
// sending a real share afterwards.
func TestAddShareDropsIdentityShare(t *testing.T) {
	bs := cluster(t, 4)
	b := bs[3]
	honest, err := bs[0].ShareForRound(1)
	if err != nil {
		t.Fatal(err)
	}
	hostile := &types.BeaconShare{Round: 1, Signer: 0, Share: append([]byte(nil), honest.Share...)}
	copy(hostile.Share, make([]byte, ec.PointLen))
	if added, err := b.AddShare(hostile); added || !errors.Is(err, crypto.ErrBadShare) {
		t.Fatalf("identity share: added=%v err=%v, want a malformed-share error", added, err)
	}
	if got := b.ShareCount(1); got != 0 {
		t.Fatalf("ShareCount = %d after an identity share, want 0", got)
	}
	if _, ok := b.Reveal(1); ok || b.shares.verifies != 0 {
		t.Fatalf("Reveal ok=%v after %d verifications, want none of either", ok, b.shares.verifies)
	}
	if added, err := b.AddShare(honest); !added || err != nil {
		t.Fatalf("honest share after the hostile one: added=%v err=%v", added, err)
	}
}

// TestRevealTrustsOwnShare: the party's own share, as it signed it, is
// combined without verification; the same bytes under another signer's
// name, or a different share under its own name, are not.
func TestRevealTrustsOwnShare(t *testing.T) {
	bs := cluster(t, 4)
	b := bs[3]
	own, err := b.ShareForRound(1)
	if err != nil {
		t.Fatal(err)
	}
	other, err := bs[0].ShareForRound(1)
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []*types.BeaconShare{own, other} {
		if _, err := b.AddShare(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := b.Reveal(1); !ok {
		t.Fatal("reveal failed")
	}
	if got := b.shares.verifies; got != 1 {
		t.Fatalf("%d verifications, want 1 (own share trusted)", got)
	}

	// Not the cached bytes: no trust.
	c := bs[2]
	if _, err := c.ShareForRound(1); err != nil {
		t.Fatal(err)
	}
	imposter := *other
	imposter.Signer = 2
	if _, err := c.AddShare(&imposter); err != nil {
		t.Fatal(err)
	}
	if _, err := c.AddShare(own); err != nil {
		t.Fatal(err)
	}
	if _, ok := c.Reveal(1); ok {
		t.Fatal("revealed with a share that only carries this party's name")
	}
	if got := c.shares.verifies; got != 2 {
		t.Fatalf("%d verifications, want 2 (nothing trusted)", got)
	}
}

var sinkDigest hash.Digest

// benchmarkReveal times the Reveal that makes round 1 known at a party
// holding its own share and the other n−1, the state of a party in step
// with the cluster. Signing and admission are outside the timer.
func benchmarkReveal(b *testing.B, n int) {
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		b.Fatal(err)
	}
	self := types.PartyID(n - 1)
	others := make([]*types.BeaconShare, n-1)
	for i := range others {
		p := New(pub.Beacon, privs[i].Beacon, types.PartyID(i), pub.GenesisSeed)
		if others[i], err = p.ShareForRound(1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		// A fresh tracker each time: Reveal keeps what it computed.
		fresh := New(pub.Beacon, privs[self].Beacon, self, pub.GenesisSeed)
		own, err := fresh.ShareForRound(1)
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range append([]*types.BeaconShare{own}, others...) {
			if _, err := fresh.AddShare(s); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		d, ok := fresh.Reveal(1)
		if !ok {
			b.Fatalf("reveal failed at n=%d", n)
		}
		sinkDigest = d
	}
}

func BenchmarkReveal4of2(b *testing.B)  { benchmarkReveal(b, 4) }
func BenchmarkReveal13of5(b *testing.B) { benchmarkReveal(b, 13) }
