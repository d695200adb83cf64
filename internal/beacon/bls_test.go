package beacon

import (
	"crypto/rand"
	"testing"

	"icc/internal/crypto/bls"
	"icc/internal/types"
)

// blsCluster builds BLS-backed beacons sharing one threshold instance.
func blsCluster(t testing.TB, n int) []*BLS {
	t.Helper()
	pub, keys, err := bls.DealThreshold(rand.Reader, types.BeaconQuorum(n), n)
	if err != nil {
		t.Fatal(err)
	}
	out := make([]*BLS, n)
	for i := 0; i < n; i++ {
		out[i] = NewBLS(pub, keys[i], types.PartyID(i), []byte("genesis"))
	}
	return out
}

func TestBLSBeaconQuorumEnforced(t *testing.T) {
	if testing.Short() {
		t.Skip("pairings are slow; skipped with -short")
	}
	bs := blsCluster(t, 4) // t=1: quorum 2
	s0, err := bs[0].ShareForRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs[3].AddShare(s0); err != nil {
		t.Fatal(err)
	}
	if _, ok := bs[3].Reveal(1); ok {
		t.Fatal("revealed with 1 of 2 shares")
	}
	// A wrong-key share must not count toward the quorum.
	bad, err := bs[2].ShareForRound(1)
	if err != nil {
		t.Fatal(err)
	}
	bad.Signer = 1
	if _, err := bs[3].AddShare(bad); err != nil {
		t.Fatal(err) // structurally fine
	}
	if _, ok := bs[3].Reveal(1); ok {
		t.Fatal("revealed using a forged share")
	}
	s1, err := bs[1].ShareForRound(1)
	if err != nil {
		t.Fatal(err)
	}
	// The forged share was evicted by the failed Reveal and signer 1 is
	// ignored for the round, so its real share is refused; supply signer
	// 2's honest share instead.
	if added, err := bs[3].AddShare(s1); added || err == nil {
		t.Fatalf("share of a rejected signer: added=%v err=%v", added, err)
	}
	s2, err := bs[2].ShareForRound(1)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := bs[3].AddShare(s2); err != nil {
		t.Fatal(err)
	}
	if _, ok := bs[3].Reveal(1); !ok {
		t.Fatal("failed to reveal with two honest shares present")
	}
}
