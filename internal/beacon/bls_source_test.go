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

func TestBLSBeaconAgreesAcrossParties(t *testing.T) {
	if testing.Short() {
		t.Skip("pairings are slow; skipped with -short")
	}
	bs := blsCluster(t, 4)
	for k := types.Round(1); k <= 2; k++ {
		shares := make([]*types.BeaconShare, len(bs))
		for i, b := range bs {
			s, err := b.ShareForRound(k)
			if err != nil {
				t.Fatal(err)
			}
			shares[i] = s
		}
		var ref [32]byte
		for i, b := range bs {
			for _, s := range shares {
				if _, err := b.AddShare(s); err != nil {
					t.Fatal(err)
				}
			}
			d, ok := b.Reveal(k)
			if !ok {
				t.Fatalf("party %d failed to reveal round %d", i, k)
			}
			if i == 0 {
				ref = d
			} else if d != ref {
				t.Fatalf("party %d disagrees on R_%d", i, k)
			}
		}
	}
	// Permutations agree too.
	p0, _ := bs[0].Permutation(1)
	p1, _ := bs[1].Permutation(1)
	for i := range p0 {
		if p0[i] != p1[i] {
			t.Fatal("permutation mismatch")
		}
	}
}

func TestBLSBeaconRejectsGarbageShares(t *testing.T) {
	bs := blsCluster(t, 4)
	if _, err := bs[0].AddShare(&types.BeaconShare{Round: 1, Signer: 1, Share: []byte{1, 2, 3}}); err == nil {
		t.Fatal("malformed share accepted")
	}
	if _, err := bs[0].AddShare(&types.BeaconShare{Round: 0, Signer: 1, Share: make([]byte, 96)}); err == nil {
		t.Fatal("genesis-round share accepted")
	}
	if _, err := bs[0].AddShare(&types.BeaconShare{Round: 1, Signer: 9, Share: make([]byte, 96)}); err == nil {
		t.Fatal("out-of-range signer accepted")
	}
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
