package beacon

import (
	"crypto/rand"
	"testing"
	"testing/quick"

	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/types"
)

// cluster builds one Beacon per party sharing the same key material.
func cluster(t testing.TB, n int) []*Beacon {
	t.Helper()
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	bs := make([]*Beacon, n)
	for i := 0; i < n; i++ {
		bs[i] = New(pub.Beacon, privs[i].Beacon, types.PartyID(i), pub.GenesisSeed)
	}
	return bs
}

// advance pushes every party's share for round k to every other party and
// reveals R_k everywhere.
func advance[B Source](t testing.TB, bs []B, k types.Round) {
	t.Helper()
	shares := make([]*types.BeaconShare, len(bs))
	for i, b := range bs {
		s, err := b.ShareForRound(k)
		if err != nil {
			t.Fatalf("party %d share for round %d: %v", i, k, err)
		}
		shares[i] = s
	}
	for _, b := range bs {
		for _, s := range shares {
			if _, err := b.AddShare(s); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := b.Reveal(k); !ok {
			t.Fatalf("reveal round %d failed", k)
		}
	}
}

func TestRevealSurvivesCorruptShares(t *testing.T) {
	bs := cluster(t, 4) // t=1, quorum=2
	b := bs[3]
	// A garbage share from a corrupt party must not block revelation.
	garbage := &types.BeaconShare{Round: 1, Signer: 0, Share: make([]byte, 50)}
	if _, err := b.AddShare(garbage); err == nil {
		t.Fatal("malformed share accepted")
	}
	// A well-formed share signed with the wrong key is caught at Combine.
	wrongKey, err := bs[1].ShareForRound(1)
	if err != nil {
		t.Fatal(err)
	}
	wrongKey.Signer = 0 // claim to be party 0
	if _, err := b.AddShare(wrongKey); err != nil {
		t.Fatal(err) // structurally fine, accepted...
	}
	s1, _ := bs[1].ShareForRound(1)
	s2, _ := bs[2].ShareForRound(1)
	if _, err := b.AddShare(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddShare(s2); err != nil {
		t.Fatal(err)
	}
	d, ok := b.Reveal(1)
	if !ok {
		t.Fatal("reveal failed despite 2 honest shares")
	}
	// ...but the revealed value matches an all-honest computation.
	advance(t, bs[:3], 1)
	want, _ := bs[0].Digest(1)
	if d != want {
		t.Fatal("corrupt share changed the beacon value")
	}
}

func TestLateVerification(t *testing.T) {
	// A lagging party receives round-2 shares before it can verify them
	// (it lacks R_1); once it reveals R_1 the round-2 shares work.
	bs := cluster(t, 4)
	lag := bs[3]
	advance(t, bs[:3], 1)
	var round2 []*types.BeaconShare
	for _, b := range bs[:3] {
		s, err := b.ShareForRound(2)
		if err != nil {
			t.Fatal(err)
		}
		round2 = append(round2, s)
	}
	for _, s := range round2 {
		if _, err := lag.AddShare(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := lag.Reveal(2); ok {
		t.Fatal("revealed R_2 without R_1")
	}
	// Now deliver round-1 shares.
	for _, b := range bs[:3] {
		s, err := b.ShareForRound(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := lag.AddShare(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := lag.Reveal(1); !ok {
		t.Fatal("reveal R_1 failed")
	}
	d2, ok := lag.Reveal(2)
	if !ok {
		t.Fatal("reveal R_2 failed after catching up")
	}
	advance(t, bs[:3], 2)
	want, ok := bs[0].Digest(2)
	if !ok {
		t.Fatal("reference party has no R_2")
	}
	if d2 != want {
		t.Fatal("lagging party derived different R_2")
	}
}

func TestPermutationConsistency(t *testing.T) {
	bs := cluster(t, 7)
	advance(t, bs, 1)
	p0, ok := bs[0].Permutation(1)
	if !ok {
		t.Fatal("no permutation")
	}
	for i, b := range bs {
		p, ok := b.Permutation(1)
		if !ok {
			t.Fatalf("party %d has no permutation", i)
		}
		for r := range p {
			if p[r] != p0[r] {
				t.Fatalf("party %d permutation differs at rank %d", i, r)
			}
		}
	}
	leader, ok := bs[0].Leader(1)
	if !ok || leader != p0[0] {
		t.Fatal("leader mismatch")
	}
	r, ok := bs[0].RankOf(1, leader)
	if !ok || r != 0 {
		t.Fatal("leader rank != 0")
	}
}

func TestPermutationFromDigestIsBijective(t *testing.T) {
	f := func(seed [32]byte, nRaw uint8) bool {
		n := int(nRaw%40) + 1
		p := PermutationFromDigest(hash.Digest(seed), n)
		if len(p) != n {
			return false
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || int(v) >= n || seen[v] {
				return false
			}
			seen[v] = true
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPermutationsVaryAcrossRounds(t *testing.T) {
	bs := cluster(t, 13)
	same := 0
	const rounds = 10
	for k := types.Round(1); k <= rounds; k++ {
		advance(t, bs, k)
	}
	for k := types.Round(1); k < rounds; k++ {
		a, _ := bs[0].Permutation(k)
		b, _ := bs[0].Permutation(k + 1)
		identical := true
		for i := range a {
			if a[i] != b[i] {
				identical = false
				break
			}
		}
		if identical {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("%d consecutive rounds had identical permutations of 13 parties", same)
	}
}

func TestLeaderDistributionRoughlyUniform(t *testing.T) {
	// Over many independent digests, each of n parties should lead
	// roughly 1/n of the time.
	const n, trials = 5, 5000
	counts := make([]int, n)
	for i := 0; i < trials; i++ {
		d := hash.SumUint64(hash.DomainRanking, uint64(i))
		p := PermutationFromDigest(d, n)
		counts[p[0]]++
	}
	want := trials / n
	for i, c := range counts {
		if c < want*7/10 || c > want*13/10 {
			t.Fatalf("party %d led %d times, expected ≈%d", i, c, want)
		}
	}
}
