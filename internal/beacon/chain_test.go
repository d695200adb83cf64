package beacon

import (
	"crypto/rand"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"io"
	"strings"
	"testing"

	"icc/internal/crypto/bls"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/types"
)

// backend is one of the package's three constructors. The tests below run
// once per backend: what they check is the chain's, whatever the scheme.
type backend struct {
	name string
	// slow marks pairing arithmetic: tests that verify a share under it
	// are skipped with -short.
	slow bool
	// n is the cluster size the contract test uses.
	n    int
	deal func(t testing.TB, rng io.Reader, n int) []Source
}

var backends = []backend{
	{name: "dleq", n: 7, deal: func(t testing.TB, rng io.Reader, n int) []Source {
		pub, privs, err := keys.Deal(rng, n)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Source, n)
		for i := range out {
			out[i] = New(pub.Beacon, privs[i].Beacon, types.PartyID(i), pub.GenesisSeed)
		}
		return out
	}},
	{name: "bls", slow: true, n: 4, deal: func(t testing.TB, rng io.Reader, n int) []Source {
		pub, sks, err := bls.DealThreshold(rng, types.BeaconQuorum(n), n)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]Source, n)
		for i := range out {
			out[i] = NewBLS(pub, sks[i], types.PartyID(i), []byte("genesis"))
		}
		return out
	}},
	{name: "simulated", n: 7, deal: func(t testing.TB, _ io.Reader, n int) []Source {
		out := make([]Source, n)
		for i := range out {
			out[i] = NewSimulated(n, types.PartyID(i), []byte("genesis"))
		}
		return out
	}},
}

// TestOutputCapability: *BLS and *Simulated export their round value
// (source.go asserts it at compile time), *Beacon must not — the harness
// and the gossip overlay decide by this type assertion whether a round is
// relayed as one output or as t+1 shares.
func TestOutputCapability(t *testing.T) {
	for _, be := range backends {
		_, ok := be.deal(t, rand.Reader, 4)[0].(OutputSource)
		if want := be.name != "dleq"; ok != want {
			t.Errorf("%s: OutputSource = %v, want %v", be.name, ok, want)
		}
	}
}

// TestSourceContract walks one party of each backend through the Source
// contract the engine, the write-ahead log and the catch-up path rely on.
func TestSourceContract(t *testing.T) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			ps := be.deal(t, rand.Reader, be.n)
			quorum := types.BeaconQuorum(be.n)
			p := ps[be.n-1]
			share := func(i int, k types.Round) *types.BeaconShare {
				t.Helper()
				s, err := ps[i].ShareForRound(k)
				if err != nil {
					t.Fatalf("party %d share for round %d: %v", i, k, err)
				}
				return s
			}
			good := share(0, 1)

			// Refused at the door, before any cryptography.
			for what, bad := range map[string]*types.BeaconShare{
				"signer past n":   {Round: 1, Signer: types.PartyID(be.n), Share: good.Share},
				"negative signer": {Round: 1, Signer: -1, Share: good.Share},
				"malformed bytes": {Round: 1, Signer: 1, Share: []byte{1, 2, 3}},
			} {
				if added, err := p.AddShare(bad); added || err == nil {
					t.Fatalf("%s: added=%v err=%v", what, added, err)
				}
			}
			// Nothing signs R_0, and every backend says so in the same words.
			_, err := p.AddShare(&types.BeaconShare{Round: 0, Signer: 1, Share: good.Share})
			if err == nil || !strings.Contains(err.Error(), "genesis round") {
				t.Fatalf("AddShare for round 0: %v", err)
			}
			if _, err := p.ShareForRound(0); err == nil || !strings.Contains(err.Error(), "genesis round") {
				t.Fatalf("ShareForRound(0): %v", err)
			}
			// The round-k message chains to R_{k−1}.
			if _, err := p.ShareForRound(2); err == nil || !strings.Contains(err.Error(), "R_1 not yet known") {
				t.Fatalf("signed a round-2 share without R_1: %v", err)
			}
			if _, ok := p.CachedShareForRound(1); ok {
				t.Fatal("cache hit before any signing")
			}
			own := share(be.n-1, 1)
			if c, ok := p.CachedShareForRound(1); !ok || c.Round != 1 || c.Signer != own.Signer || string(c.Share) != string(own.Share) {
				t.Fatal("cached share differs from the signed one")
			}
			if be.slow && testing.Short() {
				t.Skip("pairings are slow; the rest skipped with -short")
			}

			// Reveal only at t+1 distinct shares; a duplicate is not one.
			for i := 0; i < quorum-1; i++ {
				if added, err := p.AddShare(share(i, 1)); !added || err != nil {
					t.Fatalf("share %d: added=%v err=%v", i, added, err)
				}
			}
			if added, err := p.AddShare(share(0, 1)); added || err != nil {
				t.Fatalf("duplicate share: added=%v err=%v, want false, nil", added, err)
			}
			if got := p.ShareCount(1); got != quorum-1 {
				t.Fatalf("ShareCount = %d, want %d", got, quorum-1)
			}
			if _, ok := p.Reveal(1); ok || p.Have(1) {
				t.Fatalf("revealed with %d of %d required shares", quorum-1, quorum)
			}
			if _, err := p.AddShare(share(quorum-1, 1)); err != nil {
				t.Fatal(err)
			}
			d1, ok := p.Reveal(1)
			if !ok || !p.Have(1) {
				t.Fatal("failed to reveal with exactly t+1 shares")
			}
			if _, err := p.ShareForRound(2); err != nil {
				t.Fatalf("cannot sign round-2 share after R_1: %v", err)
			}

			// InstallDigest fills a gap and never overwrites.
			other := hash.SumUint64(hash.DomainBeacon, 99)
			p.InstallDigest(1, other)
			if d, _ := p.Digest(1); d != d1 {
				t.Fatal("InstallDigest overwrote a known digest")
			}
			p.InstallDigest(7, other)
			if d, ok := p.Digest(7); !ok || d != other {
				t.Fatal("InstallDigest did not install")
			}
			if _, err := p.ShareForRound(8); err != nil {
				t.Fatalf("cannot sign on an installed digest: %v", err)
			}

			// Prune drops shares, keeps digests (they chain) and raises the
			// watermark below which own shares are refused, not re-signed.
			p.Prune(2)
			if p.ShareCount(1) != 0 {
				t.Fatal("prune left old shares")
			}
			if d, ok := p.Digest(1); !ok || d != d1 {
				t.Fatal("prune removed a digest")
			}
			if _, err := p.ShareForRound(1); !errors.Is(err, ErrPruned) {
				t.Fatalf("share below watermark: got %v, want ErrPruned", err)
			}
			if _, ok := p.CachedShareForRound(1); ok {
				t.Fatal("cache hit below prune watermark")
			}
			if _, ok := p.CachedShareForRound(2); !ok {
				t.Fatal("prune dropped the share at the watermark")
			}
			if _, err := p.ShareForRound(2); err != nil {
				t.Fatalf("share at watermark: %v", err)
			}
		})
	}
}

// TestSigningWhileTheEngineRuns: node.New hands one beacon to the engine
// loop and to the backfill worker, which signs catch-up shares off that
// loop. Run with -race. The signer goroutine really signs (rounds 2…9 on
// installed digests, nothing cached beforehand); the other one does what
// the engine does meanwhile. No share is verified: every round stays one
// short of t+1, so the test costs the same under every scheme.
func TestSigningWhileTheEngineRuns(t *testing.T) {
	const rounds = 8
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			ps := be.deal(t, rand.Reader, 4)
			p := ps[3]
			peer, err := ps[0].ShareForRound(1)
			if err != nil {
				t.Fatal(err)
			}
			for k := types.Round(1); k <= rounds; k++ {
				p.InstallDigest(k, hash.SumUint64(hash.DomainBeacon, uint64(k)))
			}
			signed := make(chan error, 1)
			go func() {
				for i := 0; i < 3*rounds; i++ {
					k := types.Round(i%rounds + 2)
					if _, err := p.ShareForRound(k); err != nil && !errors.Is(err, ErrPruned) {
						signed <- err
						return
					}
					p.CachedShareForRound(k)
					p.Have(k)
					p.ShareCount(k)
					p.Leader(k - 1)
					p.RankOf(k-1, 2)
				}
				signed <- nil
			}()
			for i := 0; i < 3*rounds; i++ {
				k := types.Round(i%rounds + 2)
				// Party 0's round-1 share under another round number: well
				// formed, and never looked at more closely than that.
				if _, err := p.AddShare(&types.BeaconShare{Round: k, Signer: 0, Share: peer.Share}); err != nil {
					t.Fatal(err)
				}
				if _, ok := p.Reveal(k - 1); !ok {
					t.Fatalf("R_%d was installed", k-1)
				}
				if _, ok := p.Reveal(rounds + 1); ok {
					t.Fatal("revealed with one share of two")
				}
				p.Permutation(k - 1)
				p.Digest(k)
				if i%rounds == rounds-1 {
					p.Prune(types.Round(i/rounds + 2))
				}
			}
			if err := <-signed; err != nil {
				t.Fatal(err)
			}
		})
	}
}

// seededReader is a sha256-counter byte stream: bench/cluster.go (dealSeed)
// and harness.Options.KeyRand deal their keys from the same construction.
type seededReader struct {
	seed, ctr uint64
	buf       []byte
}

func (r *seededReader) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		if len(r.buf) == 0 {
			var block [16]byte
			binary.LittleEndian.PutUint64(block[:8], r.seed)
			binary.LittleEndian.PutUint64(block[8:], r.ctr)
			r.ctr++
			sum := sha256.Sum256(block[:])
			r.buf = sum[:]
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return len(p), nil
}

// goldenSchedule is H(R_k) and Leader(k) for k = 1, 2, …, n = 4, keys
// dealt from seededReader{seed: 1}, recorded at the commit before the
// three backends became one chain. The bench's latency numbers (how long a
// command waits for its own replica to lead) and the campaign's
// byte-identical replays both rest on this schedule not moving.
var goldenSchedule = map[string][]struct {
	digest string
	leader types.PartyID
}{
	"dleq": {
		{"225e26fb47c8eedd34df3be4f443644cea015ff7a6ba85afd6f89ce9edb078c9", 0},
		{"08941259e8e81166046148dbca0719417aa0b83c48d01a6ccde537eac3efb517", 3},
		{"2cbc0c4004a040492c88380f91105624c12f5b282b9a3fe97c74bb4912aebdc7", 0},
		{"95e21a496c95d1aaf7650b971f28dc24f2c618c279186231ca374cce175678c5", 3},
		{"54f8e612a2343615bdcc735f5c18ac6446a40d79d1953b98578f68c009b45b17", 0},
		{"2fe87086eec565b8893faad1925f52124f2ecac4740b905342698a8ef2ddded6", 3},
		{"884163b8403290c5ab0c41f2a8c98e779240e11e9ca2f4093f7c79f130b61e1a", 1},
		{"6a217bf7cab370a63e5d3363a1e066dee4179171a9c7b0b9930cd095b171ee58", 3},
	},
	"bls": {
		{"86563327b2cf2d6f9975d6453745f603ade4e01630fb9e0ae15a710a42af0ec9", 1},
		{"a8678293e1ed19289dbfd198f983b3c3ba3371cd11907cbee82c4fe591d8bbad", 1},
	},
	"simulated": {
		{"27b51b1bb6fe1c0468841fab671287e2c08471e17bbce28a1e99d829750871b5", 1},
		{"c65c2cf3026996437e467bfd339b678db116d94d80e0f117ce2b4a2461ac4ffc", 1},
		{"8d9846405ca8de3ff66f2bd7a0071f27d3e85dd9908f19d17921670675970a2b", 3},
		{"8fc46eea2b3d5ca4371cd7ec8b2624e0220eea1a496d66cbd078f9b6a8a4ec1d", 3},
		{"e3fd6dfb3a5a3fce9a95625b5ff4c8f399710e3f857da04049c6f8ddc683465e", 3},
		{"f38e0887541e3cb5c6506aa951b091a9f64fc5711de8a7f38e645ac86442d647", 3},
		{"5824bd49a7b4da668710d92a948bb217391af35d88da7bcf62b5c34745eb20bc", 3},
		{"3c6254ea1309628bd8a1428481d9dc9ba5acd859846f9e2d131e500528f5f0ed", 1},
	},
}

// TestGoldenLeaderSchedule: from fixed keys every party of every backend
// derives the same chain of digests and rankings, and it is the recorded
// one.
func TestGoldenLeaderSchedule(t *testing.T) {
	for _, be := range backends {
		t.Run(be.name, func(t *testing.T) {
			if be.slow && testing.Short() {
				t.Skip("pairings are slow; skipped with -short")
			}
			want := goldenSchedule[be.name]
			ps := be.deal(t, &seededReader{seed: 1}, 4)
			rounds := 8
			if be.slow {
				rounds = 2
			}
			for k := types.Round(1); k <= types.Round(rounds); k++ {
				advance(t, ps, k)
				d, _ := ps[0].Digest(k)
				perm, _ := ps[0].Permutation(k)
				for i, p := range ps[1:] {
					di, _ := p.Digest(k)
					pi, _ := p.Permutation(k)
					if di != d || len(pi) != len(perm) {
						t.Fatalf("party %d disagrees on R_%d", i+1, k)
					}
					for r := range pi {
						if pi[r] != perm[r] {
							t.Fatalf("party %d ranks round %d differently at rank %d", i+1, k, r)
						}
					}
				}
				leader, _ := ps[0].Leader(k)
				got := hex.EncodeToString(d[:])
				if int(k) > len(want) || got != want[k-1].digest || leader != want[k-1].leader {
					t.Errorf("R_%d: {%q, %d} is not the recorded value", k, got, leader)
				}
			}
		})
	}
}
