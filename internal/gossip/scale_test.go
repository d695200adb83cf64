package gossip

import (
	"crypto/rand"
	"slices"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/crypto/multisig"
	"icc/internal/engine"
	"icc/internal/types"
)

func TestConfigValidate(t *testing.T) {
	pub4, _, err := keys.Deal(rand.Reader, 4)
	if err != nil {
		t.Fatal(err)
	}
	good := Config{Self: 0, N: 7, Fanout: 3, Seed: 1}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	bad := []Config{
		{Self: 0, N: 0, Fanout: 2},                       // empty cluster
		{Self: 7, N: 7, Fanout: 3},                       // self out of range
		{Self: -1, N: 7, Fanout: 3},                      // self negative
		{Self: 0, N: 7, Fanout: 1},                       // fanout below floor
		{Self: 0, N: 7, Fanout: 7},                       // fanout above n-1
		{Self: 0, N: 7, Fanout: 3, ShareBatchWindow: -1}, // negative window
		{Self: 0, N: 7, Fanout: 3, Aggregate: true},      // aggregation without keys
		{Self: 0, N: 7, Fanout: 3, Keys: pub4},           // keys for the wrong n
	}
	for i, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("bad config %d accepted: %+v", i, cfg)
		}
		if _, err := New(cfg, &sink{}); err == nil {
			t.Errorf("New accepted bad config %d", i)
		}
	}
	// The tiny-cluster floor: n=2 and n=3 only admit fanout n−1.
	if err := (Config{Self: 0, N: 2, Fanout: 1}).Validate(); err != nil {
		t.Errorf("n=2 fanout=1 rejected: %v", err)
	}
	if err := (Config{Self: 0, N: 3, Fanout: 2}).Validate(); err != nil {
		t.Errorf("n=3 fanout=2 rejected: %v", err)
	}
}

func TestTopologyAt100(t *testing.T) {
	const n = 100
	for _, fanout := range []int{4, 6, 10} {
		for seed := int64(0); seed < 8; seed++ {
			adj := topo(t, n, fanout, seed)
			// Symmetry and degree floor.
			for i := 0; i < n; i++ {
				if len(adj[i]) < fanout {
					t.Fatalf("fanout=%d seed=%d: party %d has degree %d", fanout, seed, i, len(adj[i]))
				}
				for _, p := range adj[i] {
					sym := false
					for _, q := range adj[p] {
						if int(q) == i {
							sym = true
							break
						}
					}
					if !sym {
						t.Fatalf("fanout=%d seed=%d: edge %d->%d not symmetric", fanout, seed, i, p)
					}
				}
			}
			// Connectivity and diameter: a ring-plus-chords overlay at
			// n=100 must behave like a small-world graph, not a bare ring
			// (whose diameter would be 50). The bound is deliberately
			// loose; observed diameters are ≤ 6.
			dist := hops(adj, 0, nil)
			if slices.Contains(dist, -1) {
				t.Fatalf("fanout=%d seed=%d: topology disconnected", fanout, seed)
			}
			if ecc := slices.Max(dist); ecc > 12 {
				t.Fatalf("fanout=%d seed=%d: diameter %d exceeds small-world bound", fanout, seed, ecc)
			}
		}
	}
}

// mustNew builds a gossip engine or fails the test.
func mustNew(t *testing.T, cfg Config, inner engine.Engine) *Engine {
	t.Helper()
	g, err := New(cfg, inner)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestShareBatchingCoalesces(t *testing.T) {
	inner := &sink{id: 0}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1, ShareBatchWindow: 2 * time.Millisecond}, inner)
	src := g.Peers()[0]

	h := hash.Digest{1}
	var shares []types.Message
	for i := 0; i < 3; i++ {
		shares = append(shares, &types.NotarizationShare{
			Round: 5, Proposer: 2, BlockHash: h, Signer: types.PartyID(i), Sig: []byte{byte(i)},
		})
	}
	shares = append(shares, &types.BeaconShare{Round: 6, Signer: 1, Share: []byte{9}})

	// Within the window: shares are delivered to the inner engine but no
	// relay frames leave.
	var outs []engine.Output
	for _, m := range shares {
		outs = append(outs, g.HandleMessage(src, m, 0)...)
	}
	if len(outs) != 0 {
		t.Fatalf("shares relayed before the window closed: %d frames", len(outs))
	}
	if len(inner.received) != len(shares) {
		t.Fatalf("inner received %d of %d shares", len(inner.received), len(shares))
	}

	// The flush deadline is visible to the runtime.
	if wake, ok := g.NextWake(0); !ok || wake != 2*time.Millisecond {
		t.Fatalf("NextWake = %v/%v, want flush deadline 2ms", wake, ok)
	}

	// Window closes: every peer except the source gets the shares this
	// party speaks to it about in one frame, the notarization shares
	// grouped under their one statement, and the rest — nobody else having
	// spoken — in one more frame once the listening time has passed.
	outs = flushed(g, 2*time.Millisecond)
	got := make(map[types.PartyID]int)
	frames := make(map[types.PartyID]int)
	for _, o := range outs {
		if o.To == src {
			t.Fatal("batch relayed back to its only source")
		}
		frames[o.To]++
		got[o.To]++
		if b, ok := o.Msg.(*types.ShareBundle); ok {
			got[o.To] += b.Shares() - 1
			if len(b.Notar) > 1 {
				t.Fatalf("one statement's shares in %d groups", len(b.Notar))
			}
		}
	}
	for _, p := range g.Peers()[1:] {
		if got[p] != 4 || frames[p] > 2 {
			t.Fatalf("peer %d got %d shares in %d frames, want 4 in at most 2", p, got[p], frames[p])
		}
	}

	// A receiving wrapper explodes a bundle, delivers each share, and
	// recognises one it already held.
	bundle := &types.ShareBundle{}
	for _, m := range shares {
		appendToBundle(bundle, m)
	}
	inner2 := &sink{id: 1}
	g2 := mustNew(t, Config{Self: 1, N: 7, Fanout: 3, Seed: 1, ShareBatchWindow: 2 * time.Millisecond}, inner2)
	g2.HandleMessage(0, shares[0], 0) // pre-seed a duplicate
	g2.HandleMessage(0, bundle, 0)
	if len(inner2.received) != len(shares) {
		t.Fatalf("bundle receiver delivered %d shares, want %d (dedup across framings)", len(inner2.received), len(shares))
	}
}

func TestShareBatchFlushesAtCap(t *testing.T) {
	inner := &sink{id: 0}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1,
		ShareBatchWindow: time.Second}, inner)
	g.maxBatchShares = 2
	src := g.Peers()[0]
	h := hash.Digest{2}
	if outs := g.HandleMessage(src, &types.NotarizationShare{Round: 1, Proposer: 0, BlockHash: h, Signer: 1, Sig: []byte{1}}, 0); len(outs) != 0 {
		t.Fatal("first share flushed early")
	}
	outs := g.HandleMessage(src, &types.NotarizationShare{Round: 1, Proposer: 0, BlockHash: h, Signer: 2, Sig: []byte{2}}, 0)
	if len(outs) == 0 || len(g.pending) != 0 {
		t.Fatalf("cap flush produced %d frames and left %d shares pending", len(outs), len(g.pending))
	}
	// Each peer but the source has both shares once the listening time
	// has passed, whichever end of its edge spoke.
	got := sent(append(outs, g.Tick(listenWindows*time.Second)...))
	for _, p := range g.Peers()[1:] {
		if s := got[p]; s == nil || len(s.notar) != 2 {
			t.Fatalf("peer %d was sent %+v, want both shares", p, s)
		}
	}
}

func TestSingleShareFlushSkipsBundleFraming(t *testing.T) {
	inner := &sink{id: 0}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1, ShareBatchWindow: time.Millisecond}, inner)
	src := g.Peers()[0]
	s := &types.BeaconShare{Round: 3, Signer: 2, Share: []byte{7}}
	g.HandleMessage(src, s, 0)
	outs := flushed(g, time.Millisecond)
	if len(outs) != len(g.Peers())-1 {
		t.Fatalf("%d frames, want %d", len(outs), len(g.Peers())-1)
	}
	for _, o := range outs {
		if _, ok := o.Msg.(*types.BeaconShare); !ok {
			t.Fatalf("lone share framed as %T, want bare *types.BeaconShare", o.Msg)
		}
	}
}

// aggFixture deals keys and signs shares for one statement.
type aggFixture struct {
	pub   *keys.Public
	privs []keys.Private
	h     hash.Digest
}

func newAggFixture(t *testing.T, n int) *aggFixture {
	t.Helper()
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	return &aggFixture{pub: pub, privs: privs, h: hash.Digest{0xaa}}
}

func (f *aggFixture) nshare(signer types.PartyID) *types.NotarizationShare {
	msg := types.SigningBytes(1, 0, f.h)
	return &types.NotarizationShare{Round: 1, Proposer: 0, BlockHash: f.h, Signer: signer,
		Sig: f.privs[signer].Notary.Sign(types.DomainNotarization, msg).Signature}
}

func (f *aggFixture) fshare(signer types.PartyID) *types.FinalizationShare {
	msg := types.SigningBytes(1, 0, f.h)
	return &types.FinalizationShare{Round: 1, Proposer: 0, BlockHash: f.h, Signer: signer,
		Sig: f.privs[signer].Final.Sign(types.DomainFinalization, msg).Signature}
}

// notarization combines the fixture's shares into a full certificate.
func (f *aggFixture) notarization(t *testing.T, signers ...types.PartyID) *types.Notarization {
	t.Helper()
	shares := make([]*multisig.Share, 0, len(signers))
	for _, s := range signers {
		shares = append(shares, &multisig.Share{Signer: int(s), Signature: f.nshare(s).Sig})
	}
	agg, err := f.pub.Notary.CombineVerified(shares)
	if err != nil {
		t.Fatal(err)
	}
	return &types.Notarization{Round: 1, Proposer: 0, BlockHash: f.h, Agg: agg.Encode()}
}

func TestEagerRelayAggregation(t *testing.T) {
	f := newAggFixture(t, 4) // threshold 3
	inner := &sink{id: 0}
	g := mustNew(t, Config{Self: 0, N: 4, Fanout: 2, Seed: 1, Aggregate: true, Keys: f.pub}, inner)
	src := g.Peers()[0]

	g.HandleMessage(src, f.nshare(1), 0)
	g.HandleMessage(src, f.nshare(2), 0)
	outs := g.HandleMessage(src, f.nshare(3), 0)

	// The threshold-crossing share triggers certificate creation: the
	// cert goes to every peer (including the share's source) and reaches
	// the inner engine; the share itself is not relayed.
	var certs, shares int
	for _, o := range outs {
		switch o.Msg.(type) {
		case *types.Notarization:
			certs++
		case *types.NotarizationShare:
			shares++
		}
	}
	if certs != len(g.Peers()) || shares != 0 {
		t.Fatalf("threshold crossing: %d cert frames (want %d), %d share relays (want 0)", certs, len(g.Peers()), shares)
	}
	var delivered *types.Notarization
	for _, m := range inner.received {
		if nz, ok := m.(*types.Notarization); ok {
			delivered = nz
		}
	}
	if delivered == nil {
		t.Fatal("relay-built certificate not delivered to the inner engine")
	}
	agg, err := multisig.DecodeAggregate(delivered.Agg)
	if err != nil {
		t.Fatalf("certificate aggregate: %v", err)
	}
	if err := f.pub.Notary.Verify(types.DomainNotarization, types.SigningBytes(1, 0, f.h), agg); err != nil {
		t.Fatalf("relay-built certificate does not verify: %v", err)
	}

	// A late share for the certified statement is fully suppressed:
	// no relay, no delivery.
	got := len(inner.received)
	if outs := g.HandleMessage(src, f.nshare(0), 0); len(outs) != 0 {
		t.Fatalf("late share relayed after certification: %d frames", len(outs))
	}
	if len(inner.received) != got {
		t.Fatal("late share delivered after certification")
	}
}

func TestAggregationSurvivesForgedShares(t *testing.T) {
	f := newAggFixture(t, 4)
	inner := &sink{id: 0}
	// No TrustShares: the relay must verify while combining, so forged
	// shares cannot poison the certificate.
	g := mustNew(t, Config{Self: 0, N: 4, Fanout: 2, Seed: 1, Aggregate: true, Keys: f.pub}, inner)
	src := g.Peers()[0]

	forged := f.nshare(3)
	forged.Sig = make([]byte, len(forged.Sig)) // zeroed signature
	g.HandleMessage(src, f.nshare(1), 0)
	g.HandleMessage(src, f.nshare(2), 0)
	outs := g.HandleMessage(src, forged, 0)
	for _, o := range outs {
		if _, ok := o.Msg.(*types.Notarization); ok {
			t.Fatal("certificate built from a forged share")
		}
	}
	// The third honest share still completes the certificate.
	outs = g.HandleMessage(src, f.nshare(0), 0)
	certs := 0
	for _, o := range outs {
		if _, ok := o.Msg.(*types.Notarization); ok {
			certs++
		}
	}
	if certs != len(g.Peers()) {
		t.Fatalf("honest threshold did not certify: %d cert frames", certs)
	}
}

func TestFinalizationAggregation(t *testing.T) {
	f := newAggFixture(t, 4)
	inner := &sink{id: 0}
	g := mustNew(t, Config{Self: 0, N: 4, Fanout: 2, Seed: 1, Aggregate: true, TrustShares: true, Keys: f.pub}, inner)
	src := g.Peers()[0]
	for _, signer := range []types.PartyID{1, 2, 3} {
		g.HandleMessage(src, f.fshare(signer), 0)
	}
	found := false
	for _, m := range inner.received {
		if fz, ok := m.(*types.Finalization); ok {
			found = true
			agg, err := multisig.DecodeAggregate(fz.Agg)
			if err != nil {
				t.Fatalf("aggregate: %v", err)
			}
			if err := f.pub.Final.Verify(types.DomainFinalization, types.SigningBytes(1, 0, f.h), agg); err != nil {
				t.Fatalf("finalization certificate does not verify: %v", err)
			}
		}
	}
	if !found {
		t.Fatal("no finalization certificate delivered")
	}
}

func TestCertificateTransitStopsShareRelay(t *testing.T) {
	f := newAggFixture(t, 4)
	inner := &sink{id: 0}
	g := mustNew(t, Config{Self: 0, N: 4, Fanout: 2, Seed: 1, Aggregate: true, TrustShares: true, Keys: f.pub}, inner)
	src := g.Peers()[0]

	// A complete certificate transits before any share arrives.
	g.HandleMessage(src, f.notarization(t, 0, 1, 2), 0)
	delivered := len(inner.received)
	// Shares for the already-certified statement are neither relayed nor
	// delivered.
	if outs := g.HandleMessage(src, f.nshare(3), 0); len(outs) != 0 {
		t.Fatalf("share relayed after certificate transit: %d frames", len(outs))
	}
	if len(inner.received) != delivered {
		t.Fatal("share delivered after certificate transit")
	}
}

// Rule 5's cut-off is the exact test "the round's beacon is known here",
// not a count of relayed shares: under TrustShares nothing upstream
// verifies a beacon share, so a count let t+1 junk shares from one
// Byzantine signer stop the honest ones. Relayed shares flow until the
// party's own DLEQ beacon reveals the round, and then stop; its own
// share never does.
func TestBeaconRelayCutoffUnderTrust(t *testing.T) {
	pub, privs, err := keys.Deal(rand.Reader, 4)
	if err != nil {
		t.Fatal(err)
	}
	seed := []byte("genesis")
	src := beacon.New(pub.Beacon, privs[0].Beacon, 0, seed)
	inner := &feedingSink{sink: sink{id: 0}, src: src}
	g := mustNew(t, Config{Self: 0, N: 4, Fanout: 2, Seed: 1, TrustShares: true}, inner)
	from := g.Peers()[0]
	relays := func(outs []engine.Output) int {
		c := 0
		for _, o := range outs {
			if _, ok := o.Msg.(*types.BeaconShare); ok {
				c++
			}
		}
		return c
	}
	share := func(signer types.PartyID, seed string) *types.BeaconShare {
		s, err := beacon.New(pub.Beacon, privs[signer].Beacon, signer, []byte(seed)).ShareForRound(1)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	// n = 4 → t+1 = 2. Two well-formed junk shares of signer 3 (signed
	// over another genesis) are relayed, and reveal nothing.
	for _, junk := range []*types.BeaconShare{share(3, "junk-a"), share(3, "junk-b")} {
		if relays(g.HandleMessage(from, junk, 0)) == 0 {
			t.Fatal("junk beacon share not relayed before the round is known")
		}
	}
	if _, ok := src.Reveal(1); ok {
		t.Fatal("junk shares revealed the round")
	}
	// The honest shares still flow.
	for _, signer := range []types.PartyID{1, 2} {
		if relays(g.HandleMessage(from, share(signer, "genesis"), 0)) == 0 {
			t.Fatalf("honest share of %d not relayed after t+1 junk shares", signer)
		}
	}
	// The engine reveals the round (core's precomputeBeacon); from then on
	// a relayed share is delivered and goes no further.
	if _, ok := src.Reveal(1); !ok {
		t.Fatal("two honest shares did not reveal the round")
	}
	delivered := len(inner.received)
	if relays(g.HandleMessage(from, share(3, "genesis"), 0)) != 0 {
		t.Fatal("beacon share relayed once the round's beacon was known")
	}
	if len(inner.received) != delivered+1 {
		t.Fatal("share of a known round not delivered")
	}
	// Our own share is never suppressed, even with the round known.
	g2inner := &feedingSink{sink: sink{id: 0, initOut: []engine.Output{engine.Broadcast(share(0, "genesis"))}}, src: src}
	g2 := mustNew(t, Config{Self: 0, N: 4, Fanout: 2, Seed: 1, TrustShares: true}, g2inner)
	if relays(g2.Init(0)) == 0 {
		t.Fatal("own beacon share suppressed by the relay cut-off")
	}
}
