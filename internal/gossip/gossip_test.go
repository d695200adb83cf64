package gossip

import (
	"slices"
	"testing"
	"time"

	"icc/internal/engine"
	"icc/internal/obs"
	"icc/internal/types"
)

// sink is a minimal inner engine that records what it receives and can
// emit a prepared broadcast on Init.
type sink struct {
	id       types.PartyID
	initOut  []engine.Output
	received []types.Message
}

func (s *sink) ID() types.PartyID                  { return s.id }
func (s *sink) Init(time.Duration) []engine.Output { return s.initOut }
func (s *sink) HandleMessage(_ types.PartyID, m types.Message, _ time.Duration) []engine.Output {
	s.received = append(s.received, m)
	return nil
}
func (s *sink) Tick(time.Duration) []engine.Output           { return nil }
func (s *sink) NextWake(time.Duration) (time.Duration, bool) { return 0, false }
func (s *sink) CurrentRound() types.Round                    { return 1 }

// topo builds a validated topology or fails the test.
func topo(t *testing.T, n, fanout int, seed int64) [][]types.PartyID {
	t.Helper()
	adj, err := Config{N: n, Fanout: fanout, Seed: seed}.Topology()
	if err != nil {
		t.Fatalf("topology(n=%d fanout=%d): %v", n, fanout, err)
	}
	return adj
}

func TestTopologyConnectedAndSymmetric(t *testing.T) {
	for _, n := range []int{2, 4, 7, 13, 40} {
		fanout := 6
		if fanout > n-1 {
			fanout = n - 1
		}
		adj := topo(t, n, fanout, 42)
		if len(adj) != n {
			t.Fatalf("n=%d: %d adjacency rows", n, len(adj))
		}
		// Symmetry.
		has := func(a, b int) bool {
			for _, p := range adj[a] {
				if int(p) == b {
					return true
				}
			}
			return false
		}
		for i := 0; i < n; i++ {
			for _, p := range adj[i] {
				if !has(int(p), i) {
					t.Fatalf("n=%d: edge %d->%d not symmetric", n, i, p)
				}
				if int(p) == i {
					t.Fatalf("n=%d: self-loop at %d", n, i)
				}
			}
		}
		if slices.Contains(hops(adj, 0, nil), -1) {
			t.Fatalf("n=%d: topology disconnected", n)
		}
	}
}

func TestTopologyDeterministic(t *testing.T) {
	a := topo(t, 13, 6, 7)
	b := topo(t, 13, 6, 7)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatal("topology not deterministic")
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatal("topology not deterministic")
			}
		}
	}
}

func smallMsg() types.Message {
	return &types.BeaconShare{Round: 1, Signer: 2, Share: []byte{1, 2, 3}}
}

func bigMsg() types.Message {
	return &types.BlockMsg{Block: &types.Block{Round: 1, Proposer: 0, Payload: make([]byte, 4096)}}
}

func TestSmallArtifactsEagerPush(t *testing.T) {
	inner := &sink{id: 0}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1}, inner)
	outs := g.HandleMessage(g.Peers()[0], smallMsg(), 0)
	// Delivered to inner once.
	if len(inner.received) != 1 {
		t.Fatalf("inner received %d messages", len(inner.received))
	}
	// Relayed to every peer except the source, as the full message.
	relays := 0
	for _, o := range outs {
		if o.Broadcast {
			t.Fatal("gossip must unicast")
		}
		if o.To == g.Peers()[0] {
			t.Fatal("relayed back to source")
		}
		if _, ok := o.Msg.(*types.BeaconShare); ok {
			relays++
		}
	}
	if relays != len(g.Peers())-1 {
		t.Fatalf("%d relays, want %d", relays, len(g.Peers())-1)
	}
	// Duplicate delivery: dropped entirely.
	outs = g.HandleMessage(g.Peers()[1], smallMsg(), 0)
	if len(outs) != 0 || len(inner.received) != 1 {
		t.Fatal("duplicate artifact not suppressed")
	}
}

func TestLargeArtifactsAdvertised(t *testing.T) {
	inner := &sink{id: 0}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1}, inner)
	outs := g.HandleMessage(g.Peers()[0], bigMsg(), 0)
	if len(inner.received) != 1 {
		t.Fatalf("inner received %d", len(inner.received))
	}
	adverts := 0
	for _, o := range outs {
		if _, ok := o.Msg.(*types.Advert); ok {
			adverts++
		}
		if _, ok := o.Msg.(*types.BlockMsg); ok {
			t.Fatal("large artifact eagerly relayed")
		}
	}
	if adverts != len(g.Peers())-1 {
		t.Fatalf("%d adverts, want %d", adverts, len(g.Peers())-1)
	}
}

func TestAdvertRequestServe(t *testing.T) {
	inner := &sink{id: 0}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1}, inner)
	big := bigMsg()
	g.HandleMessage(g.Peers()[0], big, 0) // now stored

	ref := types.RefOf(big)
	// A peer requests it.
	outs := g.HandleMessage(g.Peers()[1], &types.Request{Refs: []types.Ref{ref}}, 0)
	if len(outs) != 1 || outs[0].To != g.Peers()[1] {
		t.Fatalf("request not served: %v", outs)
	}
	if types.RefOf(outs[0].Msg) != ref {
		t.Fatal("served wrong artifact")
	}
	// Requesting something we lack yields nothing.
	missing := types.Ref{Kind: types.KindBlock, ID: [32]byte{9}}
	if outs := g.HandleMessage(g.Peers()[1], &types.Request{Refs: []types.Ref{missing}}, 0); len(outs) != 0 {
		t.Fatal("served a missing artifact")
	}
}

func TestAdvertSingleFlightWithRetry(t *testing.T) {
	inner := &sink{id: 0}
	reg := obs.NewRegistry()
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1, RequestRetry: 100 * time.Millisecond, Registry: reg}, inner)
	ref := types.RefOf(bigMsg())
	adv := &types.Advert{Refs: []types.Ref{ref}}
	outs := g.HandleMessage(g.Peers()[0], adv, 0)
	if len(outs) != 1 {
		t.Fatalf("first advert: %d outputs, want 1 request", len(outs))
	}
	if _, ok := outs[0].Msg.(*types.Request); !ok {
		t.Fatal("expected a request")
	}
	// Same advert from same peer: no duplicate request.
	if outs := g.HandleMessage(g.Peers()[0], adv, 0); len(outs) != 0 {
		t.Fatal("duplicate request to same peer")
	}
	// Another advertiser while the first request is in flight: held in
	// reserve, not asked — one download at a time per ref.
	if outs := g.HandleMessage(g.Peers()[1], adv, 0); len(outs) != 0 {
		t.Fatal("second advertiser asked while a request was in flight")
	}
	// The retry deadline must be visible to the scheduler.
	if wake, ok := g.NextWake(0); !ok || wake != 100*time.Millisecond {
		t.Fatalf("NextWake = %v, %v; want retry deadline", wake, ok)
	}
	// Past the retry deadline the reserve advertiser is asked
	// (robustness against a non-answering first advertiser).
	outs = g.Tick(100 * time.Millisecond)
	asked := 0
	for _, o := range outs {
		if _, ok := o.Msg.(*types.Request); ok {
			if o.To != g.Peers()[1] {
				t.Fatalf("retry went to %d, want reserve peer %d", o.To, g.Peers()[1])
			}
			asked++
		}
	}
	if asked != 1 {
		t.Fatalf("%d retry requests, want 1", asked)
	}
	// Once the artifact arrives, further adverts are ignored.
	g.HandleMessage(g.Peers()[2], bigMsg(), 100*time.Millisecond)
	if outs := g.HandleMessage(g.Peers()[0], adv, 200*time.Millisecond); len(outs) != 0 {
		t.Fatal("requested an artifact we already hold")
	}
	snap := reg.Snapshot()
	for _, outcome := range []string{"requested", "reserved", "retried"} {
		if got := snap[`icc_gossip_fetch_total{outcome="`+outcome+`"}`]; got != 1 {
			t.Errorf("icc_gossip_fetch_total{outcome=%q} = %v, want 1", outcome, got)
		}
	}
}

func TestCertificateStatementDedup(t *testing.T) {
	inner := &sink{id: 0}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1}, inner)
	stmt := func(agg []byte) *types.Notarization {
		return &types.Notarization{Round: 3, Proposer: 1, BlockHash: [32]byte{7}, Agg: agg}
	}
	outs := g.HandleMessage(g.Peers()[0], stmt([]byte{1, 1}), 0)
	if len(inner.received) != 1 || len(outs) == 0 {
		t.Fatalf("first certificate not delivered/relayed (%d received, %d outs)", len(inner.received), len(outs))
	}
	// A byte-distinct certificate for the same statement (a different
	// signer subset) is the same artifact: dropped, not re-flooded.
	outs = g.HandleMessage(g.Peers()[1], stmt([]byte{2, 2, 2}), 0)
	if len(outs) != 0 || len(inner.received) != 1 {
		t.Fatalf("subset-variant certificate re-flooded (%d outs, %d received)", len(outs), len(inner.received))
	}
	// A certificate for a different statement still propagates.
	other := &types.Notarization{Round: 4, Proposer: 2, BlockHash: [32]byte{8}, Agg: []byte{1}}
	if outs := g.HandleMessage(g.Peers()[0], other, 0); len(outs) == 0 || len(inner.received) != 2 {
		t.Fatal("distinct statement suppressed")
	}
}

func TestInnerBroadcastsSplitAndGossiped(t *testing.T) {
	big := bigMsg()
	small := smallMsg()
	inner := &sink{id: 0, initOut: []engine.Output{
		engine.Broadcast(&types.Bundle{Messages: []types.Message{big, small}}),
	}}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1}, inner)
	outs := g.Init(0)
	var adverts, pushes int
	for _, o := range outs {
		switch o.Msg.(type) {
		case *types.Advert:
			adverts++
		case *types.BeaconShare:
			pushes++
		}
	}
	if adverts != len(g.Peers()) {
		t.Fatalf("%d adverts for the block, want %d", adverts, len(g.Peers()))
	}
	if pushes != len(g.Peers()) {
		t.Fatalf("%d eager pushes for the share, want %d", pushes, len(g.Peers()))
	}
}

func TestStoreEviction(t *testing.T) {
	inner := &sink{id: 0}
	g := mustNew(t, Config{Self: 0, N: 4, Fanout: 2, Seed: 1, MaxStore: 4}, inner)
	var refs []types.Ref
	for i := 0; i < 8; i++ {
		m := &types.BeaconShare{Round: types.Round(i + 1), Signer: 1, Share: []byte{byte(i)}}
		refs = append(refs, types.RefOf(m))
		g.HandleMessage(g.Peers()[0], m, 0)
	}
	// The oldest artifacts must be gone; the newest present.
	if outs := g.HandleMessage(g.Peers()[1], &types.Request{Refs: refs[:1]}, 0); len(outs) != 0 {
		t.Fatal("evicted artifact still served")
	}
	if outs := g.HandleMessage(g.Peers()[1], &types.Request{Refs: refs[7:]}, 0); len(outs) != 1 {
		t.Fatal("recent artifact not served")
	}
}

func TestUnicastPassThrough(t *testing.T) {
	inner := &sink{id: 0, initOut: []engine.Output{
		engine.Unicast(3, smallMsg()),
	}}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1}, inner)
	outs := g.Init(0)
	if len(outs) != 1 || outs[0].To != 3 || outs[0].Broadcast {
		t.Fatalf("unicast not passed through: %v", outs)
	}
}

// A payload offer is point-to-point traffic for the inner engine: it is
// delivered, and neither stored for serving, relayed, nor deduplicated
// (a sender may repeat itself; the engine keeps the latest).
func TestPayloadOfferGoesStraightToTheEngine(t *testing.T) {
	inner := &sink{id: 0}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1}, inner)
	offer := &types.PayloadOffer{Round: 2, Payload: []byte("commands")}
	for i := 0; i < 2; i++ {
		if outs := g.HandleMessage(g.Peers()[0], offer, 0); len(outs) != 0 {
			t.Fatalf("delivery %d produced %d outputs: an offer must not be relayed", i, len(outs))
		}
	}
	if len(inner.received) != 2 {
		t.Fatalf("inner engine received %d messages, want both deliveries", len(inner.received))
	}
	if len(g.store) != 0 {
		t.Fatalf("gossip state holds the offer: %d stored", len(g.store))
	}
}

// The inner engine's own offer is a unicast and leaves as one; an echo
// that leaves the block's proposer out is gossiped like any broadcast.
func TestOfferPassesThroughAndExceptBroadcastIsGossiped(t *testing.T) {
	offer := &types.PayloadOffer{Round: 2, Payload: []byte("commands")}
	share := &types.NotarizationShare{Round: 1, Proposer: 1, Signer: 0, Sig: []byte{1}}
	inner := &sink{id: 0, initOut: []engine.Output{
		engine.Unicast(5, offer),
		engine.BroadcastExcept(1, share),
	}}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1}, inner)
	outs := g.Init(0)
	if len(outs) != 1+len(g.Peers()) {
		t.Fatalf("%d outputs, want the offer and one share per peer (%d)", len(outs), len(g.Peers()))
	}
	if o := outs[0]; o.Broadcast || o.To != 5 || o.Msg != types.Message(offer) {
		t.Fatalf("the offer left as %+v", o)
	}
	for _, o := range outs[1:] {
		if o.Broadcast || types.RefOf(o.Msg) != types.RefOf(share) {
			t.Fatalf("the share left as %+v, want a unicast to a peer", o)
		}
	}
}
