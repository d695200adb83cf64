package core

// Unit tests for the catch-up answer (catchup.go): the inline/deferred
// share split, the finalized-frontier skip, the per-peer limiter, and
// the Status frontier cap.

import (
	"crypto/rand"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/keys"
	"icc/internal/crypto/thresig"
	"icc/internal/types"
)

// fakeProvider records enqueued backfill requests.
type fakeProvider struct {
	reqs   []BackfillRequest
	accept bool
}

func (f *fakeProvider) EnqueueBackfill(req BackfillRequest) bool {
	f.reqs = append(f.reqs, req)
	return f.accept
}

// revealedSim returns a simulated beacon for party `self` with rounds
// 1..rounds revealed (so shares for those rounds are signable).
func revealedSim(t *testing.T, n int, self types.PartyID, rounds int) *beacon.Simulated {
	t.Helper()
	s := beacon.NewSimulated(n, self, []byte("catchup test genesis"))
	for k := 1; k <= rounds; k++ {
		for p := types.PartyID(0); int(p) < n; p++ {
			sh := &types.BeaconShare{Round: types.Round(k), Signer: p, Share: make([]byte, thresig.SigShareLen)}
			if _, err := s.AddShare(sh); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := s.Reveal(types.Round(k)); !ok {
			t.Fatalf("reveal round %d failed", k)
		}
	}
	return s
}

// buildCatchup assembles an engine at round 10 with the given beacon
// and provider, answering each peer at most once per 100 ms.
func buildCatchup(t *testing.T, bcn beacon.Source, provider CatchupProvider, hook func(types.PartyID, int, int, time.Duration)) *Engine {
	t.Helper()
	pub, privs, err := keys.Deal(rand.Reader, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{
		Self:    0,
		Keys:    pub,
		Priv:    privs[0],
		Beacon:  bcn,
		Catchup: provider,
		Hooks:   Hooks{OnBackfill: hook},
	})
	e.setResyncInterval(100 * time.Millisecond)
	e.round = 10
	return e
}

// respond hands the engine a Status from peer `from` and returns the
// bundle it unicasts back, nil if none.
func respond(e *Engine, from types.PartyID, st *types.Status, now time.Duration) *types.Bundle {
	e.handleStatus(from, st, now)
	return answerTo(e.drain(), from)
}

func TestCatchupDefersUncachedShares(t *testing.T) {
	sim := revealedSim(t, 4, 0, 10)
	sim.SetShareCacheSize(-1) // every share misses the cache
	prov := &fakeProvider{accept: true}
	var gotInline, gotDeferred int
	e := buildCatchup(t, sim, prov, func(_ types.PartyID, inline, deferred int, _ time.Duration) {
		gotInline, gotDeferred = inline, deferred
	})

	bundle := respond(e, 2, &types.Status{Round: 3, Finalized: 2, Seq: 1}, 0)
	if len(prov.reqs) != 1 {
		t.Fatalf("provider saw %d requests, want 1", len(prov.reqs))
	}
	req := prov.reqs[0]
	if req.Peer != 2 {
		t.Fatalf("request targets peer %d, want 2", req.Peer)
	}
	// Rounds 3..10 (st.Round up to our round, capped by batch), all
	// uncached, none skipped (Finalized=2 < 3).
	want := []types.Round{3, 4, 5, 6, 7, 8, 9, 10}
	if len(req.Rounds) != len(want) {
		t.Fatalf("deferred rounds %v, want %v", req.Rounds, want)
	}
	for i, k := range want {
		if req.Rounds[i] != k {
			t.Fatalf("deferred rounds %v, want %v", req.Rounds, want)
		}
	}
	// No beacon shares travelled inline.
	if bundle != nil {
		for _, m := range bundle.Messages {
			if _, ok := m.(*types.BeaconShare); ok {
				t.Fatal("share sent inline despite empty cache and live provider")
			}
		}
	}
	if gotInline != 0 || gotDeferred != len(want) {
		t.Fatalf("hook saw inline=%d deferred=%d, want 0/%d", gotInline, gotDeferred, len(want))
	}
}

func TestCatchupServesCachedSharesInline(t *testing.T) {
	sim := revealedSim(t, 4, 0, 10)
	// Warm the cache for rounds 3..5 only.
	for k := types.Round(3); k <= 5; k++ {
		if _, err := sim.ShareForRound(k); err != nil {
			t.Fatal(err)
		}
	}
	prov := &fakeProvider{accept: true}
	e := buildCatchup(t, sim, prov, nil)

	bundle := respond(e, 1, &types.Status{Round: 3, Finalized: 0, Seq: 1}, 0)
	if bundle == nil {
		t.Fatal("no inline bundle despite cache hits")
	}
	if !bundle.Resync {
		t.Fatal("catch-up bundle not Resync-marked")
	}
	var inlineRounds []types.Round
	for _, m := range bundle.Messages {
		if sh, ok := m.(*types.BeaconShare); ok {
			inlineRounds = append(inlineRounds, sh.Round)
		}
	}
	if len(inlineRounds) != 3 || inlineRounds[0] != 3 || inlineRounds[2] != 5 {
		t.Fatalf("inline shares for rounds %v, want [3 4 5]", inlineRounds)
	}
	if len(prov.reqs) != 1 || len(prov.reqs[0].Rounds) != 5 || prov.reqs[0].Rounds[0] != 6 {
		t.Fatalf("deferred %+v, want rounds 6..10", prov.reqs)
	}
}

func TestCatchupSkipsFinalizedShareRounds(t *testing.T) {
	sim := revealedSim(t, 4, 0, 10)
	sim.SetShareCacheSize(-1)
	prov := &fakeProvider{accept: true}
	e := buildCatchup(t, sim, prov, nil)

	// The laggard reports Finalized=6: it traversed those beacons, so
	// shares for rounds ≤ 6 are dead weight.
	respond(e, 1, &types.Status{Round: 3, Finalized: 6, Seq: 1}, 0)
	if len(prov.reqs) != 1 {
		t.Fatalf("provider saw %d requests, want 1", len(prov.reqs))
	}
	req := prov.reqs[0]
	if len(req.Rounds) != 4 || req.Rounds[0] != 7 || req.Rounds[3] != 10 {
		t.Fatalf("deferred rounds %v, want [7 8 9 10]", req.Rounds)
	}
}

func TestCatchupDroppedEnqueueIsNotRetriedInline(t *testing.T) {
	sim := revealedSim(t, 4, 0, 10)
	sim.SetShareCacheSize(-1)
	prov := &fakeProvider{accept: false} // queue full / in flight
	var gotDeferred = -1
	e := buildCatchup(t, sim, prov, func(_ types.PartyID, _, deferred int, _ time.Duration) {
		gotDeferred = deferred
	})

	bundle := respond(e, 1, &types.Status{Round: 3, Finalized: 0, Seq: 1}, 0)
	if bundle != nil {
		for _, m := range bundle.Messages {
			if _, ok := m.(*types.BeaconShare); ok {
				t.Fatal("engine signed inline after the provider refused")
			}
		}
	}
	// The hook reports zero deferred: nothing is actually in flight.
	if gotDeferred != 0 {
		t.Fatalf("hook saw deferred=%d after refused enqueue, want 0", gotDeferred)
	}
}

func TestCatchupRateLimitsPerPeer(t *testing.T) {
	sim := revealedSim(t, 4, 0, 10)
	prov := &fakeProvider{accept: true}
	e := buildCatchup(t, sim, prov, nil)

	if respond(e, 1, &types.Status{Round: 3, Finalized: 0, Seq: 1}, 0) == nil && len(prov.reqs) == 0 {
		t.Fatal("first request not answered")
	}
	n := len(prov.reqs)
	if respond(e, 1, &types.Status{Round: 3, Finalized: 0, Seq: 2}, 50*time.Millisecond) != nil || len(prov.reqs) != n {
		t.Fatal("repeat within the rate-limit window answered")
	}
	// A different peer is not limited.
	respond(e, 2, &types.Status{Round: 3, Finalized: 0, Seq: 1}, 50*time.Millisecond)
	if len(prov.reqs) != n+1 {
		t.Fatal("second peer rate-limited by the first")
	}
	// After the interval the first peer is served again.
	respond(e, 1, &types.Status{Round: 3, Finalized: 0, Seq: 3}, 200*time.Millisecond)
	if len(prov.reqs) != n+2 {
		t.Fatal("first peer not served after the window")
	}
}

func TestCatchupEmptyReplyDoesNotChargeLimiter(t *testing.T) {
	sim := revealedSim(t, 4, 0, 10)
	sim.SetShareCacheSize(-1)
	prov := &fakeProvider{accept: true}
	e := buildCatchup(t, sim, prov, nil)

	// A peer that needs no shares (its gap is finalized on its side)
	// and whose rounds we hold nothing for gets an empty answer — that
	// must not burn its one reply per interval.
	if b := respond(e, 1, &types.Status{Round: 3, Finalized: 10, Seq: 1}, 0); b != nil {
		t.Fatalf("expected empty reply, got %d messages", len(b.Messages))
	}
	if len(prov.reqs) != 0 {
		t.Fatal("backfill enqueued for a fully-finalized gap")
	}
	// The very next Status with real needs — still inside the rate
	// interval — is served, because the empty reply was free.
	respond(e, 1, &types.Status{Round: 3, Finalized: 0, Seq: 2}, 10*time.Millisecond)
	if len(prov.reqs) != 1 {
		t.Fatal("peer stayed rate-limited after an empty reply")
	}
	// That served reply did charge the limiter: an immediate repeat is
	// refused.
	respond(e, 1, &types.Status{Round: 3, Finalized: 0, Seq: 3}, 20*time.Millisecond)
	if len(prov.reqs) != 1 {
		t.Fatal("served reply did not charge the limiter")
	}
}

func TestStatusCapsFinalizedBelowRound(t *testing.T) {
	// After a jump-commit, kmax can run ahead of the round being
	// replayed; the Status must report Finalized < Round so responders'
	// finalized-skip cannot starve the laggard's beacon replay.
	e, _, _ := buildResyncEngine(t, 4, 0, 100*time.Millisecond)
	e.Init(0)
	e.round = 3
	e.kmax = 7 // jump-commit state: finalized ahead of the working round
	sts := statusesIn(e.Tick(150 * time.Millisecond))
	if len(sts) == 0 {
		t.Fatal("no status emitted")
	}
	for _, st := range sts {
		if st.Round != 3 || st.Finalized != 2 {
			t.Fatalf("status %+v, want Round=3 Finalized=2", st)
		}
	}

	// In the ordinary state (kmax < round) the frontier is uncapped.
	e2, _, _ := buildResyncEngine(t, 4, 0, 100*time.Millisecond)
	e2.Init(0)
	e2.round = 9
	e2.kmax = 5
	sts = statusesIn(e2.Tick(150 * time.Millisecond))
	if len(sts) == 0 || sts[0].Finalized != 5 {
		t.Fatalf("uncapped status wrong: %+v", sts)
	}
}
