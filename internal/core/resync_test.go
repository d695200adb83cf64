package core

// Unit tests for the resynchronisation layer (resync.go), driving a
// single engine by hand the way the conformance tests do.

import (
	"crypto/rand"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/types"
)

// buildResyncEngine assembles an engine with a simulated beacon and a
// short resync interval (0 keeps resyncDeltas·Δbnd), plus per-party
// beacons to mint peers' shares.
func buildResyncEngine(t *testing.T, n int, self types.PartyID, interval time.Duration) (*Engine, *keys.Public, []*beacon.Simulated) {
	t.Helper()
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	beacons := make([]*beacon.Simulated, n)
	for i := 0; i < n; i++ {
		beacons[i] = beacon.NewSimulated(n, types.PartyID(i), pub.GenesisSeed)
	}
	e := NewEngine(Config{
		Self:       self,
		Keys:       pub,
		Priv:       privs[self],
		Beacon:     beacons[self],
		DeltaBound: 100 * time.Millisecond,
	})
	if interval != 0 {
		e.setResyncInterval(interval)
	}
	return e, pub, beacons
}

// setResyncInterval replaces resyncDeltas·Δbnd, for the stall timer and
// the catch-up rate limit alike. Call it before Init.
func (e *Engine) setResyncInterval(d time.Duration) {
	e.resyncInterval, e.catchup.interval = d, d
}

// statusesIn collects the Status messages inside the outputs' bundles.
func statusesIn(outs []engine.Output) []*types.Status {
	var sts []*types.Status
	for _, o := range outs {
		b, ok := o.Msg.(*types.Bundle)
		if !ok {
			continue
		}
		for _, sub := range b.Messages {
			if st, ok := sub.(*types.Status); ok {
				sts = append(sts, st)
			}
		}
	}
	return sts
}

func TestResyncEmitsStatusWhenStalled(t *testing.T) {
	e, _, _ := buildResyncEngine(t, 4, 0, 500*time.Millisecond)
	outs := e.Init(0)
	if len(statusesIn(outs)) != 0 {
		t.Fatal("status emitted at init")
	}
	// Before the deadline: quiet.
	if sts := statusesIn(e.Tick(400 * time.Millisecond)); len(sts) != 0 {
		t.Fatal("status emitted before the stall deadline")
	}
	// The engine never entered round 1 (no beacon shares arrived): the
	// stall fires, once per peer, and repeats next interval with a fresh
	// sequence number.
	sts := statusesIn(e.Tick(600 * time.Millisecond))
	if len(sts) != 3 {
		t.Fatalf("got %d statuses, want one per peer (3)", len(sts))
	}
	if sts[0].Round != 1 || sts[0].Seq != 1 {
		t.Fatalf("unexpected status %+v", sts[0])
	}
	if sts := statusesIn(e.Tick(700 * time.Millisecond)); len(sts) != 0 {
		t.Fatal("status repeated within one interval")
	}
	sts = statusesIn(e.Tick(1200 * time.Millisecond))
	if len(sts) != 3 || sts[0].Seq != 2 {
		t.Fatalf("second stall round wrong: %d statuses", len(sts))
	}
}

// TestResyncDefaultIsEightDeltaBound: an engine configured with Δbnd
// alone sends its stall bundle exactly 8·Δbnd after its last progress —
// here entering round 1 at 50 ms — and not a nanosecond earlier.
func TestResyncDefaultIsEightDeltaBound(t *testing.T) {
	const bound, entered = 100 * time.Millisecond, 50 * time.Millisecond
	e, _, beacons := buildResyncEngine(t, 4, 0, 0)
	if len(statusesIn(e.Init(0))) != 0 {
		t.Fatal("status emitted at init")
	}
	for i := 1; i < 4; i++ {
		sh, err := beacons[i].ShareForRound(1)
		if err != nil {
			t.Fatal(err)
		}
		e.HandleMessage(types.PartyID(i), sh, entered)
	}
	if e.CurrentRound() != 1 || !e.inRound {
		t.Fatal("the engine did not enter round 1")
	}
	if sts := statusesIn(e.Tick(entered + 8*bound - 1)); len(sts) != 0 {
		t.Fatalf("%d statuses before 8·Δbnd had passed", len(sts))
	}
	if sts := statusesIn(e.Tick(entered + 8*bound)); len(sts) != 3 {
		t.Fatalf("got %d statuses at 8·Δbnd after the last progress, want one per peer (3)", len(sts))
	}
}

func TestResyncStatusRoundZeroNoUnderflow(t *testing.T) {
	// Round is uint64: a party stalled at round 0 must report
	// Finalized=0, not 2^64−1 — responders skip beacon shares for
	// rounds ≤ Finalized, so the wrapped value made them skip every
	// share the stalled party needed.
	e, _, _ := buildResyncEngine(t, 4, 0, 500*time.Millisecond)
	e.Init(0)
	e.round = 0
	sts := statusesIn(e.Tick(600 * time.Millisecond))
	if len(sts) == 0 {
		t.Fatal("no status emitted at round 0")
	}
	for _, st := range sts {
		if st.Finalized != 0 {
			t.Fatalf("Status.Finalized = %d at round 0, want 0 (uint64 underflow)", st.Finalized)
		}
	}
}

func TestResyncStallBundleCarriesResyncMarker(t *testing.T) {
	// Stall re-broadcasts must ride the receivers' verify-pipeline
	// priority lane, which keys off the bundle's Resync flag.
	e, _, _ := buildResyncEngine(t, 4, 0, 500*time.Millisecond)
	e.Init(0)
	outs := e.Tick(600 * time.Millisecond)
	found := false
	for _, o := range outs {
		if b, ok := o.Msg.(*types.Bundle); ok {
			found = true
			if !b.Resync {
				t.Fatal("stall bundle not Resync-marked")
			}
		}
	}
	if !found {
		t.Fatal("no stall bundle emitted")
	}
}

func TestResyncNextWakeCoversStall(t *testing.T) {
	e, _, _ := buildResyncEngine(t, 4, 0, 500*time.Millisecond)
	e.Init(0)
	// Not in a round (beacon pending) — the paper's engine would sleep
	// forever here; the resync deadline must keep a wake armed.
	at, ok := e.NextWake(100 * time.Millisecond)
	if !ok || at != 500*time.Millisecond {
		t.Fatalf("NextWake = %v, %v; want 500ms resync deadline", at, ok)
	}
}

func TestResyncAnswersLaggardWithBackfill(t *testing.T) {
	// Run a 4-party cluster of engines by hand until they commit some
	// rounds, then have a fresh laggard ask party 0 for a backfill.
	const n = 4
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, n)
	for i := 0; i < n; i++ {
		engines[i] = NewEngine(Config{
			Self:       types.PartyID(i),
			Keys:       pub,
			Priv:       privs[i],
			Beacon:     beacon.NewSimulated(n, types.PartyID(i), pub.GenesisSeed),
			DeltaBound: 10 * time.Millisecond,
		})
	}
	// Synchronous full-mesh delivery until everyone is past round 5.
	var pending []engine.Output
	var senders []types.PartyID
	now := time.Duration(0)
	for i, e := range engines {
		for _, o := range e.Init(now) {
			pending = append(pending, o)
			senders = append(senders, types.PartyID(i))
		}
	}
	for step := 0; step < 400; step++ {
		outs, froms := pending, senders
		pending, senders = nil, nil
		for j, o := range outs {
			for i, e := range engines {
				if types.PartyID(i) == froms[j] {
					continue
				}
				if !o.Broadcast && o.To != types.PartyID(i) {
					continue
				}
				for _, out := range e.HandleMessage(froms[j], o.Msg, now) {
					pending = append(pending, out)
					senders = append(senders, types.PartyID(i))
				}
			}
		}
		now += time.Millisecond
		for i, e := range engines {
			for _, o := range e.Tick(now) {
				pending = append(pending, o)
				senders = append(senders, types.PartyID(i))
			}
		}
		if engines[0].CurrentRound() > 6 && len(pending) == 0 {
			break
		}
	}
	if engines[0].CurrentRound() <= 6 {
		t.Fatalf("cluster did not progress: round %d", engines[0].CurrentRound())
	}

	// A laggard stuck at round 1 asks party 0.
	outs := engines[0].HandleMessage(3, &types.Status{Round: 1, Finalized: 0, Seq: 1}, now)
	var backfill *types.Bundle
	for _, o := range outs {
		if o.Broadcast || o.To != 3 {
			continue
		}
		if b, ok := o.Msg.(*types.Bundle); ok {
			backfill = b
		}
	}
	if backfill == nil {
		t.Fatal("no backfill bundle for a laggard two-plus rounds behind")
	}
	var blocks, notars, beacons int
	for _, m := range backfill.Messages {
		switch m.(type) {
		case *types.BlockMsg:
			blocks++
		case *types.Notarization:
			notars++
		case *types.BeaconShare:
			beacons++
		}
	}
	if blocks < 3 || notars < 3 || beacons < 3 {
		t.Fatalf("thin backfill: %d blocks, %d notarizations, %d beacon shares", blocks, notars, beacons)
	}

	// Rate limit: an immediate repeat is ignored.
	outs = engines[0].HandleMessage(3, &types.Status{Round: 1, Finalized: 0, Seq: 2}, now)
	for _, o := range outs {
		if !o.Broadcast && o.To == 3 {
			if _, ok := o.Msg.(*types.Bundle); ok {
				t.Fatal("backfill repeated within the rate-limit window")
			}
		}
	}

	// A peer only one round behind gets nothing (ordinary traffic heals
	// that gap).
	outs = engines[0].HandleMessage(2, &types.Status{Round: engines[0].CurrentRound() - 1, Seq: 1}, now)
	for _, o := range outs {
		if !o.Broadcast && o.To == 2 {
			if _, ok := o.Msg.(*types.Bundle); ok {
				t.Fatal("backfill sent to a peer the protocol heals by itself")
			}
		}
	}
}
