package core

// Tests for precomputeBeacon (engine.go): the next round's beacon is
// combined, and the share after it signed, during the current round, from
// Δprop(0)/2 on — and none of it shows outside the party before the
// paper's release point, delays anything queued for sending, or runs
// during WAL replay.

import (
	"crypto/rand"
	"fmt"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/simnet"
	"icc/internal/types"
)

// shareWatch hosts one engine in simnet and checks every message that
// leaves it: the party's own beacon share for round r may go out — as a
// broadcast, inside a stall bundle or a catch-up reply, or from the
// backfill provider, which shareWatch also plays — only once the party
// has entered round r−1.
type shareWatch struct {
	*Engine
	// pending holds the backfill provider's sends until the engine next
	// returns outputs (the production worker sends from its own goroutine).
	pending    []engine.Output
	presigned  int // outputs inspected while a share for round+2 sat in the cache
	deferred   int // share rounds served through the provider
	violations []string
}

// releasable is the highest round whose own share may leave the party.
func (w *shareWatch) releasable() types.Round {
	if w.inRound {
		return w.round + 1
	}
	return w.round
}

func (w *shareWatch) Init(now time.Duration) []engine.Output {
	return w.check(w.Engine.Init(now))
}

func (w *shareWatch) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	return w.check(w.Engine.HandleMessage(from, m, now))
}

func (w *shareWatch) Tick(now time.Duration) []engine.Output {
	return w.check(w.Engine.Tick(now))
}

func (w *shareWatch) check(outs []engine.Output) []engine.Output {
	outs = append(outs, w.pending...)
	w.pending = nil
	for _, o := range outs {
		w.walk(o.Msg)
	}
	if w.inRound {
		if _, ok := w.cfg.Beacon.CachedShareForRound(w.round + 2); ok {
			w.presigned++
		}
	}
	return outs
}

func (w *shareWatch) walk(m types.Message) {
	switch v := m.(type) {
	case *types.Bundle:
		for _, sub := range v.Messages {
			w.walk(sub)
		}
	case *types.ShareBundle:
		for _, sub := range v.Expand() {
			w.walk(sub)
		}
	case *types.BeaconShare:
		if v.Signer == w.ID() && v.Round > w.releasable() {
			w.violations = append(w.violations, fmt.Sprintf(
				"party %d sent its share for round %d while at round %d (in round: %v)",
				w.ID(), v.Round, w.round, w.inRound))
		}
	}
}

// EnqueueBackfill implements CatchupProvider: sign at once, send with the
// engine's next outputs.
func (w *shareWatch) EnqueueBackfill(req BackfillRequest) bool {
	var msgs []types.Message
	for _, k := range req.Rounds {
		if sh, err := w.cfg.Beacon.ShareForRound(k); err == nil {
			msgs = append(msgs, sh)
			w.deferred++
		}
	}
	w.pending = append(w.pending, engine.Unicast(req.Peer, &types.Bundle{Messages: msgs, Resync: true}))
	return true
}

// watchedCluster builds n engines in simnet, each behind a shareWatch
// that is also its backfill provider.
func watchedCluster(t *testing.T, n int, seed int64, cfgFor func(i int, pub *keys.Public) Config) (*simnet.Network, []*shareWatch) {
	t.Helper()
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Options{Seed: seed, Delay: simnet.Fixed{D: 10 * time.Millisecond}})
	ws := make([]*shareWatch, n)
	for i := 0; i < n; i++ {
		w := &shareWatch{}
		cfg := cfgFor(i, pub)
		cfg.Self, cfg.Keys, cfg.Priv = types.PartyID(i), pub, privs[i]
		cfg.DeltaBound = 100 * time.Millisecond
		cfg.Catchup = w
		w.Engine = NewEngine(cfg)
		ws[i] = w
		net.AddNode(w, true)
	}
	return net, ws
}

func assertNeverAhead(t *testing.T, ws []*shareWatch) {
	t.Helper()
	for i, w := range ws {
		for _, v := range w.violations {
			t.Error(v)
		}
		if w.presigned == 0 {
			t.Errorf("party %d never held a pre-signed share: the test did not exercise the eager path", i)
		}
	}
}

// TestBeaconNeverRunsAhead, production beacon: a few rounds of the happy
// path, where every round's share for k+2 is signed during round k.
func TestBeaconNeverRunsAhead(t *testing.T) {
	net, ws := watchedCluster(t, 4, 31, func(int, *keys.Public) Config { return Config{} })
	net.Start()
	if !net.RunUntil(func() bool { return ws[0].FinalizedRound() >= 5 }, time.Minute) {
		t.Fatal("no progress")
	}
	assertNeverAhead(t, ws)
}

// TestBeaconNeverRunsAheadThroughCatchUp: a party that lost 40 rounds
// comes back, so stall bundles, catch-up replies and (with a four-entry
// own-share cache) backfill sends all carry beacon shares, while the
// cache also holds the pre-signed ones.
func TestBeaconNeverRunsAheadThroughCatchUp(t *testing.T) {
	const n = 4
	var resyncs, inline int
	net, ws := watchedCluster(t, n, 32, func(i int, pub *keys.Public) Config {
		sim := beacon.NewSimulated(n, types.PartyID(i), pub.GenesisSeed)
		sim.SetShareCacheSize(4)
		return Config{
			Beacon: sim,
			Hooks: Hooks{
				OnResync:   func(types.Round, time.Duration) { resyncs++ },
				OnBackfill: func(_ types.PartyID, in, _ int, _ time.Duration) { inline += in },
			},
		}
	})
	net.Start()
	if !net.RunUntil(func() bool { return ws[3].FinalizedRound() >= 10 }, time.Minute) {
		t.Fatal("no progress before the crash")
	}
	net.Crash(3)
	target := ws[0].FinalizedRound() + 40
	if !net.RunUntil(func() bool { return ws[0].FinalizedRound() >= target }, 5*time.Minute) {
		t.Fatal("three parties of four did not keep committing")
	}
	net.Restore(3)
	if !net.RunUntil(func() bool { return ws[3].FinalizedRound() >= target }, 5*time.Minute) {
		t.Fatalf("party 3 did not catch up: finalized %d of %d", ws[3].FinalizedRound(), target)
	}
	assertNeverAhead(t, ws)
	deferred := 0
	for _, w := range ws {
		deferred += w.deferred
	}
	if resyncs == 0 || inline == 0 || deferred == 0 {
		t.Fatalf("catch-up paths not all exercised: %d stall bundles, %d inline shares, %d backfilled shares",
			resyncs, inline, deferred)
	}
}

// revealRound makes R_k known to party p's reference beacon from the
// choreography's other reference beacons.
func (c *choreography) revealRound(p types.PartyID, k types.Round) {
	c.t.Helper()
	for i := 0; i <= types.MaxFaults(c.n); i++ {
		s, err := c.beacons[i].ShareForRound(k)
		if err != nil {
			c.t.Fatal(err)
		}
		if _, err := c.beacons[p].AddShare(s); err != nil {
			c.t.Fatal(err)
		}
	}
	if _, ok := c.beacons[p].Reveal(k); !ok {
		c.t.Fatalf("reference beacon %d could not reveal round %d", p, k)
	}
}

// peerShare2 returns a share for round 2 from some party other than the
// engine under test.
func (c *choreography) peerShare2() *types.BeaconShare {
	c.t.Helper()
	for i := 0; i <= types.MaxFaults(c.n); i++ {
		c.revealRound(types.PartyID(i), 1)
	}
	p := types.PartyID(0)
	if p == c.eng.ID() {
		p = 1
	}
	s, err := c.beacons[p].ShareForRound(2)
	if err != nil {
		c.t.Fatal(err)
	}
	return s
}

// finishRound1 notarizes the rank-0 block at the engine under test.
func (c *choreography) finishRound1() {
	b0, bundle := c.block(0, "leader block")
	c.deliver(b0.Proposer, bundle, time.Millisecond)
	c.deliver(c.perm[0], c.nshare(b0, c.perm[0]), 2*time.Millisecond)
	c.deliver(c.perm[2], c.nshare(b0, c.perm[2]), 3*time.Millisecond)
}

func ownBeaconShares(outs []engine.Output, self types.PartyID) map[types.Round]bool {
	seen := make(map[types.Round]bool)
	for _, o := range outs {
		if s, ok := o.Msg.(*types.BeaconShare); ok && s.Signer == self {
			seen[s.Round] = true
		}
	}
	return seen
}

// TestLateBeaconSharesFallBackToTryEnterRound: when the round-2 shares
// arrive only after round 1 has ended there is nothing to compute ahead,
// and the engine enters round 2 the old way, on the share's arrival.
func TestLateBeaconSharesFallBackToTryEnterRound(t *testing.T) {
	c := newChoreography(t, 4, 1, 100*time.Millisecond)
	c.start()
	c.finishRound1()
	e := c.eng
	if e.round != 2 || e.inRound {
		t.Fatalf("after round 1: round %d, in round %v; want waiting for R_2", e.round, e.inRound)
	}
	if e.cfg.Beacon.Have(2) {
		t.Fatal("R_2 known from the engine's own share alone")
	}
	late := c.peerShare2()
	c.deliver(late.Signer, late, 4*time.Millisecond)
	if e.round != 2 || !e.inRound {
		t.Fatalf("after the late share: round %d, in round %v; want inside round 2", e.round, e.inRound)
	}
	if !ownBeaconShares(c.outs, e.ID())[3] {
		t.Fatal("entered round 2 without broadcasting the round-3 share")
	}
}

// TestEarlyBeaconSharesAreCombinedDuringTheRound is the other side: with
// the round-2 quorum in hand during round 1, R_2 is computed and the
// round-3 share signed there and then — and the share stays in the cache
// until round 2 is entered.
func TestEarlyBeaconSharesAreCombinedDuringTheRound(t *testing.T) {
	c := newChoreography(t, 4, 1, 100*time.Millisecond)
	c.start()
	e := c.eng
	early := c.peerShare2()
	c.deliver(early.Signer, early, time.Millisecond)
	if e.round != 1 || !e.inRound {
		t.Fatalf("round %d, in round %v; want inside round 1", e.round, e.inRound)
	}
	if !e.cfg.Beacon.Have(2) {
		t.Fatal("R_2 not combined although its quorum arrived during round 1")
	}
	if _, ok := e.cfg.Beacon.CachedShareForRound(3); !ok {
		t.Fatal("round-3 share not pre-signed")
	}
	if ownBeaconShares(c.outs, e.ID())[3] {
		t.Fatal("round-3 share sent during round 1")
	}
	c.outs = nil
	c.finishRound1()
	if e.round != 2 || !e.inRound {
		t.Fatalf("round %d, in round %v; want straight into round 2", e.round, e.inRound)
	}
	if !ownBeaconShares(c.outs, e.ID())[3] {
		t.Fatal("round-3 share not broadcast on entering round 2")
	}
}

// TestBeaconPrecomputeWaitsForTheQuietMiddle: at ε = 50 ms, with the
// round-2 quorum held early in round 1 (round 0 committed), R_2 is not
// combined on the share's arrival but on the tick at Δprop(0)/2, the
// instant NextWake names; the round-3 share signed then stays in the cache
// until round 2 is entered.
func TestBeaconPrecomputeWaitsForTheQuietMiddle(t *testing.T) {
	const bound, epsilon = 100 * time.Millisecond, 50 * time.Millisecond
	c := newChoreographyWith(t, 4, 1, bound, func(cfg *Config) { cfg.Epsilon = epsilon })
	c.start()
	e := c.eng
	prop, ntry := types.StandardDelays(bound, epsilon)
	at := prop(0) / 2
	early := c.peerShare2()
	c.deliver(early.Signer, early, time.Millisecond)
	if e.round != 1 || !e.inRound || e.FinalizedRound() != 0 {
		t.Fatalf("round %d, in round %v; want inside round 1", e.round, e.inRound)
	}
	if got := e.cfg.Beacon.ShareCount(2); got < types.BeaconQuorum(c.n) {
		t.Fatalf("%d round-2 shares held, want the quorum", got)
	}
	if e.cfg.Beacon.Have(2) {
		t.Fatal("R_2 combined on the share's arrival, before Δprop(0)/2")
	}
	if next, ok := e.NextWake(time.Millisecond); !ok || next != at {
		t.Fatalf("next wake %v (%v), want Δprop(0)/2 = %v", next, ok, at)
	}
	c.tick(at - 1)
	if e.cfg.Beacon.Have(2) {
		t.Fatal("R_2 combined before Δprop(0)/2")
	}
	c.tick(at)
	if !e.cfg.Beacon.Have(2) {
		t.Fatal("R_2 not combined on the tick at Δprop(0)/2")
	}
	if _, ok := e.cfg.Beacon.CachedShareForRound(3); !ok {
		t.Fatal("round-3 share not pre-signed at Δprop(0)/2")
	}
	if next, ok := e.NextWake(at); ok && next <= at {
		t.Fatalf("next wake %v once the work is done", next)
	}
	b0, bundle := c.block(0, "leader block")
	c.deliver(b0.Proposer, bundle, prop(0))
	c.deliver(c.perm[0], c.nshare(b0, c.perm[0]), prop(0)+time.Millisecond)
	c.deliver(c.perm[2], c.nshare(b0, c.perm[2]), prop(0)+2*time.Millisecond)
	if ownBeaconShares(c.outs, e.ID())[3] {
		t.Fatal("round-3 share sent during round 1")
	}
	c.tick(ntry(0))
	if e.round != 2 || !e.inRound {
		t.Fatalf("round %d, in round %v; want inside round 2 after Δntry(0)", e.round, e.inRound)
	}
	if !ownBeaconShares(c.outs, e.ID())[3] {
		t.Fatal("round-3 share not broadcast on entering round 2")
	}
}

// stuckReveal is a beacon whose Reveal of round 2 keeps failing while it
// reports that round's quorum held: junk shares that are never evicted.
type stuckReveal struct {
	beacon.Source
	quorum  int
	reveals int
}

func (s *stuckReveal) ShareCount(k types.Round) int {
	if k == 2 {
		return s.quorum
	}
	return s.Source.ShareCount(k)
}

func (s *stuckReveal) Reveal(k types.Round) (hash.Digest, bool) {
	if k == 2 {
		s.reveals++
		return hash.Digest{}, false
	}
	return s.Source.Reveal(k)
}

// TestFailingBeaconRevealNeverWakesAPassedInstant: when the Reveal at
// Δprop(0)/2 fails and the quorum still looks held, NextWake must not name
// that instant again, or the runner would tick the engine once per
// nanosecond. Following NextWake through one simulated second of round 1
// takes a handful of ticks, each strictly later than the last.
func TestFailingBeaconRevealNeverWakesAPassedInstant(t *testing.T) {
	const bound, epsilon = 100 * time.Millisecond, 50 * time.Millisecond
	var src *stuckReveal
	c := newChoreographyWith(t, 4, 1, bound, func(cfg *Config) {
		cfg.Epsilon = epsilon
		src = &stuckReveal{
			Source: beacon.New(cfg.Keys.Beacon, cfg.Priv.Beacon, cfg.Self, cfg.Keys.GenesisSeed),
			quorum: types.BeaconQuorum(cfg.Keys.N),
		}
		cfg.Beacon = src
	})
	c.start()
	prop, _ := types.StandardDelays(bound, epsilon)
	now, ticks, wokeAtInstant := time.Duration(0), 0, false
	for {
		at, ok := c.eng.NextWake(now)
		if !ok || at > time.Second {
			break
		}
		if at <= now {
			t.Fatalf("tick %d: next wake %v at %v, not in the future", ticks, at, now)
		}
		if ticks++; ticks > 50 {
			t.Fatalf("%d ticks before %v", ticks, at)
		}
		wokeAtInstant = wokeAtInstant || at == prop(0)/2
		now = at
		c.tick(now)
	}
	if c.eng.round != 1 || !wokeAtInstant || src.reveals == 0 {
		t.Fatalf("round %d, woken at Δprop(0)/2: %v, %d Reveals of round 2; want round 1, the instant, a failed Reveal",
			c.eng.round, wokeAtInstant, src.reveals)
	}
}

// observingSource is a beacon.Source that looks at the engine calling it.
// Reveal(round+1) and ShareForRound(round+2) are calls no protocol clause
// makes: they are the eager path's, and must find nothing queued behind
// them, the previous round committed (its finalization shares would wait
// otherwise) and no replay in progress.
type observingSource struct {
	beacon.Source
	eng          *Engine
	eager        int
	behindOutput int
	beforeCommit int
	inReplay     int
	leaderAsks   int // Leader(round+1): the command stream's one call
}

func (o *observingSource) attach(e *Engine) { o.eng = e }

func (o *observingSource) note(ahead bool) {
	if !ahead {
		return
	}
	o.eager++
	if len(o.eng.out) > 0 {
		o.behindOutput++
	}
	if o.eng.kmax+1 < o.eng.round {
		o.beforeCommit++
	}
	if o.eng.replaying {
		o.inReplay++
	}
}

func (o *observingSource) Reveal(k types.Round) (hash.Digest, bool) {
	o.note(k == o.eng.round+1)
	return o.Source.Reveal(k)
}

func (o *observingSource) Leader(k types.Round) (types.PartyID, bool) {
	if k == o.eng.round+1 {
		o.leaderAsks++
	}
	return o.Source.Leader(k)
}

func (o *observingSource) ShareForRound(k types.Round) (*types.BeaconShare, error) {
	o.note(k == o.eng.round+2)
	return o.Source.ShareForRound(k)
}

// TestEagerBeaconWorkDelaysNoOutputAndSkipsReplay runs a WAL-backed
// cluster, then replays one party's log into a fresh engine. Message
// delays vary, so that a party trailing the others enters a round with
// the next round's quorum already held and output of its own to send:
// the case where eager work would hold that output back.
func TestEagerBeaconWorkDelaysNoOutputAndSkipsReplay(t *testing.T) {
	const n = 4
	var sources []*observingSource
	h := newDurableHarness(t, durableOptions{
		n: n, seed: 33,
		delay: simnet.Uniform{Min: time.Millisecond, Max: 40 * time.Millisecond},
		wrapBeacon: func(src beacon.Source) beacon.Source {
			o := &observingSource{Source: src}
			sources = append(sources, o)
			return o
		},
	})
	h.net.Start()
	h.runUntilFinalized(t, 40, 0, 1, 2, 3)
	for i, o := range sources {
		if o.eager == 0 {
			t.Errorf("party %d made no eager beacon call in 40 rounds", i)
		}
		if o.behindOutput != 0 {
			t.Errorf("party %d: %d of %d eager beacon calls ran with output queued behind them", i, o.behindOutput, o.eager)
		}
		if o.beforeCommit != 0 {
			t.Errorf("party %d: %d of %d eager beacon calls ran ahead of the previous round's commit", i, o.beforeCommit, o.eager)
		}
	}

	h.net.Crash(0)
	rec := h.recoverParty(t, 0)
	o := sources[n] // the source built for the restarted process
	if rec.CurrentRound() < 10 {
		t.Fatalf("replay reached round %d only", rec.CurrentRound())
	}
	if o.eager != 0 {
		t.Fatalf("%d eager beacon calls during WAL replay (%d with the replay flag up)", o.eager, o.inReplay)
	}
	rec.Tick(0)
	if o.behindOutput != 0 || o.inReplay != 0 {
		t.Fatalf("after replay: %d eager calls behind output, %d inside replay", o.behindOutput, o.inReplay)
	}
}
