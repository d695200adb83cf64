package core

// Durability tests: crash recovery from the WAL, certified checkpoints
// pruning the log, restart from checkpoint + WAL suffix, prune-boundary
// semantics, behind-prune-horizon detection, and the checkpoint-transfer
// rejoin path — all on the deterministic simnet cluster.

import (
	"bytes"
	"crypto/rand"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/checkpoint"
	"icc/internal/crypto/keys"
	"icc/internal/simnet"
	"icc/internal/types"
	"icc/internal/wal"
)

// chainState is a minimal deterministic replicated state for snapshot
// tests: the concatenation of committed block hashes. Every honest
// party commits the same chain, so every party's state bytes agree.
type chainState struct {
	data []byte
}

func (s *chainState) apply(b *types.Block) {
	d := b.Hash()
	s.data = append(s.data, d[:]...)
}

func (s *chainState) snapshot() []byte { return append([]byte(nil), s.data...) }

func (s *chainState) restore(b []byte) error {
	s.data = append([]byte(nil), b...)
	return nil
}

// durableHarness is a simnet cluster where every party runs with a WAL
// (and optionally a checkpoint store) under a per-test temp directory.
type durableHarness struct {
	pub    *keys.Public
	privs  []keys.Private
	net    *simnet.Network
	eng    []*Engine
	wals   []*wal.Log
	stores []*checkpoint.Store
	states []*chainState
	dirs   []string
	// committed[p] is party p's committed chain; stateAt[p][k] the state
	// snapshot immediately after applying the round-k block.
	committed [][]*types.Block
	stateAt   []map[types.Round][]byte

	opts durableOptions
}

type durableOptions struct {
	n          int
	seed       int64
	interval   types.Round // CheckpointInterval (0 = no checkpoints)
	pruneDepth types.Round
	resync     time.Duration // stall interval (0 = resyncDeltas·Δbnd)
	segBytes   int64         // WAL segment size (0 = default, i.e. one segment)
	fault      map[int]wal.FaultHook
	// realBeacon selects the production BLS beacon, whose digests chain:
	// a laggard cannot verify rounds past its prune horizon, which is
	// exactly the stuck state the resync-lost and checkpoint-transfer
	// paths exist for. The simulated beacon derives digests from shares
	// alone, so simulated laggards can always jump-commit back in.
	realBeacon bool
	// delay overrides the default fixed 10 ms message delay.
	delay simnet.DelayModel
	// wrapBeacon, if set, decorates each simulated beacon before the
	// engine gets it; a wrapper with an attach(*Engine) method is handed
	// the engine built over it.
	wrapBeacon func(beacon.Source) beacon.Source
	// conf, if set, gets the last word on party i's engine config, every
	// time an engine is built for it.
	conf func(i int, cfg *Config)
}

func newDurableHarness(t testing.TB, opts durableOptions) *durableHarness {
	t.Helper()
	pub, privs, err := keys.Deal(rand.Reader, opts.n)
	if err != nil {
		t.Fatal(err)
	}
	h := &durableHarness{
		pub:       pub,
		privs:     privs,
		opts:      opts,
		committed: make([][]*types.Block, opts.n),
		stateAt:   make([]map[types.Round][]byte, opts.n),
	}
	if opts.delay == nil {
		opts.delay = simnet.Fixed{D: 10 * time.Millisecond}
	}
	h.net = simnet.New(simnet.Options{Seed: opts.seed, Delay: opts.delay})
	base := t.TempDir()
	for i := 0; i < opts.n; i++ {
		h.dirs = append(h.dirs, filepath.Join(base, "party", string(rune('0'+i))))
		h.stateAt[i] = make(map[types.Round][]byte)
		h.states = append(h.states, &chainState{})
		eng, w, s := h.buildEngine(t, i)
		h.eng = append(h.eng, eng)
		h.wals = append(h.wals, w)
		h.stores = append(h.stores, s)
		h.net.AddNode(eng, true)
	}
	t.Cleanup(func() {
		for _, w := range h.wals {
			_ = w.Close()
		}
		for _, s := range h.stores {
			s.Close()
		}
	})
	return h
}

// buildEngine constructs party i's engine over its durable directories.
// Calling it again after a crash models a process restart: fresh
// in-memory state, same disk.
func (h *durableHarness) buildEngine(t testing.TB, i int) (*Engine, *wal.Log, *checkpoint.Store) {
	t.Helper()
	w, err := wal.Open(filepath.Join(h.dirs[i], "wal"), wal.Options{
		SegmentBytes: h.opts.segBytes,
		Fault:        h.opts.fault[i],
	})
	if err != nil {
		t.Fatal(err)
	}
	var store *checkpoint.Store
	if h.opts.interval > 0 {
		store, err = checkpoint.OpenStore(filepath.Join(h.dirs[i], "checkpoints"), checkpoint.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
	}
	st := h.states[i]
	var src beacon.Source
	if !h.opts.realBeacon {
		src = beacon.NewSimulated(h.opts.n, types.PartyID(i), h.pub.GenesisSeed)
		if h.opts.wrapBeacon != nil {
			src = h.opts.wrapBeacon(src)
		}
	}
	cfg := Config{
		Self:               types.PartyID(i),
		Keys:               h.pub,
		Priv:               h.privs[i],
		Beacon:             src,
		DeltaBound:         100 * time.Millisecond,
		PruneDepth:         h.opts.pruneDepth,
		WAL:                w,
		Checkpoints:        store,
		CheckpointInterval: h.opts.interval,
		StateSnapshot:      st.snapshot,
		StateRestore:       st.restore,
		Hooks: Hooks{
			OnCommit: func(b *types.Block, now time.Duration) {
				st.apply(b)
				h.committed[i] = append(h.committed[i], b)
				h.stateAt[i][b.Round] = st.snapshot()
			},
		},
	}
	if h.opts.conf != nil {
		h.opts.conf(i, &cfg)
	}
	eng := NewEngine(cfg)
	if h.opts.resync != 0 {
		eng.setResyncInterval(h.opts.resync)
	}
	if a, ok := src.(interface{ attach(*Engine) }); ok {
		a.attach(eng)
	}
	return eng, w, store
}

// runUntilFinalized drives the network until pred parties have
// finalized at least k rounds.
func (h *durableHarness) runUntilFinalized(t testing.TB, k types.Round, parties ...int) {
	t.Helper()
	ok := h.net.RunUntil(func() bool {
		for _, p := range parties {
			if h.eng[p].FinalizedRound() < k {
				return false
			}
		}
		return true
	}, 10*time.Minute)
	if !ok {
		for _, p := range parties {
			t.Logf("party %d: round %d finalized %d", p, h.eng[p].CurrentRound(), h.eng[p].FinalizedRound())
		}
		t.Fatalf("parties %v did not finalize round %d in simulated time", parties, k)
	}
}

// recoverParty models kill -9 + restart for party i: the WAL loses its
// unsynced tail (Crash closes without a final flush), then a fresh
// engine over the same directory replays. The recovered engine is NOT
// re-attached to the network; tests inspect it directly.
func (h *durableHarness) recoverParty(t testing.TB, i int) *Engine {
	t.Helper()
	h.wals[i].Crash()
	if h.stores[i] != nil {
		h.stores[i].Close()
	}
	// Reset in-memory state the way a dead process does, keeping the
	// recorded history for assertions.
	h.states[i] = &chainState{}
	h.committed[i] = nil
	h.stateAt[i] = make(map[types.Round][]byte)
	eng, w, s := h.buildEngine(t, i)
	h.wals[i], h.stores[i] = w, s
	if _, err := eng.Recover(); err != nil {
		t.Fatalf("recover party %d: %v", i, err)
	}
	return eng
}

// TestRecoverFromWALResumesFrontier: a party killed mid-run replays its
// WAL into a fresh engine and lands back on the same finalized chain —
// the recovered commits are a prefix of the live history with identical
// state bytes, and the engine is ready to run (not replaying, no queued
// output).
func TestRecoverFromWALResumesFrontier(t *testing.T) {
	h := newDurableHarness(t, durableOptions{n: 4, seed: 11})
	h.net.Start()
	h.runUntilFinalized(t, 8, 0, 1, 2, 3)
	h.net.Crash(0)

	liveChain := append([]*types.Block(nil), h.committed[0]...)
	liveState := make(map[types.Round][]byte, len(h.stateAt[0]))
	for k, v := range h.stateAt[0] {
		liveState[k] = v
	}
	liveFinal := h.eng[0].FinalizedRound()
	liveRound := h.eng[0].CurrentRound()

	rec := h.recoverParty(t, 0)
	if rec.Replaying() {
		t.Fatal("engine still marked replaying after Recover")
	}
	if got := rec.FinalizedRound(); got > liveFinal || got == 0 {
		t.Fatalf("recovered frontier %d, live was %d", got, liveFinal)
	}
	if rec.CurrentRound() > liveRound {
		t.Fatalf("recovered round %d ahead of live round %d", rec.CurrentRound(), liveRound)
	}
	// The unsynced tail may be lost, never rewritten: replayed commits
	// must be a prefix of what the live process committed.
	if len(h.committed[0]) == 0 || len(h.committed[0]) > len(liveChain) {
		t.Fatalf("replayed %d commits, live had %d", len(h.committed[0]), len(liveChain))
	}
	for i, b := range h.committed[0] {
		if b.Hash() != liveChain[i].Hash() {
			t.Fatalf("replayed commit %d diverges from live history", i)
		}
	}
	k := rec.FinalizedRound()
	if want, ok := liveState[k]; ok {
		if got := h.states[0].snapshot(); !bytes.Equal(got, want) {
			t.Fatalf("recovered state at round %d does not match live state", k)
		}
	}
	// Replay must not have queued any output for resending.
	if outs := rec.Tick(0); len(outs) != 0 {
		for _, o := range outs {
			t.Logf("leaked output: %T", o.Msg)
		}
		t.Fatal("recovered engine resent artifacts on first tick")
	}
}

// TestCheckpointCertifiedAndPrunesWAL: with CheckpointInterval set, the
// cluster certifies boundary checkpoints (t+1 shares, verifiable from
// public keys alone) and prunes WAL segments below them.
func TestCheckpointCertifiedAndPrunesWAL(t *testing.T) {
	h := newDurableHarness(t, durableOptions{
		n: 4, seed: 12,
		interval:   4,
		pruneDepth: 8,
		resync:     500 * time.Millisecond,
		segBytes:   1 << 10, // rotate often enough that pruning has closed segments to delete
	})
	h.net.Start()
	h.runUntilFinalized(t, 24, 0, 1, 2, 3)
	for i := 0; i < 4; i++ {
		cp, err := h.stores[i].Latest()
		if err != nil || cp == nil {
			t.Fatalf("party %d: no certified checkpoint: %v", i, err)
		}
		if cp.Round < 8 || cp.Round%4 != 0 {
			t.Fatalf("party %d: unexpected checkpoint round %d", i, cp.Round)
		}
		if err := checkpoint.Verify(h.pub, cp); err != nil {
			t.Fatalf("party %d: stored checkpoint does not verify: %v", i, err)
		}
		// The certified state is the state every party had at the boundary.
		if want, ok := h.stateAt[i][cp.Round]; ok {
			if checkpoint.StateDigest(want) != cp.StateHash {
				t.Fatalf("party %d: checkpoint state hash does not match executed state at round %d", i, cp.Round)
			}
		}
	}
	// The WAL must have been truncated below the certified boundaries:
	// with the frontier at 24 and the newest checkpoint at or past 20,
	// the segments holding the first boundary's history (rounds ≤ 4) are
	// redundant and must be gone from every party's log.
	for i := 0; i < 4; i++ {
		stale := 0
		_ = h.wals[i].Replay(func(m types.Message) {
			if bm, ok := m.(*types.BlockMsg); ok && bm.Block != nil && bm.Block.Round <= 4 {
				stale++
			}
		})
		if stale > 0 {
			t.Fatalf("party %d: %d block records at or below round 4 survive despite checkpoint at %d",
				i, stale, h.stores[i].LatestRound())
		}
	}
}

// TestRecoverFromCheckpointAndWALSuffix: after checkpoints have pruned
// the log, a restart rebuilds from the newest certified checkpoint plus
// the WAL records above it, and the restored state matches what the
// live process had executed at the recovered frontier.
func TestRecoverFromCheckpointAndWALSuffix(t *testing.T) {
	h := newDurableHarness(t, durableOptions{
		n: 4, seed: 13,
		interval:   4,
		pruneDepth: 8,
		resync:     500 * time.Millisecond,
		segBytes:   4 << 10,
	})
	h.net.Start()
	h.runUntilFinalized(t, 16, 0, 1, 2, 3)
	h.net.Crash(2)

	liveState := make(map[types.Round][]byte, len(h.stateAt[2]))
	for k, v := range h.stateAt[2] {
		liveState[k] = v
	}
	ckptRound := h.stores[2].LatestRound()
	if ckptRound == 0 {
		t.Fatal("no checkpoint on disk before the crash")
	}

	rec := h.recoverParty(t, 2)
	if got := rec.FinalizedRound(); got < ckptRound {
		t.Fatalf("recovered frontier %d below the stored checkpoint %d", got, ckptRound)
	}
	k := rec.FinalizedRound()
	want, ok := liveState[k]
	if !ok {
		t.Fatalf("recovered frontier %d was never a live commit", k)
	}
	if got := h.states[2].snapshot(); !bytes.Equal(got, want) {
		t.Fatalf("state restored from checkpoint+WAL differs from live execution at round %d", k)
	}
	// Replayed commits only cover rounds above the checkpoint; below it
	// the state came from the snapshot.
	for _, b := range h.committed[2] {
		if b.Round <= ckptRound {
			t.Fatalf("replay re-committed round %d at or below the checkpoint %d", b.Round, ckptRound)
		}
	}
}

// TestPruneBoundaryExact locks the retention cut: with PruneDepth d and
// frontier kmax, rounds strictly below kmax−d are gone from the pool
// and the beacon refuses their shares, while every round at or above
// the cut is still served. An off-by-one here either leaks memory or
// strands laggards one round early.
func TestPruneBoundaryExact(t *testing.T) {
	const d = 8
	h := newDurableHarness(t, durableOptions{n: 4, seed: 14, pruneDepth: d})
	h.net.Start()
	h.runUntilFinalized(t, 20, 0, 1, 2, 3)
	for i := 0; i < 4; i++ {
		e := h.eng[i]
		cut := e.FinalizedRound() - d
		for k := types.Round(1); k < cut; k++ {
			if blocks := e.Pool().BlocksInRound(k); len(blocks) != 0 {
				t.Fatalf("party %d: round %d (< cut %d) still holds %d blocks", i, k, cut, len(blocks))
			}
		}
		// The cut itself and everything the engine committed after it
		// must remain servable for artifact catch-up.
		for k := cut; k <= e.FinalizedRound(); k++ {
			if len(e.Pool().BlocksInRound(k)) == 0 {
				t.Fatalf("party %d: round %d (>= cut %d) was pruned", i, k, cut)
			}
		}
		// Beacon watermark aligns with the pool cut: shares below it are
		// refused, at it they are signable.
		if _, err := e.cfg.Beacon.ShareForRound(cut - 1); !errors.Is(err, beacon.ErrPruned) {
			t.Fatalf("party %d: share below the cut gave %v, want ErrPruned", i, err)
		}
		if _, err := e.cfg.Beacon.ShareForRound(cut); err != nil {
			t.Fatalf("party %d: share at the cut refused: %v", i, err)
		}
	}
}

// TestResyncLostDetection: a partitioned party that falls more than
// PruneDepth behind a cluster with no checkpoint path flags itself lost
// (typed error + hook) instead of polling Status forever.
func TestResyncLostDetection(t *testing.T) {
	const d = 8
	var lostGap types.Round
	h := newDurableHarness(t, durableOptions{
		n: 4, seed: 15,
		pruneDepth: d,
		resync:     300 * time.Millisecond,
		realBeacon: true,
	})
	lostFired := 0
	base := h.eng[3].cfg.Hooks
	h.eng[3].cfg.Hooks.OnResyncLost = func(gap types.Round, now time.Duration) {
		lostFired++
		lostGap = gap
		if base.OnResyncLost != nil {
			base.OnResyncLost(gap, now)
		}
	}
	h.net.Start()
	h.runUntilFinalized(t, 2, 3)
	// Crash (messages lost), not Partition (messages queued): eventual
	// delivery would hand the healed node the complete backlog and it
	// would replay history the ordinary way. A crashed node misses the
	// traffic for good — the hole only resync could fill, except the
	// peers have pruned it.
	h.net.Crash(3)
	h.runUntilFinalized(t, h.eng[3].CurrentRound()+2*d, 0, 1, 2)
	h.net.Restore(3)
	ok := h.net.RunUntil(func() bool { return h.eng[3].ResyncLost() != nil }, 2*time.Minute)
	if !ok {
		t.Fatalf("laggard at round %d never flagged resync-lost (frontier %d)",
			h.eng[3].CurrentRound(), h.eng[0].FinalizedRound())
	}
	var lostErr *ResyncLostError
	if !errors.As(h.eng[3].ResyncLost(), &lostErr) {
		t.Fatalf("ResyncLost returned %T, want *ResyncLostError", h.eng[3].ResyncLost())
	}
	if lostErr.PruneDepth != d || lostErr.Frontier <= lostErr.Round+d {
		t.Fatalf("implausible lost error: %v", lostErr)
	}
	if lostFired != 1 {
		t.Fatalf("OnResyncLost fired %d times, want exactly once", lostFired)
	}
	if lostGap <= d {
		t.Fatalf("reported gap %d not beyond the prune horizon %d", lostGap, d)
	}
}

// TestCheckpointTransferRejoin is the tentpole acceptance path: a party
// partitioned until the cluster's frontier is beyond its prune horizon
// rejoins via a verified checkpoint transfer — installing a peer's
// certified state and committing live rounds again, with state bytes
// identical to the responders'.
func TestCheckpointTransferRejoin(t *testing.T) {
	const d = 8
	h := newDurableHarness(t, durableOptions{
		n: 4, seed: 16,
		interval:   4,
		pruneDepth: d,
		resync:     300 * time.Millisecond,
		segBytes:   4 << 10,
		realBeacon: true,
	})
	installed := 0
	h.eng[3].cfg.Hooks.OnCheckpointInstalled = func(k types.Round, now time.Duration) { installed++ }
	h.net.Start()
	h.runUntilFinalized(t, 2, 3)
	// Crash, not Partition: see TestResyncLostDetection.
	h.net.Crash(3)
	stuckAt := h.eng[3].CurrentRound()
	h.runUntilFinalized(t, stuckAt+3*d, 0, 1, 2)
	h.net.Restore(3)

	rejoinTarget := h.eng[0].FinalizedRound()
	ok := h.net.RunUntil(func() bool { return h.eng[3].FinalizedRound() >= rejoinTarget }, 5*time.Minute)
	if !ok {
		t.Fatalf("laggard stuck at round %d / finalized %d (cluster frontier %d)",
			h.eng[3].CurrentRound(), h.eng[3].FinalizedRound(), h.eng[0].FinalizedRound())
	}
	if installed == 0 {
		t.Fatal("laggard caught up without installing a checkpoint — transfer path untested")
	}
	if err := h.eng[3].ResyncLost(); err != nil {
		t.Fatalf("rejoined party still flagged lost: %v", err)
	}
	// Post-install commits must produce the same state bytes as the
	// responders at every shared round.
	compared := 0
	for k, st := range h.stateAt[3] {
		if want, ok := h.stateAt[0][k]; ok {
			if !bytes.Equal(st, want) {
				t.Fatalf("state divergence at round %d after checkpoint rejoin", k)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no common committed rounds to compare after rejoin")
	}
}

// TestCheckpointInstallAsksForTheRoundsAboveAtOnce: a party that
// installs a peer's checkpoint is behind whoever sent it, so its Status
// for the rounds above leaves at once, and the responders, whose
// limiter the checkpoint charged, answer it: the party commits past the
// checkpoint well within one stall interval of installing it.
func TestCheckpointInstallAsksForTheRoundsAboveAtOnce(t *testing.T) {
	const (
		d        = 8
		interval = 300 * time.Millisecond
	)
	h := newDurableHarness(t, durableOptions{
		n: 4, seed: 16,
		interval:   4,
		pruneDepth: d,
		resync:     interval,
		segBytes:   4 << 10,
		realBeacon: true,
	})
	var installed types.Round
	var installedAt, askedAt, committedAt time.Duration
	hooks := &h.eng[3].cfg.Hooks
	hooks.OnCheckpointInstalled = func(k types.Round, now time.Duration) {
		if installed == 0 {
			installed, installedAt = k, now
		}
	}
	hooks.OnResync = func(k types.Round, now time.Duration) {
		if installed > 0 && askedAt == 0 {
			askedAt = now
		}
	}
	commit := hooks.OnCommit
	hooks.OnCommit = func(b *types.Block, now time.Duration) {
		commit(b, now)
		if installed > 0 && b.Round > installed && committedAt == 0 {
			committedAt = now
		}
	}
	h.net.Start()
	h.runUntilFinalized(t, 2, 3)
	h.net.Crash(3)
	h.runUntilFinalized(t, h.eng[3].CurrentRound()+3*d, 0, 1, 2)
	h.net.Restore(3)
	if !h.net.RunUntil(func() bool { return committedAt > 0 }, 5*time.Minute) {
		t.Fatalf("laggard never committed past a checkpoint (installed %d, round %d)", installed, h.eng[3].CurrentRound())
	}
	if askedAt < installedAt || askedAt > installedAt+time.Millisecond {
		t.Errorf("installed checkpoint %d at %v, next Status at %v: want at once", installed, installedAt, askedAt)
	}
	if committedAt-installedAt > interval/2 {
		t.Errorf("committed past checkpoint %d %v after installing it, want under %v", installed, committedAt-installedAt, interval/2)
	}
}

// TestStatusLimiterAfterACheckpoint: a checkpoint answer covers the
// rounds up to it, so one Status from above it is answered within the
// interval — and nothing more: a peer alternating between a round below
// our horizon and one above the checkpoint gets two answers an interval.
func TestStatusLimiterAfterACheckpoint(t *testing.T) {
	const d = 8
	h := newDurableHarness(t, durableOptions{n: 4, seed: 16, interval: 4, pruneDepth: d, resync: 300 * time.Millisecond})
	h.net.Start()
	h.runUntilFinalized(t, 4*d, 0)
	e, peer := h.eng[0], types.PartyID(3)
	ckpt := h.stores[0].LatestRound()
	answers := func(st *types.Status, now time.Duration) int {
		if answerTo(e.HandleMessage(peer, st, now), peer) == nil {
			return 0
		}
		return 1
	}
	now := h.net.Now() + 300*time.Millisecond // past any answer the live run gave
	below := &types.Status{Round: 1, Seq: 1}
	above := &types.Status{Round: ckpt + 1, Finalized: ckpt, Seq: 1}
	if answers(below, now) != 1 {
		t.Fatal("a peer behind the prune horizon got no checkpoint")
	}
	if answers(below, now+time.Millisecond) != 0 {
		t.Fatal("a second Status below the checkpoint was answered within the interval")
	}
	if answers(above, now+2*time.Millisecond) != 1 {
		t.Fatal("the Status from above the checkpoint waited out the interval")
	}
	for i, st := range []*types.Status{below, above} {
		if answers(st, now+time.Duration(3+i)*time.Millisecond) != 0 {
			t.Fatalf("Status for round %d answered a third time within the interval", st.Round)
		}
	}
	if answers(below, now+2*time.Millisecond+300*time.Millisecond) != 1 {
		t.Fatal("no answer an interval after the last")
	}
}

// TestWALFaultDegradesNodeNotCluster: fsync failures flip one party's
// WAL to degraded (memory-only) without stopping it from participating;
// the cluster keeps finalizing.
func TestWALFaultDegradesNodeNotCluster(t *testing.T) {
	calls := 0
	h := newDurableHarness(t, durableOptions{
		n: 4, seed: 17,
		fault: map[int]wal.FaultHook{
			1: func(op string) error {
				if op == "sync" {
					calls++
					if calls > 3 {
						return errors.New("injected: disk gone")
					}
				}
				return nil
			},
		},
	})
	h.net.Start()
	h.runUntilFinalized(t, 10, 0, 1, 2, 3)
	if !h.wals[1].Degraded() {
		t.Fatal("injected sync failures did not degrade the WAL")
	}
	if h.wals[0].Degraded() {
		t.Fatal("healthy party's WAL degraded")
	}
}
