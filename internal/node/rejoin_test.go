package node_test

// Rejoin convergence under the async catch-up service: a party starts
// hundreds of rounds behind a live cluster and must converge — while
// the responders' commit cadence stays within a bounded factor of
// steady state — with the engine loops, backfill workers, verify
// pipelines and transport all running concurrently under -race.

import (
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/node"
	"icc/internal/transport"
	"icc/internal/types"
)

// rejoin starts every party but the laggard, waits until party 0 is gap
// rounds ahead, then starts the laggard cold and returns the round the
// cluster had reached and the instant it joined, on the cluster's clock.
func rejoin(c *testCluster, laggard int, gap types.Round, timeout time.Duration) (types.Round, time.Duration) {
	c.t.Helper()
	for i, nd := range c.nodes {
		if i != laggard {
			nd.Start()
		}
	}
	waitFor(c.t, timeout, "responders did not build the gap", func() bool { return c.round(0) >= gap })
	// The laggard's inbox buffered part of that traffic; a restarted
	// process has lost every in-flight message, and keeping the buffer
	// would let the laggard replay history without ever touching the
	// resync layer.
	c.dropInbox(laggard)
	joinRound, joinAt := c.round(0), c.clk.Now()
	c.nodes[laggard].Start()
	return joinRound, joinAt
}

// TestRejoinConvergesWithoutCollapsingResponders: before the backfill
// worker, responders signed one beacon share per backfilled round inline
// on their engine loops. The responders' share caches are deliberately
// tiny here so nearly every catch-up share takes the asynchronous path,
// and the laggard's link is lossy, so convergence must survive retries.
func TestRejoinConvergesWithoutCollapsingResponders(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-cluster test")
	}
	const (
		n             = 4
		laggard       = 3
		gap           = 200 // rounds the cluster is ahead before the laggard starts
		cadenceWindow = 3 * time.Second
		cadenceFactor = 5 // responders may slow at most this much during catch-up
	)
	c := newTestCluster(t, n, false)
	for i := 0; i < n; i++ {
		i := i
		c.build(i, func(cfg *node.Config) {
			cfg.DeltaBound = 20 * time.Millisecond
			if i != laggard {
				cfg.Beacon.(*beacon.Simulated).SetShareCacheSize(16)
				return
			}
			// Status messages and share traffic, the backfill worker's
			// included, are dropped probabilistically.
			cfg.Endpoint = transport.NewFaulty(cfg.Endpoint, cfg.Self, transport.FaultPlan{Seed: 99, DropRate: 0.15})
		})
	}
	joinRound, joinAt := rejoin(c, laggard, gap, 120*time.Second)

	last := time.Now()
	waitFor(t, 120*time.Second, "laggard did not converge", func() bool {
		if time.Since(last) > 5*time.Second {
			last = time.Now()
			snap := c.reg.Snapshot()
			t.Logf("laggard commit %d / %d (responder %d) shares=%v req=%v drop[closed,inflight,full]=%v,%v,%v",
				c.round(laggard), joinRound, c.round(0),
				snap["icc_resync_backfill_shares_total"],
				snap["icc_resync_backfill_requests_total"],
				snap[`icc_resync_backfill_dropped_total{reason="closed"}`],
				snap[`icc_resync_backfill_dropped_total{reason="inflight"}`],
				snap[`icc_resync_backfill_dropped_total{reason="full"}`])
		}
		return c.round(laggard) >= joinRound
	})

	// Responder cadence must not collapse during catch-up: commits in
	// the window after the join within cadenceFactor of the window
	// before. (On the pre-refactor seed a 200-round gap stalled every
	// responder for the whole signing burst.)
	time.Sleep(cadenceWindow) // let the post-join window complete
	var before, during int
	for _, cm := range c.log.Commits(0) {
		switch {
		case cm.At > joinAt-cadenceWindow && cm.At < joinAt:
			before++
		case cm.At >= joinAt && cm.At < joinAt+cadenceWindow:
			during++
		}
	}
	if before == 0 {
		t.Fatal("no steady-state commits before the join — test setup broken")
	}
	if during < before/cadenceFactor {
		t.Fatalf("responder cadence collapsed during catch-up: %d commits in %v before join, %d after (bound: ≥ 1/%d)",
			before, cadenceWindow, during, cadenceFactor)
	}
	c.agree()

	// The async path must actually have run: with 16-entry caches and a
	// 200-round gap, the workers — not the engine loops — signed the
	// catch-up shares.
	snap := c.reg.Snapshot()
	if snap["icc_resync_backfill_shares_total"] == 0 {
		t.Fatalf("backfill workers signed nothing — the async path was not exercised (snapshot: requests=%v dropped=%v)",
			snap["icc_resync_backfill_requests_total"], snap["icc_resync_backfill_dropped_total"])
	}
}

// TestRejoinLargeGapConverges is the laggard-ingest livelock
// regression: a party joining 500 rounds behind a live cluster must
// converge within the experiment budget (E22: 120 s on one core).
// Before the two-lane pipeline, catch-up batches queued behind the
// live firehose and the laggard's backlog only grew — every
// configuration DNF'd at five minutes. The test also checks the fix is
// doing what it claims: catch-up content must travel the resync lane's
// chain-aware path (icc_verify_chain_admitted_total).
func TestRejoinLargeGapConverges(t *testing.T) {
	gap := types.Round(500)
	if testing.Short() {
		gap = 60 // bounded, not skipped: the lanes still get exercised
	}
	const (
		n       = 4
		laggard = 3
	)
	c := newTestCluster(t, n, false)
	for i := 0; i < n; i++ {
		c.build(i, func(cfg *node.Config) { cfg.DeltaBound = 10 * time.Millisecond })
	}
	joinRound, _ := rejoin(c, laggard, gap, 240*time.Second)

	// The E22 budget: convergence past the join-time frontier within
	// 120 s (the seed DNF'd at 5 min on every configuration).
	waitFor(t, 120*time.Second, "laggard did not converge past the join frontier", func() bool {
		return c.round(laggard) >= joinRound
	})

	// The mechanism, not just the outcome: catch-up content was
	// admitted by parent-digest linkage instead of per-round multisig
	// verification.
	if c.reg.Snapshot()["icc_verify_chain_admitted_total"] == 0 {
		t.Fatal("no chain-admitted artifacts — catch-up bundles did not take the resync fast path")
	}
	c.agree()
}
