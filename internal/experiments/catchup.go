package experiments

import (
	"fmt"
	"time"

	"icc/internal/node"
	"icc/internal/oracle"
	"icc/internal/types"
)

// Catchup measures laggard rejoin end to end (E22, superseding E21's
// responder-side measurement): a live cluster with the real threshold
// beacon runs ahead, then a laggard joins from round 1 with an empty
// pool. Responders must serve it the gap — blocks, notarizations, and
// one beacon share per round — while the laggard must digest it
// against the live firehose. One configuration per gap, the one every
// node runs: shares missing from the warm own-share cache are signed on
// the backfill worker; catch-up bundles take a strict-priority resync
// lane, one verified head admits its hash-linked prefix, and live rounds
// beyond the behind-window are shed at admission.
//
// Two losing arms are retired with the options that selected them, and
// EXPERIMENTS.md keeps their rows: every catch-up share signed inside
// handleStatus on the responder's engine loop with no own-share cache
// (10× slower to converge at gap 500), and async backfill in front of the
// single-queue, pre-lane verify pipeline (livelocked at gap 500).
//
// Reported per gap: the slow responder's commit rate in the
// measurement window before the join (steady) and after it (catch-up),
// and how long the laggard takes to converge past the frontier it saw
// at join time. Wall-clock measurement, same caveats as E20; gap 500 is
// the headline row.
func Catchup(scale Scale) *Table {
	t := &Table{
		ID:      "E22",
		Title:   "laggard rejoin: responder commit rate and laggard convergence",
		Columns: []string{"gap", "steady", "catch-up", "ratio", "converge"},
		Notes: []string{
			"real threshold beacon (a catch-up share costs one BLS-free threshold sign, ~ms); 4 parties, in-process transport",
			"steady/catch-up: responder commits/s in the window before/after the laggard joins; ratio = steady/catch-up",
			"converge: laggard commits past the join-time frontier; DNF = not within 120 s",
		},
	}
	for _, gap := range []int{50, 200, 500} {
		g := scale.scaleInt(gap)
		r := catchupRun(g)
		converge := "DNF"
		if !r.dnf {
			converge = fmt.Sprintf("%.2fs", r.converge.Seconds())
		}
		ratio := "—"
		if r.during > 0 {
			ratio = fmt.Sprintf("%.1fx", r.steady/r.during)
		}
		t.AddRow(fmt.Sprintf("%d", g),
			fmt.Sprintf("%.1f blk/s", r.steady),
			fmt.Sprintf("%.1f blk/s", r.during),
			ratio, converge)
	}
	return t
}

type catchupResult struct {
	steady   float64 // responder commits/s before the join
	during   float64 // responder commits/s after the join
	converge time.Duration
	dnf      bool
}

// catchupRun boots n−1 responders, lets them run `gap` rounds ahead,
// then starts the last party cold and measures the rejoin.
func catchupRun(gap int) catchupResult {
	const (
		n       = 4
		laggard = 3
	)
	window := 3 * time.Second
	log := oracle.NewLog(n)
	cl := newLiveCluster(n, func(i int, cfg *node.Config) {
		// Well above the cluster's per-round crypto cost so steady
		// state has CPU headroom: the responders form an exact 3-of-3
		// finalization quorum, and if the tempo saturates the machine
		// the laggard's crypto-heavy replay starves their delay
		// windows. With headroom the measurement isolates whether the
		// serve burst blocks the engine loop, instead of raw CPU
		// contention.
		cfg.DeltaBound = 25 * time.Millisecond
		cfg.Hooks = logged(log, i)
	})
	defer cl.stop()

	// Phase 1: responders build the gap.
	cl.startExcept(laggard)
	if !waitFor(time.Now().Add(3*time.Minute), func() bool { return log.Last(0).Round >= types.Round(gap) }) {
		return catchupResult{dnf: true}
	}

	// Phase 2: the laggard joins cold.
	cl.dropInbox(laggard)
	joinAt := cl.clk.Now()
	joinRound := log.Last(0).Round
	cl.nodes[laggard].Start()

	// The acceptance budget: with the resync lane and chain-aware
	// admission, even gap 500 on one core converges well inside 120 s.
	dnf := !waitFor(time.Now().Add(2*time.Minute), func() bool { return log.Last(laggard).Round >= joinRound })
	converge := cl.clk.Now() - joinAt
	// Let the post-join measurement window complete.
	if rem := window - (cl.clk.Now() - joinAt); rem > 0 {
		time.Sleep(rem)
	}
	var steady, during int
	for _, c := range log.Commits(0) {
		switch {
		case c.At >= joinAt-window && c.At < joinAt:
			steady++
		case c.At >= joinAt && c.At < joinAt+window:
			during++
		}
	}
	return catchupResult{
		steady:   float64(steady) / window.Seconds(),
		during:   float64(during) / window.Seconds(),
		converge: converge,
		dnf:      dnf,
	}
}
