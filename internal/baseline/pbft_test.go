package baseline

import (
	"testing"
	"time"

	"icc/internal/oracle"
	"icc/internal/simnet"
	"icc/internal/types"
)

func runPBFT(t *testing.T, n int, delta, bound time.Duration, cfg func(i int, c *PBFTConfig), crash []types.PartyID, until time.Duration) *oracle.Log {
	t.Helper()
	nw := simnet.New(simnet.Options{Seed: 9, Delay: simnet.Fixed{D: delta}})
	log := oracle.NewLog(n)
	for i := 0; i < n; i++ {
		c := PBFTConfig{
			Self: types.PartyID(i), N: n,
			DeltaBound: bound,
			OnCommit:   log.Decided(types.PartyID(i)),
		}
		if cfg != nil {
			cfg(i, &c)
		}
		nw.AddNode(NewPBFT(c), true)
	}
	for _, p := range crash {
		nw.Crash(p)
	}
	nw.Start()
	nw.Run(until)
	safe(t, log)
	return log
}

func TestPBFTCommitsInOrder(t *testing.T) {
	log := runPBFT(t, 4, 10*time.Millisecond, 100*time.Millisecond, nil, nil, 3*time.Second)
	if got := shortest(log, 4); got < 20 {
		t.Fatalf("only %d commits in 3s", got)
	}
	// Sequences strictly increasing by one.
	for i, c := range log.Commits(0) {
		if c.Round != types.Round(i+1) {
			t.Fatalf("sequence %d at position %d", c.Round, i)
		}
	}
}

func TestPBFTViewChangeOnCrashedLeader(t *testing.T) {
	// Leader of view 0 is party 0; crash it. The cluster must view-change
	// and resume under leader 1.
	log := runPBFT(t, 4, 10*time.Millisecond, 50*time.Millisecond, nil,
		[]types.PartyID{0}, 5*time.Second)
	// Party 0 is crashed; the others must have committed.
	if got := shortest(log, 4, 0); got < 10 {
		t.Fatalf("a live party committed only %d after the leader crash", got)
	}
}

// TestPBFTSlowLeaderAttack reproduces the fragility result of [15] that
// the paper's "Robust consensus" discussion builds on: a leader that
// proposes just inside the view-change timeout is never replaced, and
// throughput collapses to ≈ one batch per timeout instead of one per
// ≈3δ — while remaining "live" in the technical sense.
func TestPBFTSlowLeaderAttack(t *testing.T) {
	const delta = 10 * time.Millisecond
	const bound = 50 * time.Millisecond
	honest := runPBFT(t, 4, delta, bound, nil, nil, 5*time.Second)
	slow := runPBFT(t, 4, delta, bound, func(i int, c *PBFTConfig) {
		if i == 0 { // the stable leader
			c.ProposeDelay = 150 * time.Millisecond // just under the 200ms timeout
		}
	}, nil, 5*time.Second)
	h, s := shortest(honest, 4), shortest(slow, 4)
	if s == 0 {
		t.Fatal("slow leader triggered view change — attack should stay under the timeout")
	}
	if float64(s) > 0.3*float64(h) {
		t.Fatalf("slow-leader attack ineffective: %d vs %d commits", s, h)
	}
	t.Logf("PBFT throughput: honest %d commits, slow-leader %d commits (%.0f%%)", h, s, 100*float64(s)/float64(h))
}

func TestPBFTLatencyIs3Delta(t *testing.T) {
	const delta = 10 * time.Millisecond
	const n = 4
	log := runPBFT(t, n, delta, 100*time.Millisecond, nil, nil, 2*time.Second)
	commitAt := firstCommit(log, n)
	if len(commitAt) < 10 {
		t.Fatalf("%d commits", len(commitAt))
	}
	// Steady state: pre-prepare for seq s goes out when s−1 executes at
	// the leader; commit of s lands ≈3δ later. Gap between consecutive
	// commits ≈ 3δ (the un-pipelined PBFT reciprocal throughput).
	gap := (commitAt[10] - commitAt[5]) / 5
	if gap < 2*delta || gap > 4*delta {
		t.Fatalf("inter-commit gap %v, want ≈3δ = %v", gap, 3*delta)
	}
}
