package baseline

import (
	"slices"
	"testing"
	"time"

	"icc/internal/engine"
	"icc/internal/oracle"
	"icc/internal/simnet"
	"icc/internal/types"
)

// shortest is how many commits the party with fewest has, among all but
// skip.
func shortest(l *oracle.Log, n int, skip ...types.PartyID) int {
	m := -1
	for p := types.PartyID(0); int(p) < n; p++ {
		if c := l.Len(p); !slices.Contains(skip, p) && (m < 0 || c < m) {
			m = c
		}
	}
	return m
}

// firstCommit is when some party first committed each view or sequence.
func firstCommit(l *oracle.Log, n int) map[types.Round]time.Duration {
	at := make(map[types.Round]time.Duration)
	for p := types.PartyID(0); int(p) < n; p++ {
		for _, c := range l.Commits(p) {
			if t, ok := at[c.Round]; !ok || c.At < t {
				at[c.Round] = c.At
			}
		}
	}
	return at
}

// safe fails the test unless the run kept agreement and chain.
func safe(t *testing.T, l *oracle.Log) {
	t.Helper()
	if err := oracle.Judge(l, oracle.Expect{Holds: oracle.Safety}); err != nil {
		t.Fatal(err)
	}
}

func runHotStuff(t *testing.T, n int, delta time.Duration, minCommits int) *oracle.Log {
	t.Helper()
	nw := simnet.New(simnet.Options{Seed: 1, Delay: simnet.Fixed{D: delta}})
	log := oracle.NewLog(n)
	for i := 0; i < n; i++ {
		h := NewHotStuff(HotStuffConfig{
			Self: types.PartyID(i), N: n,
			DeltaBound: 100 * time.Millisecond,
			OnCommit:   log.Decided(types.PartyID(i)),
		})
		nw.AddNode(h, true)
	}
	nw.Start()
	if !nw.RunUntil(func() bool { return shortest(log, n) >= minCommits }, 5*time.Minute) {
		t.Fatalf("hotstuff made no progress: min commits %d", shortest(log, n))
	}
	safe(t, log)
	return log
}

func TestHotStuffCommits(t *testing.T) {
	runHotStuff(t, 4, 10*time.Millisecond, 10)
}

func TestHotStuffThroughputIs2Delta(t *testing.T) {
	const delta = 10 * time.Millisecond
	// Gap between consecutive commits at one party ≈ 2δ.
	seq := runHotStuff(t, 4, delta, 30).Commits(0)
	if len(seq) < 10 {
		t.Fatal("too few commits")
	}
	// Views must be consecutive in the steady state (pipelined commits).
	for i := 1; i < len(seq); i++ {
		if seq[i].Round != seq[i-1].Round+1 {
			t.Fatalf("non-consecutive committed views %d -> %d", seq[i-1].Round, seq[i].Round)
		}
	}
}

func TestTendermintCommits(t *testing.T) {
	const n = 4
	nw := simnet.New(simnet.Options{Seed: 2, Delay: simnet.Fixed{D: 10 * time.Millisecond}})
	log := oracle.NewLog(n)
	for i := 0; i < n; i++ {
		tm := NewTendermint(TendermintConfig{
			Self: types.PartyID(i), N: n,
			DeltaBound: 100 * time.Millisecond,
			OnCommit:   log.Decided(types.PartyID(i)),
		})
		nw.AddNode(tm, true)
	}
	nw.Start()
	if !nw.RunUntil(func() bool { return shortest(log, n) >= 10 }, 5*time.Minute) {
		t.Fatalf("tendermint made no progress: min commits %d", shortest(log, n))
	}
	safe(t, log)
}

// TestTendermintNotResponsive: with δ = 1 ms and Δbnd = 200 ms, the
// height rate must be dominated by Δbnd (timeoutCommit), unlike ICC.
func TestTendermintNotResponsive(t *testing.T) {
	const n = 4
	const delta = time.Millisecond
	const bound = 200 * time.Millisecond
	nw := simnet.New(simnet.Options{Seed: 3, Delay: simnet.Fixed{D: delta}})
	log := oracle.NewLog(n)
	for i := 0; i < n; i++ {
		tm := NewTendermint(TendermintConfig{
			Self: types.PartyID(i), N: n,
			DeltaBound: bound,
			OnCommit:   log.Decided(types.PartyID(i)),
		})
		nw.AddNode(tm, true)
	}
	nw.Start()
	deadline := 5 * time.Second
	nw.Run(deadline)
	got := shortest(log, n)
	// Height duration ≈ 3δ + Δbnd ≈ 203 ms ⇒ ~24 heights in 5 s.
	// Were it responsive (≈3δ), we would see >1000.
	if got > 40 {
		t.Fatalf("tendermint committed %d heights in %v — looks responsive, should be Δbnd-bound", got, deadline)
	}
	if got < 10 {
		t.Fatalf("tendermint only committed %d heights — liveness problem", got)
	}
}

// TestHotStuffLatencyVsICC confirms the structural latency gap the paper
// describes: HotStuff's proposal→commit distance is three chained views
// (≈6δ), double ICC0's 3δ.
func TestHotStuffLatencyVsICC(t *testing.T) {
	const delta = 10 * time.Millisecond
	const n = 4
	nw := simnet.New(simnet.Options{Seed: 4, Delay: simnet.Fixed{D: delta}})
	log := oracle.NewLog(n)
	for i := 0; i < n; i++ {
		nw.AddNode(NewHotStuff(HotStuffConfig{
			Self: types.PartyID(i), N: n,
			DeltaBound: 100 * time.Millisecond,
			OnCommit:   log.Decided(types.PartyID(i)),
		}), true)
	}
	nw.Start()
	if !nw.RunUntil(func() bool { return shortest(log, n) >= 20 }, time.Minute) {
		t.Fatal("no progress")
	}
	safe(t, log)
	// Steady state: with Fixed delay and round-robin leaders view v is
	// proposed at ≈ (v−1)·2δ, and committed when a party first commits
	// it. Expect latency ≈ 6δ (3 views of 2δ).
	commitAt := firstCommit(log, n)
	var total time.Duration
	var count int
	for v, c := range commitAt {
		if v < 3 || v > 20 {
			continue
		}
		total += c - time.Duration(v-1)*2*delta
		count++
	}
	if count == 0 {
		t.Fatal("no samples")
	}
	mean := total / time.Duration(count)
	if mean < 4*delta || mean > 9*delta {
		t.Fatalf("hotstuff latency %v, want ≈ 6δ = %v", mean, 6*delta)
	}
	t.Logf("hotstuff commit latency ≈ %v (6δ = %v)", mean, 6*delta)
}

// TestHotStuffSurvivesCrashedLeader uses n = 7: chained HotStuff's
// three-chain commit rule needs a streak of four consecutive live-leader
// views, so with strict round-robin rotation and n = 4 a single
// permanently crashed party stalls commits forever (views keep advancing
// but the chain always breaks at the dead leader's view). With n = 7 the
// streaks of six live views between hits commit normally. ICC has no
// such fragility — any notarized block can be finalized regardless of
// leader history — which is exactly the robustness contrast of paper §1
// ("Robust consensus", [15]); benchmark E5 quantifies it.
func TestHotStuffSurvivesCrashedLeader(t *testing.T) {
	const n = 7
	nw := simnet.New(simnet.Options{Seed: 5, Delay: simnet.Fixed{D: 10 * time.Millisecond}})
	log := oracle.NewLog(n)
	for i := 0; i < n; i++ {
		h := NewHotStuff(HotStuffConfig{
			Self: types.PartyID(i), N: n,
			DeltaBound: 50 * time.Millisecond,
			OnCommit:   log.Decided(types.PartyID(i)),
		})
		nw.AddNode(h, true)
	}
	nw.Crash(2) // crashes before Init: a permanently silent leader
	nw.Start()
	if !nw.RunUntil(func() bool { return shortest(log, n, 2) >= 8 }, 5*time.Minute) {
		t.Fatal("hotstuff stalled with one crashed party")
	}
	safe(t, log)
}

var _ engine.Engine = (*HotStuff)(nil)
