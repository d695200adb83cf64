package experiments

import (
	"fmt"
	"time"

	"icc/internal/baseline"
	"icc/internal/harness"
	"icc/internal/metrics"
	"icc/internal/node"
	"icc/internal/oracle"
	"icc/internal/pool"
	"icc/internal/simnet"
	"icc/internal/types"
)

// runVariant runs one ICC cluster to a target block count and summarises.
func runVariant(mode node.Mode, n int, delta, bound, epsilon time.Duration, seed int64, blocks int) metrics.Summary {
	c, err := harness.New(harness.Options{
		N:          n,
		Seed:       seed,
		Delay:      simnet.Fixed{D: delta},
		DeltaBound: bound,
		Epsilon:    epsilon,
		Mode:       mode,
		SimBeacon:  true,
		Verify:     pool.VerifyPreVerified,
		PruneDepth: simPruneDepth,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	c.Start()
	c.RunUntilCommitted(blocks, 10*time.Minute)
	return c.Rec.Summarize()
}

// LatencyThroughput reproduces the §1 performance claims (experiment
// E2): reciprocal throughput 2δ and latency 3δ for ICC0/ICC1, 3δ and 4δ
// for ICC2, across a sweep of network delays δ.
func LatencyThroughput(scale Scale) *Table {
	t := &Table{
		ID:    "E2",
		Title: "reciprocal throughput and latency vs network delay δ (paper: ICC0/1 = 2δ & 3δ, ICC2 = 3δ & 4δ)",
		Columns: []string{"δ", "variant", "round time", "×δ", "latency", "×δ",
			"paper round", "paper latency"},
		Notes: []string{"ICC1 runs the deployed overlay: a party casts its finalization share at the instant the round's notarization shares arrive as one burst, so it leaves with that burst's 2 ms batch — latency 3δ + 2 ms, round time unaffected; the paper's 3δ assumes direct broadcast timing"},
	}
	blocks := scale.scaleInt(200)
	deltas := []time.Duration{5 * time.Millisecond, 10 * time.Millisecond,
		25 * time.Millisecond, 50 * time.Millisecond, 100 * time.Millisecond}
	for _, delta := range deltas {
		for _, mode := range []node.Mode{node.ICC0, node.ICC1, node.ICC2} {
			paperRound, paperLatency := "2δ", "3δ"
			if mode == node.ICC2 {
				paperRound, paperLatency = "3δ", "4δ"
			}
			s := runVariant(mode, 7, delta, 10*delta, 0, 7000+int64(delta), blocks)
			t.AddRow(
				delta.String(), mode.String(),
				s.MeanRoundTime.Round(time.Millisecond/10).String(),
				fmt.Sprintf("%.1f", float64(s.MeanRoundTime)/float64(delta)),
				s.MeanLatency.Round(time.Millisecond/10).String(),
				fmt.Sprintf("%.1f", float64(s.MeanLatency)/float64(delta)),
				paperRound, paperLatency,
			)
		}
	}
	return t
}

// Responsiveness reproduces the optimistic-responsiveness comparison
// (experiment E6): with δ fixed at 10 ms, ICC0's round time must track
// δ while the Tendermint baseline's height time grows with Δbnd ([8] is
// not optimistically responsive; §1.1).
func Responsiveness(scale Scale) *Table {
	t := &Table{
		ID:      "E6",
		Title:   "optimistic responsiveness: round time vs Δbnd at fixed δ = 10 ms",
		Columns: []string{"Δbnd", "ICC0 round time", "Tendermint height time"},
		Notes:   []string{"paper: ICC runs at network speed with an honest leader; Tendermint rounds take O(Δbnd)"},
	}
	const delta = 10 * time.Millisecond
	const n = 7
	blocks := scale.scaleInt(100)
	for _, bound := range []time.Duration{50 * time.Millisecond, 100 * time.Millisecond,
		200 * time.Millisecond, 500 * time.Millisecond, 1000 * time.Millisecond} {
		icc := runVariant(node.ICC0, n, delta, bound, 0, 6000+int64(bound), blocks)
		tm := runTendermint(n, delta, bound, blocks)
		t.AddRow(bound.String(),
			icc.MeanRoundTime.Round(time.Millisecond/10).String(),
			tm.Round(time.Millisecond/10).String())
	}
	return t
}

// runTendermint measures the mean height time of the Tendermint
// baseline.
func runTendermint(n int, delta, bound time.Duration, heights int) time.Duration {
	nw := simnet.New(simnet.Options{Seed: 11, Delay: simnet.Fixed{D: delta}})
	log := oracle.NewLog(n)
	for i := 0; i < n; i++ {
		nw.AddNode(baseline.NewTendermint(baseline.TendermintConfig{
			Self: types.PartyID(i), N: n, DeltaBound: bound, OnCommit: log.Decided(types.PartyID(i)),
		}), true)
	}
	nw.Start()
	nw.RunUntil(func() bool { return log.Len(0) >= heights }, time.Hour)
	safe("tendermint", oracle.Judge(log, oracle.Expect{Holds: oracle.Safety}))
	seq := log.Commits(0)
	if len(seq) < 2 {
		return 0
	}
	return (seq[len(seq)-1].At - seq[0].At) / time.Duration(len(seq)-1)
}

// Baselines reproduces the §1.1 comparison rows (experiment E8):
// latency and reciprocal throughput for ICC0/ICC1/ICC2, chained
// HotStuff, and Tendermint at the same δ and n.
func Baselines(scale Scale) *Table {
	const delta = 20 * time.Millisecond
	const bound = 200 * time.Millisecond
	const n = 7
	t := &Table{
		ID:      "E8",
		Title:   fmt.Sprintf("protocol comparison at n=%d, δ=%v, Δbnd=%v", n, delta, bound),
		Columns: []string{"protocol", "round/height time", "latency", "paper claim"},
	}
	blocks := scale.scaleInt(150)
	for _, mode := range []node.Mode{node.ICC0, node.ICC1, node.ICC2} {
		claim := "2δ throughput, 3δ latency"
		if mode == node.ICC2 {
			claim = "3δ throughput, 4δ latency"
		}
		s := runVariant(mode, n, delta, bound, 0, 8000+int64(mode), blocks)
		t.AddRow(mode.String(),
			s.MeanRoundTime.Round(time.Millisecond/10).String(),
			s.MeanLatency.Round(time.Millisecond/10).String(), claim)
	}
	// HotStuff: measure commit cadence and latency from view timing.
	hsRound, hsLatency := runHotStuffTimed(n, delta, bound, blocks)
	t.AddRow("HotStuff (chained)", hsRound.Round(time.Millisecond/10).String(),
		hsLatency.Round(time.Millisecond/10).String(), "2δ throughput, 6δ latency")
	tmRound := runTendermint(n, delta, bound, blocks)
	t.AddRow("Tendermint-like", tmRound.Round(time.Millisecond/10).String(),
		"≈ round time", "Θ(Δbnd) rounds, not responsive")
	return t
}

// runHotStuffTimed measures the HotStuff baseline's commit cadence and
// proposal→commit latency (views start at ≈ (v−1)·2δ in the steady
// state with fixed delays).
func runHotStuffTimed(n int, delta, bound time.Duration, views int) (roundTime, latency time.Duration) {
	nw := simnet.New(simnet.Options{Seed: 12, Delay: simnet.Fixed{D: delta}})
	log := oracle.NewLog(n)
	for i := 0; i < n; i++ {
		nw.AddNode(baseline.NewHotStuff(baseline.HotStuffConfig{
			Self: types.PartyID(i), N: n, DeltaBound: bound, OnCommit: log.Decided(types.PartyID(i)),
		}), true)
	}
	nw.Start()
	// Every party's views are a prefix of the longest party's (Chain), so
	// the longest is every view anyone committed.
	longest := func() int {
		most := 0
		for p := 0; p < n; p++ {
			most = max(most, log.Len(types.PartyID(p)))
		}
		return most
	}
	nw.RunUntil(func() bool { return longest() >= views }, time.Hour)
	safe("hotstuff", oracle.Judge(log, oracle.Expect{Holds: oracle.Safety}))
	commitAt := map[types.Round]time.Duration{} // first commit of each view anywhere
	for p := 0; p < n; p++ {
		for _, c := range log.Commits(types.PartyID(p)) {
			if at, ok := commitAt[c.Round]; !ok || c.At < at {
				commitAt[c.Round] = c.At
			}
		}
	}
	var lo, hi types.Round
	var loT, hiT time.Duration
	var latSum time.Duration
	var latN int
	for v, c := range commitAt {
		if lo == 0 || v < lo {
			lo, loT = v, c
		}
		if v > hi {
			hi, hiT = v, c
		}
		if v >= 3 {
			proposed := time.Duration(v-1) * 2 * delta
			latSum += c - proposed
			latN++
		}
	}
	if hi > lo {
		roundTime = (hiT - loT) / time.Duration(hi-lo)
	}
	if latN > 0 {
		latency = latSum / time.Duration(latN)
	}
	return roundTime, latency
}
