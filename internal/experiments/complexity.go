package experiments

import (
	"fmt"
	"sort"
	"time"

	"icc/internal/harness"
	"icc/internal/oracle"
	"icc/internal/pool"
	"icc/internal/simnet"
	"icc/internal/types"
)

// MessageComplexity reproduces the §1 message-complexity claims
// (experiment E3): in synchronous rounds the expected message complexity
// is O(n²); the protocol's worst case is O(n³). The sweep measures mean
// per-round messages sent by honest parties for growing n, in an
// all-honest synchronous network and under a t-corrupt adversary that
// triggers the multi-proposal path (silent leaders force rank-1+
// proposals and extra echoes).
func MessageComplexity(scale Scale) *Table {
	t := &Table{
		ID:      "E3",
		Title:   "per-round message complexity vs n (paper: O(n²) expected in synchronous rounds, O(n³) worst case)",
		Columns: []string{"n", "honest msgs/round", "msgs/n²", "t-corrupt msgs/round", "msgs/n²"},
		Notes: []string{
			"a flat msgs/n² column is the O(n²) signature; the corrupt column grows by a bounded factor (extra echoes), far below n³",
		},
	}
	blocks := scale.scaleInt(60)
	for _, n := range []int{4, 7, 13, 19, 31} {
		honest := meanRoundMsgs(n, nil, blocks)
		tf := types.MaxFaults(n)
		behaviors := make(map[types.PartyID]harness.Behavior, tf)
		for i := 0; i < tf; i++ {
			behaviors[types.PartyID(i)] = harness.SilentLeader
		}
		corrupt := meanRoundMsgs(n, behaviors, blocks)
		t.AddRow(
			fmt.Sprintf("%d", n),
			fmt.Sprintf("%.0f", honest),
			fmt.Sprintf("%.2f", honest/float64(n*n)),
			fmt.Sprintf("%.0f", corrupt),
			fmt.Sprintf("%.2f", corrupt/float64(n*n)),
		)
	}
	return t
}

func meanRoundMsgs(n int, behaviors map[types.PartyID]harness.Behavior, blocks int) float64 {
	c, err := harness.New(harness.Options{
		N:          n,
		Seed:       int64(3000 + n),
		Delay:      simnet.Fixed{D: 10 * time.Millisecond},
		DeltaBound: 50 * time.Millisecond,
		Behaviors:  behaviors,
		SimBeacon:  true,
		Verify:     pool.VerifyPreVerified,
		PruneDepth: simPruneDepth,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	c.Start()
	c.RunUntilCommitted(blocks, time.Hour)
	return c.Log.Summarize().MeanRoundMsgs
}

// RoundComplexity reproduces the §1 round-complexity claim (experiment
// E4): the number of rounds until a block is committed is O(1) in
// expectation for a static adversary — the gap between consecutive
// finalized rounds is roughly geometric with success probability ≥ 2/3
// (a round finalizes when its leader behaves and the network cooperates).
func RoundComplexity(scale Scale) *Table {
	const n = 13
	tf := types.MaxFaults(n)
	t := &Table{
		ID:      "E4",
		Title:   fmt.Sprintf("finalization gap distribution, n=%d with t=%d corrupt (silent + equivocating), jittered delays", n, tf),
		Columns: []string{"gap (rounds)", "count", "fraction", "geometric(2/3) reference"},
		Notes: []string{
			"gap g means a round's decision arrived g rounds later (Fig. 2 outputs the backlog at once)",
			"paper: O(1) expected rounds to commit; eventually one block commits for every round",
			"delays are jittered: with deterministic delays the rank-1 fallback finalizes every round and all gaps are 0",
		},
	}
	behaviors := make(map[types.PartyID]harness.Behavior, tf)
	for i := 0; i < tf; i++ {
		if i%2 == 0 {
			behaviors[types.PartyID(i)] = harness.SilentLeader
		} else {
			behaviors[types.PartyID(i)] = harness.Equivocator
		}
	}
	c, err := harness.New(harness.Options{
		N:          n,
		Seed:       4001,
		Delay:      simnet.Uniform{Min: 5 * time.Millisecond, Max: 35 * time.Millisecond},
		DeltaBound: 40 * time.Millisecond,
		Behaviors:  behaviors,
		SimBeacon:  true,
		Verify:     pool.VerifyPreVerified,
		PruneDepth: 2 * simPruneDepth,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	rounds := scale.scaleInt(2000)
	c.Start()
	c.RunUntilCommitted(rounds, 10*time.Hour)
	all, gapCount := finalizationGaps(c), map[int]int{}
	for _, g := range all {
		gapCount[g]++
	}
	gaps := make([]int, 0, len(gapCount))
	for g := range gapCount {
		gaps = append(gaps, g)
	}
	sort.Ints(gaps)
	p := 2.0 / 3.0
	for _, g := range gaps {
		ref := p
		for i := 0; i < g; i++ {
			ref *= 1 - p
		}
		t.AddRow(fmt.Sprintf("%d", g), fmt.Sprintf("%d", gapCount[g]),
			fmt.Sprintf("%.3f", float64(gapCount[g])/float64(len(all))),
			fmt.Sprintf("%.3f", ref))
	}
	return t
}

// Robustness reproduces the robust-consensus argument of §1 ([15];
// experiment E5, generalising Table 1 scenario (iii)): as the fraction
// of corrupt parties grows to t/n, throughput degrades gracefully —
// rounds led by corrupt parties finish in O(Δbnd) instead of O(δ), and
// every round still commits eventually.
func Robustness(scale Scale) *Table {
	const n = 13
	t := &Table{
		ID:      "E5",
		Title:   fmt.Sprintf("graceful degradation, n=%d, δ=10ms, Δbnd=50ms", n),
		Columns: []string{"corrupt parties", "behavior", "blocks/s", "mean round time", "relative throughput"},
		Notes:   []string{"paper: performance degrades to O(Δbnd) rounds under corrupt leaders, never to zero ([15]'s robustness)"},
	}
	blocks := scale.scaleInt(300)
	var baselineRate float64
	for _, bad := range []int{0, 1, 2, 4} {
		for _, kind := range []harness.Behavior{harness.SilentLeader, harness.Equivocator} {
			if bad == 0 && kind == harness.Equivocator {
				continue
			}
			behaviors := make(map[types.PartyID]harness.Behavior, bad)
			for i := 0; i < bad; i++ {
				behaviors[types.PartyID(i)] = kind
			}
			c, err := harness.New(harness.Options{
				N:          n,
				Seed:       5000 + int64(bad)*10 + int64(kind),
				Delay:      simnet.Fixed{D: 10 * time.Millisecond},
				DeltaBound: 50 * time.Millisecond,
				Behaviors:  behaviors,
				SimBeacon:  true,
				Verify:     pool.VerifyPreVerified,
				PruneDepth: simPruneDepth,
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: %v", err))
			}
			c.Start()
			c.RunUntilCommitted(blocks, time.Hour)
			safe("robustness", c.Judge(oracle.Safety))
			s := c.Log.Summarize()
			elapsed := c.Net.Now().Seconds()
			rate := float64(s.CommittedBlocks) / elapsed
			if bad == 0 {
				baselineRate = rate
			}
			name := "silent leader"
			if kind == harness.Equivocator {
				name = "equivocator"
			}
			if bad == 0 {
				name = "-"
			}
			t.AddRow(fmt.Sprintf("%d/%d", bad, n), name,
				fmt.Sprintf("%.1f", rate),
				s.MeanRoundTime.Round(time.Millisecond/10).String(),
				fmt.Sprintf("%.0f%%", 100*rate/baselineRate))
			if bad == 0 {
				break
			}
		}
	}
	return t
}
