package experiments

import (
	"fmt"
	"time"

	"icc/internal/baseline"
	"icc/internal/harness"
	"icc/internal/oracle"
	"icc/internal/pool"
	"icc/internal/simnet"
	"icc/internal/types"
)

// PBFTFragility reproduces the robust-consensus argument the paper
// builds on [15] (experiment E11): PBFT keeps one leader until a
// view-change fires, so a leader that does the bare minimum — proposing
// just inside the timeout, or stalling until replaced — controls the
// whole system's throughput. ICC's per-round probabilistic leader means
// one slow party only ever taxes its own rounds.
//
// Three conditions per protocol, same n, δ, and Δbnd:
//   - honest:      everyone behaves;
//   - crash:       one party (PBFT's initial leader) is dead;
//   - slow leader: one party proposes only after a delay just inside the
//     PBFT view-change timeout ([15]'s attack). For ICC the same party
//     simply delays its proposals — other ranks take over per Δntry.
func PBFTFragility(scale Scale) *Table {
	const n = 7
	const delta = 10 * time.Millisecond
	const bound = 50 * time.Millisecond
	window := time.Duration(scale.scaleInt(60)) * time.Second
	t := &Table{
		ID:      "E11",
		Title:   fmt.Sprintf("robustness vs PBFT ([15]): throughput under leader misbehaviour (n=%d, δ=%v, Δbnd=%v)", n, delta, bound),
		Columns: []string{"protocol", "condition", "commits/s", "vs honest"},
		Notes: []string{
			"PBFT's slow leader proposes at 3·Δbnd intervals — inside its 4·Δbnd view-change timeout, so it is never replaced",
			"the ICC slow party is modelled as a silent leader: its rounds fall through to rank 1 after Δntry(1)",
		},
	}

	pbftRun := func(slow bool, crash bool) int64 {
		nw := simnet.New(simnet.Options{Seed: 11000, Delay: simnet.Fixed{D: delta}})
		log := oracle.NewLog(n)
		for i := 0; i < n; i++ {
			cfg := baseline.PBFTConfig{
				Self: types.PartyID(i), N: n, DeltaBound: bound,
				OnCommit: log.Decided(types.PartyID(i)),
			}
			if slow && i == 0 {
				cfg.ProposeDelay = 3 * bound // inside the 4·Δbnd timeout
			}
			nw.AddNode(baseline.NewPBFT(cfg), true)
		}
		if crash {
			nw.Crash(0) // the initial leader
		}
		nw.Start()
		nw.Run(window)
		safe("pbft", oracle.Judge(log, oracle.Expect{Holds: oracle.Safety}))
		// Use a non-faulty party's count.
		return int64(log.Len(1))
	}

	iccRun := func(behavior harness.Behavior) int64 {
		opts := harness.Options{
			N: n, Seed: 11001, Delay: simnet.Fixed{D: delta},
			DeltaBound: bound, SimBeacon: true, Verify: pool.VerifyPreVerified, PruneDepth: simPruneDepth,
		}
		if behavior != 0 {
			opts.Behaviors = map[types.PartyID]harness.Behavior{0: behavior}
		}
		c, err := harness.New(opts)
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		c.Start()
		c.Net.Run(window)
		safe("fragility", c.Judge(oracle.Safety))
		return c.Log.Summarize().CommittedBlocks
	}

	iccHonest := iccRun(0)
	iccCrash := iccRun(harness.Crash)
	iccSlow := iccRun(harness.SilentLeader)
	pbftHonest := pbftRun(false, false)
	pbftCrash := pbftRun(false, true)
	pbftSlow := pbftRun(true, false)

	secs := window.Seconds()
	pct := func(v, base int64) string { return fmt.Sprintf("%.0f%%", 100*float64(v)/float64(base)) }
	t.AddRow("ICC0", "honest", fmt.Sprintf("%.1f", float64(iccHonest)/secs), "100%")
	t.AddRow("ICC0", "1 crashed", fmt.Sprintf("%.1f", float64(iccCrash)/secs), pct(iccCrash, iccHonest))
	t.AddRow("ICC0", "1 slow/silent leader", fmt.Sprintf("%.1f", float64(iccSlow)/secs), pct(iccSlow, iccHonest))
	t.AddRow("PBFT", "honest", fmt.Sprintf("%.1f", float64(pbftHonest)/secs), "100%")
	t.AddRow("PBFT", "leader crashed", fmt.Sprintf("%.1f", float64(pbftCrash)/secs), pct(pbftCrash, pbftHonest))
	t.AddRow("PBFT", "slow leader ([15])", fmt.Sprintf("%.1f", float64(pbftSlow)/secs), pct(pbftSlow, pbftHonest))
	return t
}
