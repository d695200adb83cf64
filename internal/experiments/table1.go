package experiments

import (
	"fmt"
	"time"

	"icc/internal/core"
	"icc/internal/harness"
	"icc/internal/node"
	"icc/internal/pool"
	"icc/internal/simnet"
	"icc/internal/types"
)

// Table1 reproduces paper §5 Table 1: average block rate and per-node
// sent traffic for a small (13-node) and a large (40-node) subnet under
// three scenarios — (i) no user load, (ii) 100 state-changing requests/s
// of 1 KB each, (iii) the same load with one third of the nodes refusing
// to participate.
//
// Substrate differences from the paper's measurement (documented in
// DESIGN.md §5 and EXPERIMENTS.md): the deployment's WAN is modelled by
// a link matrix drawn from the paper's measured RTT range (6–110 ms);
// the production parametrization that yields ≈1.1 blocks/s (13 nodes)
// and ≈0.41 blocks/s (40 nodes) is modelled by the ε governor of eq. (2)
// per subnet size; and the paper's reported traffic additionally
// includes non-consensus services (key resharing, logs, metrics) that
// this reproduction does not run, so absolute Mb/s is expected to sit
// below the paper's. The shapes under test: load adds ≈ payload-rate
// bytes to each node; one third failures roughly halves the block rate
// and reduces traffic.
func Table1(scale Scale) *Table {
	t := &Table{
		ID:    "E1",
		Title: "Table 1: block rate and per-node sent traffic (5-min window)",
		Columns: []string{"subnet", "scenario", "blocks/s", "paper blocks/s",
			"Mb/s per node", "paper Mb/s"},
		Notes: []string{
			"paper traffic includes non-consensus services (key resharing, logs, metrics); this reproduction measures consensus traffic only",
			"ε governor parametrized per subnet size to model the production block-rate configuration",
		},
	}
	window := time.Duration(scale.scaleInt(300)) * time.Second
	type scenario struct {
		name      string
		load      bool
		failures  bool
		paperRate map[int]string
		paperMbps map[int]string
	}
	scenarios := []scenario{
		{"without load", false, false,
			map[int]string{13: "1.09", 40: "0.41"}, map[int]string{13: "1.64", 40: "4.63"}},
		{"with load", true, false,
			map[int]string{13: "1.10", 40: "0.41"}, map[int]string{13: "4.72", 40: "7.32"}},
		{"load + 1/3 failures", true, true,
			map[int]string{13: "0.45", 40: "0.16"}, map[int]string{13: "4.39", 40: "5.06"}},
	}
	for _, n := range []int{13, 40} {
		// Production-like parametrization: pick ε so the no-load block
		// rate lands near the paper's (larger subnets run slower).
		epsilon := 800 * time.Millisecond
		if n == 40 {
			epsilon = 2300 * time.Millisecond
		}
		for _, sc := range scenarios {
			rate, mbps := runTable1Cell(n, epsilon, window, sc.load, sc.failures)
			t.AddRow(
				fmt.Sprintf("%d nodes", n), sc.name,
				fmt.Sprintf("%.2f", rate), sc.paperRate[n],
				fmt.Sprintf("%.2f", mbps), sc.paperMbps[n],
			)
		}
	}
	return t
}

func runTable1Cell(n int, epsilon time.Duration, window time.Duration, load, failures bool) (blocksPerSec, mbpsPerNode float64) {
	m := simnet.NewWANMatrix(n, 6*time.Millisecond, 110*time.Millisecond, int64(n))
	opts := harness.Options{
		N:          n,
		Seed:       int64(n)*1000 + boolInt(load)*10 + boolInt(failures),
		Delay:      m,
		DeltaBound: 300 * time.Millisecond,
		Epsilon:    epsilon,
		Mode:       node.ICC1, // production uses the gossip sub-layer
		SimBeacon:  true,
		Verify:     pool.VerifyPreVerified,
		PruneDepth: simPruneDepth,
	}
	if load {
		// 100 req/s × 1 KB spread over the expected block rate: a block
		// every 1/r seconds carries ≈ 100/r KB.
		est := 1.1
		if n == 40 {
			est = 0.41
		}
		batch := int(100.0 / est)
		opts.Payload = core.SizedPayload{Size: batch * 1024}
	}
	if failures {
		opts.Behaviors = make(map[types.PartyID]harness.Behavior)
		for i := 0; i < n/3; i++ {
			opts.Behaviors[types.PartyID(i*3)] = harness.Crash
		}
	}
	c, err := harness.New(opts)
	if err != nil {
		panic(fmt.Sprintf("table1: %v", err))
	}
	c.Start()
	c.Net.Run(window)
	s := c.Rec.Summarize()
	secs := window.Seconds()
	blocksPerSec = float64(s.CommittedBlocks) / secs
	live := n
	if failures {
		live = n - n/3
	}
	bitsPerNode := float64(s.TotalBytes) * 8 / float64(live)
	mbpsPerNode = bitsPerNode / secs / 1e6
	return blocksPerSec, mbpsPerNode
}

func boolInt(b bool) int64 {
	if b {
		return 1
	}
	return 0
}
