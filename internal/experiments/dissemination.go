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

// Dissemination reproduces the block-dissemination comparison
// (experiment E7): for growing block size S, the per-party egress of
// ICC0 (direct broadcast: proposer pays n·S), ICC1 (gossip: proposer
// pays fanout·S, relays share the rest), and ICC2 (erasure-coded RBC:
// every party pays ≈ S·n/(n−2t) = O(S)). The paper's claim: with
// S = Ω(nλ log n), ICC2 transmits O(S) bits per party per round, and
// both ICC1 and ICC2 remove the leader bottleneck that [35] measured.
func Dissemination(scale Scale) *Table {
	const n = 13
	tf := types.MaxFaults(n)
	t := &Table{
		ID:    "E7",
		Title: fmt.Sprintf("per-round bytes vs block size S (n=%d, t=%d, reconstruction threshold n−2t=%d)", n, tf, n-2*tf),
		Columns: []string{"S", "variant", "max party MB/round", "mean party MB/round",
			"max/S", "mean/S"},
		Notes: []string{
			"max party ≈ the leader bottleneck of [35]; ICC0 grows as n·S at the proposer",
			"ICC2 mean ≈ S·n/(n−2t) ≈ 2.6·S here, evenly spread — the paper's O(S) per-party bound",
		},
	}
	blocks := scale.scaleInt(20)
	for _, size := range []int{16 << 10, 64 << 10, 256 << 10, 1 << 20} {
		for _, mode := range []node.Mode{node.ICC0, node.ICC1, node.ICC2} {
			c, err := harness.New(harness.Options{
				N:          n,
				Seed:       int64(7000 + size/1024),
				Delay:      simnet.Fixed{D: 10 * time.Millisecond},
				DeltaBound: 50 * time.Millisecond,
				Mode:       mode,
				Payload:    core.SizedPayload{Size: size},
				SimBeacon:  true,
				Verify:     pool.VerifyPreVerified,
				PruneDepth: simPruneDepth / 2,
			})
			if err != nil {
				panic(fmt.Sprintf("experiments: %v", err))
			}
			c.Start()
			c.RunUntilCommitted(blocks, time.Hour)
			s := c.Rec.Summarize()
			rounds := float64(s.CommittedBlocks)
			if rounds == 0 {
				rounds = 1
			}
			maxMB := float64(s.MaxPartyBytes) / rounds / (1 << 20)
			meanMB := float64(s.TotalBytes) / float64(n) / rounds / (1 << 20)
			sMB := float64(size) / (1 << 20)
			t.AddRow(byteSize(size), mode.String(),
				fmt.Sprintf("%.2f", maxMB), fmt.Sprintf("%.2f", meanMB),
				fmt.Sprintf("%.1f", maxMB/sMB), fmt.Sprintf("%.1f", meanMB/sMB))
		}
	}
	return t
}

func byteSize(v int) string {
	switch {
	case v >= 1<<20:
		return fmt.Sprintf("%dMiB", v>>20)
	case v >= 1<<10:
		return fmt.Sprintf("%dKiB", v>>10)
	default:
		return fmt.Sprintf("%dB", v)
	}
}

// AblationDelays reproduces the design-choice ablations (experiment E9):
// (a) the ε governor of eq. (2) — with ε = 0 the protocol runs "too
// fast", burning rounds (and signatures) for tiny payload batches; a
// non-zero ε trades block rate for fuller blocks at identical safety;
// (b) the adaptive-Δbnd variant — when real network delays far exceed a
// mis-configured Δbnd, racing proposals make rounds finish without a
// finalization (parties notarization-share several blocks, so N ⊄ {B}),
// and decisions arrive whole rounds late; the adaptive variant restores
// the liveness condition 2δ + Δprop(0) ≤ Δntry(1) by doubling its
// working bound and cuts the commit-latency tail. Throughput is NOT the
// metric here: property P1 keeps one block per round committing
// eventually either way — the tail latency is what degrades.
func AblationDelays(scale Scale) *Table {
	t := &Table{
		ID:      "E9",
		Title:   "ablations: ε governor (eq. 2) and adaptive Δbnd",
		Columns: []string{"configuration", "blocks/s", "mean round msgs", "round-finalized fraction", "p99 commit latency"},
	}
	window := time.Duration(scale.scaleInt(60)) * time.Second
	// (a) ε sweep, honest network δ=10ms.
	for _, eps := range []time.Duration{0, 100 * time.Millisecond, 500 * time.Millisecond} {
		c, err := harness.New(harness.Options{
			N:          7,
			Seed:       9001,
			Delay:      simnet.Fixed{D: 10 * time.Millisecond},
			DeltaBound: 50 * time.Millisecond,
			Epsilon:    eps,
			SimBeacon:  true,
			Verify:     pool.VerifyPreVerified,
			PruneDepth: simPruneDepth,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		c.Start()
		c.Net.Run(window)
		s := c.Rec.Summarize()
		g0, _ := finalizationStats(c)
		t.AddRow(fmt.Sprintf("ε=%v", eps),
			fmt.Sprintf("%.1f", float64(s.CommittedBlocks)/window.Seconds()),
			fmt.Sprintf("%.0f", s.MeanRoundMsgs),
			fmt.Sprintf("%.2f", g0),
			s.P99Latency.Round(time.Millisecond).String())
	}
	// (b) adaptive vs static with δ 4x the configured Δbnd and silent
	// leaders: the static run keeps multi-proposing and rarely
	// finalizes; the adaptive run doubles its working bound until the
	// liveness condition 2δ + Δprop(0) ≤ Δntry(1) holds again.
	for _, adaptive := range []bool{false, true} {
		c, err := harness.New(harness.Options{
			N:          7,
			Seed:       9002,
			Delay:      simnet.Uniform{Min: 40 * time.Millisecond, Max: 400 * time.Millisecond},
			DeltaBound: 20 * time.Millisecond, // mis-configured: δ up to 20×Δbnd
			Adaptive:   adaptive,
			SimBeacon:  true,
			Verify:     pool.VerifyPreVerified,
			PruneDepth: simPruneDepth,
		})
		if err != nil {
			panic(fmt.Sprintf("experiments: %v", err))
		}
		c.Start()
		c.Net.Run(2 * window)
		s := c.Rec.Summarize()
		g0, p99 := finalizationStats(c)
		name := "static Δbnd=20ms, δ∈[40,400]ms"
		if adaptive {
			name = "adaptive Δbnd (same setup)"
		}
		t.AddRow(name,
			fmt.Sprintf("%.1f", float64(s.CommittedBlocks)/(2*window).Seconds()),
			fmt.Sprintf("%.0f", s.MeanRoundMsgs),
			fmt.Sprintf("%.2f", g0),
			p99.Round(time.Millisecond).String())
	}
	return t
}

// finalizationStats returns the fraction of rounds finalized in their
// own round (gap 0) and the P99 commit latency, from the first honest
// party's commit log.
func finalizationStats(c *harness.Cluster) (gap0 float64, p99 time.Duration) {
	gaps := finalizationGaps(c)
	if len(gaps) == 0 {
		return 0, 0
	}
	g0 := 0
	for _, g := range gaps {
		if g == 0 {
			g0++
		}
	}
	return float64(g0) / float64(len(gaps)), c.Rec.Summarize().P99Latency
}
