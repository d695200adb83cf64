// Command iccsim runs one configurable ICC cluster simulation and
// prints a summary: protocol variant, cluster size, delay model,
// Byzantine behaviours, and duration are all flags. It is the
// exploratory companion to cmd/iccbench's fixed experiment suite.
//
// Examples:
//
//	iccsim -n 13 -mode icc1 -delta 25ms -duration 60s
//	iccsim -n 7 -crash 1 -equivocate 1 -seed 7
//	iccsim -n 13 -wan -payload 1048576 -mode icc2
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"icc/internal/core"
	"icc/internal/harness"
	"icc/internal/node"
	"icc/internal/oracle"
	"icc/internal/pool"
	"icc/internal/simnet"
	"icc/internal/types"
)

func main() {
	var (
		n          = flag.Int("n", 7, "number of parties")
		mode       = flag.String("mode", "icc0", "protocol variant: icc0, icc1, icc2")
		delta      = flag.Duration("delta", 10*time.Millisecond, "network delay δ (fixed model)")
		wan        = flag.Bool("wan", false, "use the WAN link matrix (6-110ms RTTs) instead of fixed delay")
		bound      = flag.Duration("bound", 100*time.Millisecond, "partial-synchrony bound Δbnd")
		epsilon    = flag.Duration("epsilon", 0, "ε governor of eq. (2)")
		duration   = flag.Duration("duration", 30*time.Second, "simulated duration")
		seed       = flag.Int64("seed", 1, "simulation seed")
		payload    = flag.Int("payload", 0, "block payload size in bytes")
		crash      = flag.Int("crash", 0, "parties crashed from birth")
		silent     = flag.Int("silent", 0, "parties that never propose")
		equivocate = flag.Int("equivocate", 0, "parties that propose conflicting blocks")
		adaptive   = flag.Bool("adaptive", false, "enable the adaptive-Δbnd variant")
		realCrypto = flag.Bool("realcrypto", false, "use full threshold cryptography (slower)")
	)
	flag.Parse()

	m, err := node.ParseMode(*mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	behaviors := make(map[types.PartyID]harness.Behavior)
	next := 0
	assign := func(count int, b harness.Behavior) {
		for i := 0; i < count && next < *n; i++ {
			behaviors[types.PartyID(next)] = b
			next++
		}
	}
	assign(*crash, harness.Crash)
	assign(*silent, harness.SilentLeader)
	assign(*equivocate, harness.Equivocator)
	if tf := types.MaxFaults(*n); next > tf {
		fmt.Fprintf(os.Stderr, "warning: %d corrupt parties exceeds t=%d (< n/3); expect trouble\n", next, tf)
	}

	verifyPolicy := pool.VerifyFull
	if !*realCrypto {
		verifyPolicy = pool.VerifyPreVerified
	}
	opts := harness.Options{
		N:          *n,
		Seed:       *seed,
		DeltaBound: *bound,
		Epsilon:    *epsilon,
		Mode:       m,
		Behaviors:  behaviors,
		Adaptive:   *adaptive,
		SimBeacon:  !*realCrypto,
		Verify:     verifyPolicy,
		PruneDepth: core.DefaultPruneDepth,
	}
	if *wan {
		mat := simnet.NewWANMatrix(*n, 6*time.Millisecond, 110*time.Millisecond, *seed)
		opts.Delay = mat
		if !flagWasSet("bound") {
			opts.DeltaBound = mat.MaxOneWay()
		}
	} else {
		opts.Delay = simnet.Fixed{D: *delta}
	}
	if *payload > 0 {
		opts.Payload = core.SizedPayload{Size: *payload}
	}

	c, err := harness.New(opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "building cluster: %v\n", err)
		os.Exit(1)
	}
	start := time.Now()
	c.Start()
	c.Net.Run(*duration)
	wall := time.Since(start)

	if err := c.Judge(oracle.Safety); err != nil {
		fmt.Fprintf(os.Stderr, "SAFETY VIOLATION: %v\n", err)
		os.Exit(1)
	}
	s := c.Rec.Summarize()
	fmt.Printf("protocol          %s, n=%d (t=%d), %d corrupt\n", m, *n, types.MaxFaults(*n), next)
	fmt.Printf("simulated         %v (wall clock %v)\n", *duration, wall.Round(time.Millisecond))
	fmt.Printf("committed blocks  %d (%.2f blocks/s)\n", s.CommittedBlocks, float64(s.CommittedBlocks)/duration.Seconds())
	fmt.Printf("committed bytes   %d\n", s.CommittedBytes)
	fmt.Printf("round time        mean %v (reciprocal throughput)\n", s.MeanRoundTime.Round(time.Microsecond))
	fmt.Printf("commit latency    mean %v, p50 %v, p99 %v\n",
		s.MeanLatency.Round(time.Microsecond), s.P50Latency.Round(time.Microsecond), s.P99Latency.Round(time.Microsecond))
	fmt.Printf("messages          total %d, per-round mean %.0f (n²=%d), worst round %d\n",
		s.TotalMsgs, s.MeanRoundMsgs, (*n)*(*n), s.MaxRoundMsgs)
	fmt.Printf("traffic           total %d bytes, busiest party %d bytes\n", s.TotalBytes, s.MaxPartyBytes)
	fmt.Println("safety            OK (all committed prefixes consistent)")
}

// flagWasSet reports whether a flag was explicitly provided.
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}
