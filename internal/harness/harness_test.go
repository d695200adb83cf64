package harness

import (
	"slices"
	"testing"
	"time"

	"icc/internal/core"
	"icc/internal/node"
	"icc/internal/oracle"
	"icc/internal/simnet"
	"icc/internal/types"
)

// judge fails the test on the cluster's first violation of holds.
func judge(t *testing.T, c *Cluster, holds oracle.Property) {
	t.Helper()
	if err := c.Judge(holds); err != nil {
		t.Fatal(err)
	}
}

func run(t *testing.T, opts Options, minBlocks int, limit time.Duration) *Cluster {
	t.Helper()
	c, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if !c.RunUntilCommitted(minBlocks, limit) {
		honest := c.HonestParties()
		t.Fatalf("%s n=%d: only %d blocks committed within %v (want %d)",
			opts.Mode, opts.N, c.MinCommitted(honest), limit, minBlocks)
	}
	judge(t, c, oracle.Safety)
	return c
}

func TestICC0Honest(t *testing.T) {
	run(t, Options{N: 4, Seed: 1, SimBeacon: true}, 10, time.Minute)
}

func TestICC1Honest(t *testing.T) {
	run(t, Options{N: 7, Seed: 2, Mode: node.ICC1, SimBeacon: true}, 10, 2*time.Minute)
}

func TestICC2Honest(t *testing.T) {
	run(t, Options{N: 7, Seed: 3, Mode: node.ICC2, SimBeacon: true}, 10, 2*time.Minute)
}

func TestICC0RealCrypto(t *testing.T) {
	// Full threshold-cryptography beacon and aggregate verification.
	run(t, Options{N: 4, Seed: 4}, 5, time.Minute)
}

func TestCrashFaults(t *testing.T) {
	// t = 2 of 7 crashed from birth: liveness must hold.
	c := run(t, Options{
		N: 7, Seed: 5, SimBeacon: true,
		Behaviors: map[types.PartyID]Behavior{2: Crash, 5: Crash},
	}, 10, 2*time.Minute)
	// Crashed parties committed nothing.
	if c.Log.Len(2) != 0 || c.Log.Len(5) != 0 {
		t.Fatal("crashed parties committed blocks")
	}
}

func TestMaxCrashFaults(t *testing.T) {
	// Exactly t = 4 of 13 crashed: still live (n−t = 9 = quorum).
	run(t, Options{
		N: 13, Seed: 6, SimBeacon: true,
		Behaviors: map[types.PartyID]Behavior{1: Crash, 4: Crash, 7: Crash, 11: Crash},
	}, 8, 3*time.Minute)
}

func TestSilentLeaders(t *testing.T) {
	// Parties that never propose: rounds they lead fall back to
	// higher-rank proposers after Δntry; liveness holds, rounds are
	// slower.
	c := run(t, Options{
		N: 7, Seed: 7, SimBeacon: true,
		DeltaBound: 50 * time.Millisecond,
		Behaviors:  map[types.PartyID]Behavior{0: SilentLeader, 3: SilentLeader},
	}, 10, 3*time.Minute)
	// Every committed block was proposed by SOMEONE (possibly a silent
	// leader's engine never proposed, so its blocks never appear).
	for _, cm := range c.Log.Commits(1) {
		if p := c.Engines[1].Pool().Block(cm.Hash).Proposer; p == 0 || p == 3 {
			t.Fatal("silent leader's block was committed")
		}
	}
}

func TestEquivocatingLeader(t *testing.T) {
	// A Byzantine proposer sends conflicting blocks to the two halves of
	// the cluster. Safety must hold; its rank gets disqualified by
	// parties that see both.
	run(t, Options{
		N: 7, Seed: 8, SimBeacon: true,
		DeltaBound: 50 * time.Millisecond,
		Behaviors:  map[types.PartyID]Behavior{1: Equivocator},
	}, 10, 3*time.Minute)
}

func TestLazyVoters(t *testing.T) {
	// t parties never contribute shares: quorums of n−t still form from
	// the honest parties alone.
	run(t, Options{
		N: 7, Seed: 9, SimBeacon: true,
		Behaviors: map[types.PartyID]Behavior{2: LazyVoter, 6: LazyVoter},
	}, 10, 3*time.Minute)
}

func TestMixedAdversaries(t *testing.T) {
	// A full t = 4 of 13 with a mix of failure modes.
	run(t, Options{
		N: 13, Seed: 10, SimBeacon: true,
		DeltaBound: 50 * time.Millisecond,
		Behaviors: map[types.PartyID]Behavior{
			0: Crash, 3: Equivocator, 6: SilentLeader, 9: LazyVoter,
		},
	}, 8, 5*time.Minute)
}

func TestAsynchronyWindow(t *testing.T) {
	// The network turns asynchronous for 2 s, then recovers: safety
	// throughout, liveness resumes after the window (paper P1/P3:
	// intermittent synchrony suffices).
	aw := &simnet.AsyncWindows{
		Inner:   simnet.Fixed{D: 10 * time.Millisecond},
		Windows: []simnet.Window{{From: 500 * time.Millisecond, To: 2500 * time.Millisecond}},
		Extra:   100 * time.Millisecond,
	}
	c := run(t, Options{N: 4, Seed: 11, SimBeacon: true, Delay: aw}, 20, 2*time.Minute)
	s := c.Rec.Summarize()
	if s.CommittedBlocks < 20 {
		t.Fatalf("committed %d blocks", s.CommittedBlocks)
	}
}

func TestWANDelays(t *testing.T) {
	// The paper's measured RTT range (6–110 ms) as a link matrix.
	m := simnet.NewWANMatrix(13, 6*time.Millisecond, 110*time.Millisecond, 99)
	run(t, Options{
		N: 13, Seed: 12, SimBeacon: true,
		Delay:      m,
		DeltaBound: m.MaxOneWay(),
	}, 10, 3*time.Minute)
}

func TestICC1WithCrashes(t *testing.T) {
	// Gossip dissemination with crashed parties: the overlay must route
	// around them (fanout ≈ 2 log n keeps the honest subgraph connected).
	run(t, Options{
		N: 10, Seed: 13, Mode: node.ICC1, SimBeacon: true,
		Behaviors: map[types.PartyID]Behavior{4: Crash, 8: Crash},
	}, 8, 3*time.Minute)
}

func TestICC2WithCrashes(t *testing.T) {
	// RBC dissemination with t crashed parties: reconstruction threshold
	// n−2t is still reachable from the live parties' echoes.
	run(t, Options{
		N: 7, Seed: 14, Mode: node.ICC2, SimBeacon: true,
		Behaviors: map[types.PartyID]Behavior{1: Crash, 5: Crash},
	}, 8, 3*time.Minute)
}

func TestICC2LargeBlocks(t *testing.T) {
	// 256 KiB payloads through the erasure-coded path.
	run(t, Options{
		N: 7, Seed: 15, Mode: node.ICC2, SimBeacon: true,
		Payload: core.SizedPayload{Size: 256 << 10},
	}, 5, 3*time.Minute)
}

func TestDeterministicRuns(t *testing.T) {
	// Two clusters with identical seeds produce identical commit
	// sequences: the same blocks at the same virtual times.
	mk := func() []oracle.Commit {
		return run(t, Options{N: 4, Seed: 77, SimBeacon: true}, 10, time.Minute).Log.Commits(0)
	}
	if a, b := mk(), mk(); !slices.Equal(a, b) {
		t.Fatalf("two runs of one seed committed %d and %d blocks, not the same ones", len(a), len(b))
	}
}

func TestPruningKeepsRunning(t *testing.T) {
	run(t, Options{N: 4, Seed: 16, SimBeacon: true, PruneDepth: 4}, 30, 2*time.Minute)
}

func TestRandomizedSeedSweep(t *testing.T) {
	// Short randomized sweep across seeds and delay models with faults;
	// safety checked in every run.
	if testing.Short() {
		t.Skip("sweep skipped in -short mode")
	}
	for seed := int64(100); seed < 110; seed++ {
		opts := Options{
			N: 7, Seed: seed, SimBeacon: true,
			Delay:      simnet.Uniform{Min: time.Millisecond, Max: 60 * time.Millisecond},
			DeltaBound: 60 * time.Millisecond,
			Behaviors: map[types.PartyID]Behavior{
				types.PartyID(seed % 7):       Equivocator,
				types.PartyID((seed + 3) % 7): Crash,
			},
		}
		// Keep roles distinct.
		if seed%7 == (seed+3)%7 {
			continue
		}
		run(t, opts, 5, 5*time.Minute)
	}
}

func TestPartitionedPartyCatchesUp(t *testing.T) {
	// A party is cut off for 5 simulated seconds; the paper's model
	// queues (not drops) its messages. On heal it must fast-forward
	// through the backlog — notarizations and finalizations in the pool
	// let it skip the per-round delays — and converge on the same chain.
	c, err := New(Options{N: 4, Seed: 21, SimBeacon: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Net.Run(500 * time.Millisecond)
	c.Net.Partition(2)
	c.Net.Run(5500 * time.Millisecond)
	behind := c.Log.Len(2)
	ahead := c.Log.Len(0)
	if ahead-behind < 50 {
		t.Fatalf("partition had no effect: %d vs %d commits", behind, ahead)
	}
	c.Net.Heal(2)
	c.Net.Run(7 * time.Second)
	judge(t, c, oracle.Safety)
	caughtUp := c.Log.Len(2)
	nowAhead := c.Log.Len(0)
	if nowAhead-caughtUp > 5 {
		t.Fatalf("party 2 did not catch up: %d vs %d commits", caughtUp, nowAhead)
	}
}

func TestPartitionOfQuorumStallsLiveness(t *testing.T) {
	// With 2 of 4 parties partitioned, no n−t = 3 quorum can form: the
	// protocol must stall (but not crash), and resume once healed —
	// exactly the intermittent-synchrony story of paper §3.3.
	c, err := New(Options{N: 4, Seed: 22, SimBeacon: true})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Net.Run(time.Second)
	before := c.Log.Len(0)
	c.Net.Partition(2)
	c.Net.Partition(3)
	c.Net.Run(6 * time.Second)
	during := c.Log.Len(0)
	if during-before > 3 {
		t.Fatalf("committed %d blocks without a quorum", during-before)
	}
	c.Net.Heal(2)
	c.Net.Heal(3)
	c.Net.Run(12 * time.Second)
	after := c.Log.Len(0)
	if after-during < 20 {
		t.Fatalf("liveness did not resume after heal: %d new blocks", after-during)
	}
	judge(t, c, oracle.Safety)
}
