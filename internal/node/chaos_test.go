package node_test

// Chaos suite: the stack every deployment runs — engine, verify
// pipeline, event loop, TCP transport with real sockets — under peer
// death, partitions, and probabilistic message faults. Safety (no two
// parties commit different blocks in a round) must hold throughout;
// finalization must resume once the faults end. The post-fault recovery
// leans on the engine's resync layer (core/resync.go): TCP loses
// in-flight frames at a cut, and the quiescent paper protocol alone
// never retransmits them.

import (
	"testing"
	"time"

	"icc/internal/node"
	"icc/internal/transport"
	"icc/internal/types"
)

// startChaosCluster boots four TCP parties, each behind a fault layer
// running plan(p), and returns the cluster with a reader of the faults
// injected so far, summed over parties.
func startChaosCluster(t *testing.T, plan func(p types.PartyID) transport.FaultPlan) (*testCluster, func() transport.FaultyStats) {
	t.Helper()
	c := newTestCluster(t, 4, true)
	var faulties []*transport.Faulty
	c.buildAll(4, func(_ int, cfg *node.Config) {
		f := transport.NewFaulty(cfg.Endpoint, cfg.Self, plan(cfg.Self))
		faulties = append(faulties, f)
		cfg.Endpoint = f
	})
	total := func() transport.FaultyStats {
		var sum transport.FaultyStats
		for _, f := range faulties {
			s := f.Stats()
			sum.Dropped += s.Dropped
			sum.Duplicated += s.Duplicated
			sum.Delayed += s.Delayed
			sum.Cut += s.Cut
		}
		return sum
	}
	return c, total
}

func TestTCPClusterSurvivesStoppedPeer(t *testing.T) {
	c := newTestCluster(t, 4, true)
	c.buildAll(4, nil)
	c.waitCommits(all(4), 3, 20*time.Second)

	// Kill node 3 outright: event loop stopped, socket closed. The three
	// survivors are exactly the n−t quorum and must keep finalizing.
	c.nodes[3].Stop()
	base := c.committed(0)
	c.waitCommits([]int{0, 1, 2}, base+3, 20*time.Second)
	c.agree()

	// The survivors' queues to the dead peer saw redials and drops, not
	// stalls: they kept committing, which the wait above already proved.
	snap := c.stats[0].Detail()
	if snap.SendErrors > 0 {
		// Sends to a dead TCP peer enqueue fine (the writer redials
		// forever); errors would mean the endpoint rejected messages.
		t.Fatalf("unexpected send errors on a surviving node: %+v", snap)
	}
}

func TestChaosPartitionHealsAndFinalizes(t *testing.T) {
	window := transport.PartitionWindow{
		From: 1500 * time.Millisecond,
		To:   4 * time.Second,
		A:    []types.PartyID{0, 1},
		B:    []types.PartyID{2, 3},
	}
	c, injected := startChaosCluster(t, func(p types.PartyID) transport.FaultPlan {
		return transport.FaultPlan{Seed: int64(100 + p), Partitions: []transport.PartitionWindow{window}}
	})
	c.waitCommits(all(4), 2, 20*time.Second)

	// Ride out the partition. A 2|2 split has no n−t = 3 quorum on
	// either side, so finalization halts; messages crossing the cut are
	// black-holed (TCP frames genuinely lost), so recovery requires the
	// resync layer, not just reconnection.
	time.Sleep(window.To + 500*time.Millisecond)
	during := c.committed(0)

	// Renewed finalization after healing, on every node.
	c.waitCommits(all(4), during+5, 30*time.Second)
	c.agree()
	if injected().Cut == 0 {
		t.Fatal("partition window injected no faults — test exercised nothing")
	}
}

func TestChaosDropDupDelayCluster(t *testing.T) {
	c, injected := startChaosCluster(t, func(p types.PartyID) transport.FaultPlan {
		return transport.FaultPlan{
			Seed:        int64(7 + p),
			DropRate:    0.05,
			DupRate:     0.10,
			DelayRate:   0.20,
			MaxDelay:    40 * time.Millisecond,
			FaultsUntil: 3 * time.Second,
		}
	})
	// Progress during the fault window is allowed but not required;
	// after FaultsUntil the network is clean and everyone must finalize.
	time.Sleep(3 * time.Second)
	base := c.committed(0)
	c.waitCommits(all(4), base+5, 30*time.Second)
	c.agree()

	if s := injected(); s.Dropped == 0 || s.Duplicated == 0 || s.Delayed == 0 {
		t.Fatalf("fault plan injected too little: %+v", s)
	}
}
