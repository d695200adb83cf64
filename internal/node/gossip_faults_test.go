package node_test

import (
	"testing"
	"time"

	"icc/internal/node"
	"icc/internal/transport"
)

// A gossip relay withholds from a neighbour what the frames exchanged
// with it already let it derive. A frame the network lost, or a
// neighbour that restarted with an empty store, makes that knowledge
// wrong: the relay believes the neighbour holds a quorum it never got.
// Nothing in the overlay corrects it — the engine's resync stall detector
// does, over unicasts the overlay passes through. Seven ICC1 parties on
// TCP, three neighbours each so that most artifacts arrive relayed, with
// a pipeline in front (so relays count shares per signer and the quorum
// rule is live): every link drops 5 % of its frames for three seconds,
// and one party is killed and comes back empty. Everyone must finalize
// again and agree.
func TestICC1HealsLostFramesAndARestartedNeighbour(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster in -short mode")
	}
	const (
		n      = 7
		victim = 6
		faults = 3 * time.Second
	)
	c := newTestCluster(t, n, true)
	var dropped []*transport.Faulty
	conf := func(i int, cfg *node.Config) {
		cfg.Mode = node.ICC1
		cfg.GossipFanout = 3
		f := transport.NewFaulty(cfg.Endpoint, cfg.Self, transport.FaultPlan{
			Seed: int64(31 + i), DropRate: 0.05, FaultsUntil: faults,
		})
		dropped = append(dropped, f)
		cfg.Endpoint = f
	}
	start := time.Now()
	c.buildAll(n, conf)
	c.waitCommits(all(n), 3, 60*time.Second)

	// Mid-run, one party dies. The other six are one more than the n−t = 5
	// quorum and keep finalizing through the rest of the lossy window.
	c.nodes[victim].Kill()
	survivors := all(n - 1)
	c.waitCommits(survivors, c.committed(0)+5, 60*time.Second)
	if wait := faults - time.Since(start); wait > 0 {
		time.Sleep(wait)
	}

	// It comes back as a new process would: new socket, empty pool, empty
	// gossip store, and neighbours that remember what the old one held.
	c.dropInbox(victim)
	c.reopen(victim)
	target := c.round(0)
	c.build(victim, func(cfg *node.Config) { conf(victim, cfg) }).Start()
	waitFor(t, 120*time.Second, "restarted party did not catch up", func() bool {
		return c.round(victim) >= target
	})
	c.waitCommits(survivors, c.committed(0)+5, 60*time.Second)
	c.agree()

	var lost int64
	for _, f := range dropped {
		lost += f.Stats().Dropped
	}
	if lost == 0 {
		t.Fatal("no frame was dropped — the test exercised nothing")
	}
}
