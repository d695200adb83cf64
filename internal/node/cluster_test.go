package node_test

import (
	"crypto/rand"
	"fmt"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/clock"
	"icc/internal/core"
	"icc/internal/crypto/keys"
	"icc/internal/metrics"
	"icc/internal/node"
	"icc/internal/obs"
	"icc/internal/oracle"
	"icc/internal/transport"
	"icc/internal/types"
)

// testCluster is n parties assembled with New, on the in-process hub or
// on TCP loopback, with every commit logged from outside on the shared
// clock (a restarted party's log continues where the old one stopped). A
// party the test never builds keeps its endpoint free for the test to
// drive.
type testCluster struct {
	t         *testing.T
	n         int
	pub       *keys.Public
	privs     []keys.Private
	hub       *transport.Inproc         // nil on TCP
	tcps      []*transport.TCP          // nil in process
	stats     []*metrics.TransportStats // node i's transport counters, on transport[i]
	transport []*obs.Registry
	clk       clock.Clock
	reg       *obs.Registry
	nodes     []*node.Node
	eps       []transport.Endpoint // what each node was built on: endpoint(i), or a fault layer over it
	log       *oracle.Log
}

func newTestCluster(t *testing.T, n int, tcp bool) *testCluster {
	t.Helper()
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	c := &testCluster{
		t: t, n: n, pub: pub, privs: privs,
		clk:       clock.NewWall(),
		reg:       obs.NewRegistry(),
		nodes:     make([]*node.Node, n),
		eps:       make([]transport.Endpoint, n),
		stats:     make([]*metrics.TransportStats, n),
		transport: make([]*obs.Registry, n),
		log:       oracle.NewLog(n),
	}
	for i := range c.stats {
		c.transport[i] = obs.NewRegistry()
		c.stats[i] = metrics.NewTransportStatsOn(c.transport[i], nil)
	}
	if !tcp {
		c.hub = transport.NewInproc(n)
	} else {
		// Every endpoint listens on a port the kernel picks; only then can
		// each be told where its peers landed.
		addrs := make(map[types.PartyID]string, n)
		for i := 0; i < n; i++ {
			addrs[types.PartyID(i)] = "127.0.0.1:0"
		}
		c.tcps = make([]*transport.TCP, n)
		for i := range c.tcps {
			c.tcps[i], err = transport.NewTCPWithOptions(types.PartyID(i), addrs,
				transport.TCPOptions{Stats: c.stats[i], RedialMax: 500 * time.Millisecond})
			if err != nil {
				t.Fatal(err)
			}
		}
		for i, ep := range c.tcps {
			for j, peer := range c.tcps {
				if i != j {
					ep.SetPeerAddr(types.PartyID(j), peer.Addr())
				}
			}
		}
	}
	t.Cleanup(func() {
		for _, nd := range c.nodes {
			if nd != nil {
				nd.Stop()
			}
		}
		if c.hub != nil {
			c.hub.Close()
		}
		for _, ep := range c.tcps {
			_ = ep.Close() // a party that never got a node still holds its socket
		}
	})
	return c
}

// endpoint is party i's raw attachment to the cluster's transport.
func (c *testCluster) endpoint(i int) transport.Endpoint {
	if c.hub != nil {
		return c.hub.Endpoint(types.PartyID(i))
	}
	return c.tcps[i]
}

// reopen gives party i of a TCP cluster a fresh socket, as a restarted
// process would get one (Stop closed the old), and tells its peers where
// to redial.
func (c *testCluster) reopen(i int) {
	c.t.Helper()
	addrs := make(map[types.PartyID]string, c.n)
	for j, ep := range c.tcps {
		addrs[types.PartyID(j)] = ep.Addr()
	}
	addrs[types.PartyID(i)] = "127.0.0.1:0"
	ep, err := transport.NewTCPWithOptions(types.PartyID(i), addrs,
		transport.TCPOptions{Stats: c.stats[i], RedialMax: 500 * time.Millisecond})
	if err != nil {
		c.t.Fatal(err)
	}
	c.tcps[i] = ep
	for j, peer := range c.tcps {
		if j != i {
			peer.SetPeerAddr(types.PartyID(i), ep.Addr())
		}
	}
}

// build assembles party i (again, for a restart): a simulated beacon,
// the shared registry, the commit log — and whatever conf changes on
// top.
func (c *testCluster) build(i int, conf func(cfg *node.Config)) *node.Node {
	c.t.Helper()
	pid := types.PartyID(i)
	cfg := node.Config{
		Self: pid, Keys: c.pub, Priv: c.privs[i],
		Endpoint:   c.endpoint(i),
		Clock:      c.clk,
		Beacon:     beacon.NewSimulated(c.n, pid, c.pub.GenesisSeed),
		DeltaBound: 50 * time.Millisecond,
		Registry:   c.reg,
		Stats:      c.stats[i],
		Hooks: core.Hooks{OnCommit: func(b *types.Block, _ time.Duration) {
			c.log.Commit(pid, b, c.clk.Now())
		}},
	}
	if conf != nil {
		conf(&cfg)
	}
	nd, err := node.New(cfg)
	if err != nil {
		c.t.Fatalf("party %d: %v", i, err)
	}
	c.nodes[i], c.eps[i] = nd, cfg.Endpoint
	return nd
}

// buildAll assembles and starts parties 0..live−1.
func (c *testCluster) buildAll(live int, conf func(i int, cfg *node.Config)) {
	c.t.Helper()
	for i := 0; i < live; i++ {
		i := i
		c.build(i, func(cfg *node.Config) {
			if conf != nil {
				conf(i, cfg)
			}
		})
	}
	for _, nd := range c.nodes[:live] {
		nd.Start()
	}
}

func (c *testCluster) committed(i int) int { return c.log.Len(types.PartyID(i)) }

// round is the round of party i's latest commit: after a restart, of what
// its replay or catch-up has reached.
func (c *testCluster) round(i int) types.Round { return c.log.Last(types.PartyID(i)).Round }

// dropInbox discards what party i's inbox buffered while it was down.
func (c *testCluster) dropInbox(i int) {
	inbox := c.eps[i].Inbox()
	for {
		select {
		case _, ok := <-inbox:
			if !ok {
				return
			}
		default:
			return
		}
	}
}

// waitCommits waits until each of parties has committed want blocks.
func (c *testCluster) waitCommits(parties []int, want int, timeout time.Duration) {
	c.t.Helper()
	waitFor(c.t, timeout, fmt.Sprintf("no %d commits on every party of %v", want, parties), func() bool {
		for _, i := range parties {
			if c.committed(i) < want {
				return false
			}
		}
		return true
	})
}

// agree asserts that no two parties committed different blocks at one
// round. Chain is not asked for: a restarted party's replay commits its
// rounds a second time, and a checkpoint install skips some.
func (c *testCluster) agree() {
	c.t.Helper()
	if err := oracle.Judge(c.log, oracle.Expect{Holds: oracle.Agreement}); err != nil {
		c.t.Fatal(err)
	}
}

func all(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// waitFor polls cond until it holds or the timeout elapses.
func waitFor(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal(msg)
}
