package experiments

import (
	"crypto/rand"
	"fmt"
	"time"

	"icc/internal/clock"
	"icc/internal/core"
	"icc/internal/crypto/keys"
	"icc/internal/node"
	"icc/internal/oracle"
	"icc/internal/transport"
	"icc/internal/types"
)

// dealKeys deals fresh multisig key material for n parties.
func dealKeys(n int) (*keys.Public, []keys.Private) {
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		panic(fmt.Sprintf("experiments: dealing keys: %v", err))
	}
	return pub, privs
}

// mustNode assembles one live node the way every deployment does.
func mustNode(cfg node.Config) *node.Node {
	nd, err := node.New(cfg)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	return nd
}

// liveCluster is n parties on one in-process hub and wall-clock time,
// each the node.Node stack the facade and iccnode run. The wall-clock
// experiments differ only in what conf sets on top of the identity,
// endpoint and clock filled in here.
type liveCluster struct {
	pub   *keys.Public
	privs []keys.Private
	hub   *transport.Inproc
	clk   clock.Clock
	nodes []*node.Node
	conf  func(i int, cfg *node.Config)
}

func newLiveCluster(n int, conf func(i int, cfg *node.Config)) *liveCluster {
	pub, privs := dealKeys(n)
	c := &liveCluster{
		pub: pub, privs: privs,
		hub:   transport.NewInproc(n),
		clk:   clock.NewWall(),
		nodes: make([]*node.Node, n),
		conf:  conf,
	}
	for i := range c.nodes {
		c.build(i)
	}
	return c
}

// build assembles party i afresh on its endpoint (and, when conf names
// one, its directory): what a restarted process would be.
func (c *liveCluster) build(i int) {
	pid := types.PartyID(i)
	cfg := node.Config{Self: pid, Keys: c.pub, Priv: c.privs[i], Endpoint: c.hub.Endpoint(pid), Clock: c.clk}
	c.conf(i, &cfg)
	c.nodes[i] = mustNode(cfg)
}

// startExcept starts every party but skip (−1 for none).
func (c *liveCluster) startExcept(skip int) {
	for i, nd := range c.nodes {
		if i != skip {
			nd.Start()
		}
	}
}

func (c *liveCluster) stop() {
	for _, nd := range c.nodes {
		nd.Stop()
	}
	c.hub.Close()
}

// dropInbox discards what party i's inbox buffered while it was down: a
// restarted process has lost every in-flight message.
func (c *liveCluster) dropInbox(i int) {
	inbox := c.hub.Endpoint(types.PartyID(i)).Inbox()
	for {
		select {
		case <-inbox:
		default:
			return
		}
	}
}

// waitFor polls cond until it holds (true) or deadline passes (false).
func waitFor(deadline time.Time, cond func() bool) bool {
	for time.Now().Before(deadline) {
		if cond() {
			return true
		}
		time.Sleep(5 * time.Millisecond)
	}
	return false
}

// logged is party i's commit hook into log, stamped on the node's clock.
func logged(log *oracle.Log, i int) core.Hooks {
	return core.Hooks{OnCommit: func(b *types.Block, now time.Duration) { log.Commit(types.PartyID(i), b, now) }}
}

// fewest is the commit count of the slowest of n parties in log.
func fewest(log *oracle.Log, n int) int {
	least := log.Len(0)
	for p := 1; p < n; p++ {
		least = min(least, log.Len(types.PartyID(p)))
	}
	return least
}
