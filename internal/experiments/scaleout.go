package experiments

import (
	"fmt"
	"time"

	"icc/internal/beacon"
	"icc/internal/clock"
	"icc/internal/harness"
	"icc/internal/node"
	"icc/internal/oracle"
	"icc/internal/pool"
	"icc/internal/simnet"
	"icc/internal/transport"
	"icc/internal/types"
)

// Scaleout measures the 100-party gossip path (experiment E13): for
// n ∈ {16, 31, 64, 100}, the commits/s and per-party bytes per round of
// the ICC1 overlay as every party runs it — shares coalesced into
// ShareBundle frames on an adaptive 2 ms window, a relay holding a
// quorum forwarding the certificate instead of the shares, beacon
// relaying stopping at t+1 shares.
//
// The paper's §1.1 communication claim is per-party cost that does not
// multiply by the flood factor: naive share gossip costs every party
// O(n·fanout) share frames per round, while an aggregating relay caps
// the per-statement traffic it forwards at one certificate — so the
// per-party bytes curve must grow sublinearly in n. DESIGN.md §14
// carries the complexity argument, and the numbers of the two overlays
// this one was chosen over (per-share relaying, batching without
// aggregation).
//
// A second leg runs n=31 over real TCP loopback on node.New — the same
// stack behind a verify pipeline and real sockets — proving the flush
// timers and relay aggregation hold up under concurrent event loops,
// not just the discrete-event net.
func Scaleout(scale Scale) *Table {
	t := &Table{
		ID:      "E13",
		Title:   "scale-out: commits/s and bytes/party vs n (ICC1 overlay: adaptive share batching, relay aggregation)",
		Columns: []string{"n", "net", "commits/s", "KiB/party/round", "×bytes vs n=16", "×n vs 16"},
		Notes: []string{
			"×bytes vs n=16 below ×n vs 16 ⇒ per-party cost grows sublinearly in n (paper §1.1)",
		},
	}
	blocks := scale.scaleInt(12)
	sizes := []int{16, 31, 64, 100}
	var base float64 // bytes/party/round at n=16
	for _, n := range sizes {
		commitRate, perParty, _ := runOverlayCell(harness.Options{
			N:          n,
			Seed:       int64(13000 + n),
			Delay:      simnet.Fixed{D: 10 * time.Millisecond},
			DeltaBound: 50 * time.Millisecond,
			Mode:       node.ICC1,
			SimBeacon:  true,
			Verify:     pool.VerifyPreVerified,
			PruneDepth: simPruneDepth,
		}, blocks)
		if n == sizes[0] {
			base = perParty
		}
		t.AddRow(fmt.Sprintf("%d", n), "simnet",
			fmt.Sprintf("%.1f", commitRate),
			fmt.Sprintf("%.1f", perParty/1024),
			fmt.Sprintf("%.2f", perParty/base),
			fmt.Sprintf("%.2f", float64(n)/float64(sizes[0])))
	}

	// Real-socket leg: n=31 on TCP loopback.
	tcpN, tcpWant := 31, scale.scaleInt(4)
	commits, seconds := runTCPCluster(tcpN, tcpWant)
	t.AddRow(fmt.Sprintf("%d", tcpN), "tcp",
		fmt.Sprintf("%.1f", float64(commits)/seconds), "-", "-", "-")
	return t
}

// runOverlayCell runs one simulated cluster until every honest party has
// committed blocks blocks, and returns its commits/s and its mean bytes
// per party and round — the paper's per-party communication measure.
// (MaxPartyBytes would fold in topology-degree skew: random chords give a
// few hub parties extra neighbours, and that variance grows with n
// independently of the per-party scaling under test.)
func runOverlayCell(opts harness.Options, blocks int) (commitRate, perParty float64, c *harness.Cluster) {
	c, err := harness.New(opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	c.Start()
	c.RunUntilCommitted(blocks, time.Hour)
	s := c.Log.Summarize()
	rounds := float64(s.CommittedBlocks)
	if rounds == 0 {
		rounds = 1
	}
	elapsed := c.Net.Now().Seconds()
	if elapsed == 0 {
		elapsed = 1
	}
	return float64(s.CommittedBlocks) / elapsed, float64(s.TotalBytes) / float64(opts.N) / rounds, c
}

// runTCPCluster assembles an n-party real-TCP loopback cluster of ICC1
// nodes as every deployment runs them (adaptive share batching, relay
// aggregation, verify pipeline in front), waits for every node to
// commit `want` blocks (or a generous wall deadline), and returns the
// slowest node's commit count and the elapsed wall seconds.
func runTCPCluster(n, want int) (commits int, seconds float64) {
	pub, privs := dealKeys(n)
	addrs := make(map[types.PartyID]string, n)
	for i := 0; i < n; i++ {
		addrs[types.PartyID(i)] = "127.0.0.1:0"
	}
	tcps := make([]*transport.TCP, n)
	for i := 0; i < n; i++ {
		ep, err := transport.NewTCPWithOptions(types.PartyID(i), addrs,
			transport.TCPOptions{RedialMax: 500 * time.Millisecond})
		if err != nil {
			panic(fmt.Sprintf("experiments: tcp endpoint: %v", err))
		}
		tcps[i] = ep
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i != j {
				tcps[i].SetPeerAddr(types.PartyID(j), tcps[j].Addr())
			}
		}
	}
	log := oracle.NewLog(n)
	clk := clock.NewWall()
	nodes := make([]*node.Node, n)
	for i := 0; i < n; i++ {
		pid := types.PartyID(i)
		nodes[i] = mustNode(node.Config{
			Self: pid, Keys: pub, Priv: privs[i], Endpoint: tcps[i], Clock: clk,
			Mode:         node.ICC1,
			DeltaBound:   100 * time.Millisecond,
			Beacon:       beacon.NewSimulated(n, pid, pub.GenesisSeed),
			GossipFanout: 8,
			GossipSeed:   1313,
			Hooks:        logged(log, i),
		})
	}
	start := time.Now()
	for _, nd := range nodes {
		nd.Start()
	}
	deadline := start.Add(2 * time.Minute)
	for {
		commits = log.Fewest()
		if commits >= want || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	seconds = time.Since(start).Seconds()
	for _, nd := range nodes {
		nd.Stop()
	}
	if seconds == 0 {
		seconds = 1
	}
	return commits, seconds
}
