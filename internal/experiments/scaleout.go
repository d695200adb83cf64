package experiments

import (
	"fmt"
	"time"

	"icc/internal/beacon"
	"icc/internal/clock"
	"icc/internal/core"
	"icc/internal/harness"
	"icc/internal/node"
	"icc/internal/pool"
	"icc/internal/simnet"
	"icc/internal/transport"
	"icc/internal/types"
)

// Scaleout measures the 100-party gossip path (experiment E13): for
// n ∈ {16, 31, 64, 100} under ICC1, the commits/s and per-party bytes
// per round of three overlay configurations —
//
//   - shares:      every signature share relayed individually (the
//     pre-scale-out wire behaviour);
//   - batched:     shares coalesced into ShareBundle frames on a 2 ms
//     window (amortising frame and statement-header overhead);
//   - batched+agg: additionally, a relay holding a quorum of shares for
//     one statement forwards the aggregated certificate instead of the
//     shares, and beacon relaying stops at t+1 shares.
//
// The paper's §1.1 communication claim is per-party cost that does not
// multiply by the flood factor: naive share gossip costs every party
// O(n·fanout) share frames per round, while an aggregating relay caps
// the per-statement traffic it forwards at one certificate — so the
// per-party bytes curve must grow sublinearly in n once aggregation is
// on. DESIGN.md §14 carries the complexity argument; the growth ratios
// land in the Metrics map for trend tooling (relay aggregation on vs
// off is the A/B the BENCH json records).
//
// A second leg runs n=31 over real TCP loopback on node.New's ICC1
// stack — the code path the LocalCluster facade and iccnode ship —
// proving the flush timers and relay aggregation hold up under real
// sockets and concurrent event loops, not just the discrete-event net.
func Scaleout(scale Scale) *Table {
	t := &Table{
		ID:    "E13",
		Title: "scale-out: commits/s and bytes/party vs n (ICC1 overlay, share batching, relay aggregation)",
		Columns: []string{"n", "config", "commits/s", "KiB/party/round", "×bytes vs n=16",
			"×n vs 16"},
		Notes: []string{
			"×bytes vs n=16 below ×n vs 16 ⇒ per-party cost grows sublinearly in n (paper §1.1)",
			"shares = per-share relaying, batched = ShareBundle frames (2ms window), +agg = relay-side certificate aggregation",
		},
	}
	blocks := scale.scaleInt(12)
	configs := []struct {
		name   string
		window time.Duration
		agg    bool
	}{
		{"shares", 0, false},
		{"batched", 2 * time.Millisecond, false},
		{"batched+agg", 2 * time.Millisecond, true},
	}
	sizes := []int{16, 31, 64, 100}
	base := make(map[string]float64) // config → bytes/party/round at n=16
	for _, n := range sizes {
		for _, cfg := range configs {
			c, err := harness.New(harness.Options{
				N:                 n,
				Seed:              int64(13000 + n),
				Delay:             simnet.Fixed{D: 10 * time.Millisecond},
				DeltaBound:        50 * time.Millisecond,
				Mode:              harness.ICC1,
				SimBeacon:         true,
				Verify:            pool.VerifySharesOnly,
				PruneDepth:        simPruneDepth,
				GossipBatchWindow: cfg.window,
				GossipAggregate:   cfg.agg,
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
			elapsed := c.Net.Now().Seconds()
			if elapsed == 0 {
				elapsed = 1
			}
			// Mean bytes per party: the paper's per-party communication
			// measure. (MaxPartyBytes would fold in topology-degree skew —
			// random chords give a few hub parties extra neighbours, and
			// that variance grows with n independently of the per-party
			// scaling under test.)
			perParty := float64(s.TotalBytes) / float64(n) / rounds
			if n == sizes[0] {
				base[cfg.name] = perParty
			}
			growth := perParty / base[cfg.name]
			commitRate := float64(s.CommittedBlocks) / elapsed
			t.AddRow(fmt.Sprintf("%d", n), cfg.name,
				fmt.Sprintf("%.1f", commitRate),
				fmt.Sprintf("%.1f", perParty/1024),
				fmt.Sprintf("%.2f", growth),
				fmt.Sprintf("%.2f", float64(n)/float64(sizes[0])))
			suffix := "noagg"
			if cfg.agg {
				suffix = "agg"
			}
			if cfg.window > 0 {
				t.SetMetric(fmt.Sprintf("sim_bytes_per_party_round_n%d_%s", n, suffix), perParty)
				t.SetMetric(fmt.Sprintf("sim_commits_per_s_n%d_%s", n, suffix), commitRate)
			}
		}
	}
	last := sizes[len(sizes)-1]
	if b := t.Metrics[fmt.Sprintf("sim_bytes_per_party_round_n%d_agg", last)]; base["batched+agg"] > 0 {
		t.SetMetric("bytes_growth_agg", b/base["batched+agg"])
	}
	if b := t.Metrics[fmt.Sprintf("sim_bytes_per_party_round_n%d_noagg", last)]; base["batched"] > 0 {
		t.SetMetric("bytes_growth_noagg", b/base["batched"])
	}
	t.SetMetric("bytes_growth_linear_ref", float64(last)/float64(sizes[0]))

	// Real-socket leg: n=31 on TCP loopback, batching + aggregation on.
	tcpN, tcpWant := 31, scale.scaleInt(4)
	commits, seconds := runTCPCluster(tcpN, tcpWant)
	t.AddRow(fmt.Sprintf("%d", tcpN), "tcp batched+agg",
		fmt.Sprintf("%.1f", float64(commits)/seconds), "-", "-", "-")
	t.SetMetric("tcp_n31_commits", float64(commits))
	t.SetMetric("tcp_n31_commits_per_s", float64(commits)/seconds)
	return t
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
	log := newCommitLog(n)
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
			Hooks:        core.Hooks{OnCommit: log.hook(i)},
		})
	}
	start := time.Now()
	for _, nd := range nodes {
		nd.Start()
	}
	deadline := start.Add(2 * time.Minute)
	for {
		commits = log.minCommits()
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
