package experiments

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"icc/internal/core"
	"icc/internal/gateway"
	"icc/internal/node"
	"icc/internal/statemachine"
	"icc/internal/types"
)

// Gateway measures the client-facing ingress end to end (E12): an
// open-loop load generator drives /v1-equivalent Submit calls against a
// live four-party cluster at fixed rates and key skews, and the table
// reports submit→finalize latency percentiles plus the two correctness
// properties the API promises:
//
//   - acks only at finality: every acknowledged command is observable
//     in the acknowledging replica's finalized KV at ack time;
//   - read-your-writes: a read with the Receipt's commit-index token
//     observes the write on every party, not just the submission party.
//
// Both are counted as violations (must be 0). Backpressure shows up in
// the reject column: an open loop over a full backlog loses ticks at
// admission instead of queueing unboundedly.
func Gateway(scale Scale) *Table {
	t := &Table{
		ID:      "E12",
		Title:   "client gateway: open-loop submit→finalize latency, backpressure, read-your-writes",
		Columns: []string{"rate", "skew", "submitted", "acked", "rejected", "p50", "p99", "wait", "order", "ack", "offers", "ryw", "ack<final"},
		Notes: []string{
			"4 parties, in-process transport, Δbnd 20ms, open-loop load for the configured window, three windows a row on the same cluster",
			"submitted / acked / rejected: the three windows' sum; p50 / p99: the median of the three windows' values, with their min–max in parentheses",
			"wait / order / ack: the three stages of the p50, as medians — admitted → the block that committed the command is proposed; that proposal → the admitting party commits it; that commit → the client's waiter wakes",
			"offers: forwarded commands merged : held (all parties), how many of the commands other parties forwarded rode this party's blocks",
			"ryw: read-your-writes probes (write via one party, read with token on every party) — violations/probes",
			"ack<final: acked commands not present in finalized local state at ack time (must be 0)",
			"rejected: ErrBacklogFull admission rejections (lost open-loop ticks, never queued)",
		},
	}
	window := time.Duration(float64(4*time.Second) * scaleFactor(scale))
	if window < 500*time.Millisecond {
		window = 500 * time.Millisecond
	}
	configs := []struct {
		rate int
		skew float64
	}{
		{200, 0},
		{200, 1.2},
		{1000, 0},
		{1000, 1.2},
	}
	cl := newGatewayCluster()
	defer cl.stop()
	for i, cfg := range configs {
		cl.stages.reset()
		// Three windows a row on the same cluster: one run of the table
		// shows its own spread, which a single wall-clock window on a
		// shared host does not.
		var sum gateway.LoadReport
		var p50s, p99s []time.Duration
		probes, rywViol, ackViol := 0, 0, 0
		for r := 0; r < gatewayRuns; r++ {
			rep, pr, ryw, ack := cl.run(cfg.rate, cfg.skew, window, uint64(1000*(i+1)+20*r))
			sum.Submitted += rep.Submitted
			sum.Acked += rep.Acked
			sum.Rejected += rep.Rejected
			p50s, p99s = append(p50s, rep.P50), append(p99s, rep.P99)
			probes, rywViol, ackViol = probes+pr, rywViol+ryw, ackViol+ack
		}
		st := cl.stages.report()
		skew := "uniform"
		if cfg.skew > 0 {
			skew = fmt.Sprintf("zipf %.1f", cfg.skew)
		}
		t.AddRow(
			fmt.Sprintf("%d/s", cfg.rate),
			skew,
			fmt.Sprintf("%d", sum.Submitted),
			fmt.Sprintf("%d", sum.Acked),
			fmt.Sprintf("%d", sum.Rejected),
			spread(p50s),
			spread(p99s),
			fmt.Sprintf("%.1fms", st.wait.Seconds()*1000),
			fmt.Sprintf("%.1fms", st.order.Seconds()*1000),
			fmt.Sprintf("%.1fms", st.ack.Seconds()*1000),
			fmt.Sprintf("%d:%d", st.merged, st.held),
			fmt.Sprintf("%d/%d", rywViol, probes),
			fmt.Sprintf("%d", ackViol),
		)
	}
	return t
}

// gatewayRuns is how many load windows E12 runs for each row.
const gatewayRuns = 3

// spread prints the median of ds and, in parentheses, their min–max.
func spread(ds []time.Duration) string {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	ms := func(d time.Duration) float64 { return d.Seconds() * 1000 }
	return fmt.Sprintf("%.1fms (%.1f–%.1f)", ms(ds[len(ds)/2]), ms(ds[0]), ms(ds[len(ds)-1]))
}

// scaleFactor maps Scale onto (0, 1] for wall-clock windows.
func scaleFactor(s Scale) float64 {
	if s <= 0 || s >= 1 {
		return 1
	}
	return float64(s)
}

// gatewayCluster is a live 4-party cluster with a gateway per replica,
// built from node.Node like the facade's (the experiment measures the
// gateway layer itself, without facade indirection).
type gatewayCluster struct {
	*liveCluster
	n      int
	kvs    []*statemachine.KV
	gws    []*gateway.Gateway
	stages *stageLog
}

func newGatewayCluster() *gatewayCluster {
	const n = 4
	cl := &gatewayCluster{n: n, kvs: make([]*statemachine.KV, n), gws: make([]*gateway.Gateway, n), stages: newStageLog(n)}
	cl.liveCluster = newLiveCluster(n, func(i int, cfg *node.Config) {
		cfg.DeltaBound = 20 * time.Millisecond
		cfg.PruneDepth = core.DefaultPruneDepth
		cfg.Replica = node.NewReplica(gateway.Options{Party: i})
		cfg.Hooks = cl.stages.hooks(i)
		cl.kvs[i], cl.gws[i] = cfg.Replica.KV, cfg.Replica.Gateway
	})
	cl.startExcept(-1)
	return cl
}

// stageLog splits a command's submit→ack latency at the two points the
// cluster can see from inside: the proposal of the block that committed
// it (whoever proposed it) and its commit on the party that admitted it.
// The commit stamp is taken as the party's commit hook ends, with the
// block applied and the receipts resolved, so the last stage is the
// waiter's wake-up alone.
type stageLog struct {
	mu       sync.Mutex
	proposed map[types.Round][]time.Time // round → per party, when it proposed
	commits  []map[types.Round]commitStamp
	wait     []time.Duration // admitted → proposed
	order    []time.Duration // proposed → committed
	ack      []time.Duration // committed → acked
	offers   map[string]int
}

type commitStamp struct {
	at       time.Time
	proposer types.PartyID
}

func newStageLog(n int) *stageLog {
	l := &stageLog{proposed: make(map[types.Round][]time.Time), commits: make([]map[types.Round]commitStamp, n)}
	for i := range l.commits {
		l.commits[i] = make(map[types.Round]commitStamp)
	}
	l.reset()
	return l
}

// reset starts a new load window; proposals and commits are kept, a
// command of this window is never committed in an earlier round.
func (l *stageLog) reset() {
	l.mu.Lock()
	l.wait, l.order, l.ack, l.offers = nil, nil, nil, make(map[string]int)
	l.mu.Unlock()
}

func (l *stageLog) hooks(i int) core.Hooks {
	return core.Hooks{
		OnPropose: func(k types.Round, _, _ time.Duration) {
			now := time.Now()
			l.mu.Lock()
			if l.proposed[k] == nil {
				l.proposed[k] = make([]time.Time, len(l.commits))
			}
			l.proposed[k][i] = now
			l.mu.Unlock()
		},
		OnCommit: func(b *types.Block, _ time.Duration) {
			now := time.Now()
			l.mu.Lock()
			l.commits[i][b.Round] = commitStamp{at: now, proposer: b.Proposer}
			l.mu.Unlock()
		},
		OnPayloadOffer: func(_ types.PartyID, _ types.Round, _ int, outcome string, _ time.Duration) {
			l.mu.Lock()
			l.offers[outcome]++
			l.mu.Unlock()
		},
	}
}

// onAck is the load generator's per-command callback.
func (l *stageLog) onAck(gw int, admitted time.Time, ack gateway.Ack, acked time.Time) {
	k := types.Round(ack.CommitIndex)
	l.mu.Lock()
	defer l.mu.Unlock()
	commit, ok := l.commits[gw][k]
	if !ok || l.proposed[k] == nil || l.proposed[k][commit.proposer].IsZero() {
		return
	}
	proposed := l.proposed[k][commit.proposer]
	l.wait = append(l.wait, proposed.Sub(admitted))
	l.order = append(l.order, commit.at.Sub(proposed))
	l.ack = append(l.ack, acked.Sub(commit.at))
}

type stageReport struct {
	wait, order, ack time.Duration // medians
	merged, held     int
}

func (l *stageLog) report() stageReport {
	l.mu.Lock()
	defer l.mu.Unlock()
	median := func(d []time.Duration) time.Duration {
		if len(d) == 0 {
			return 0
		}
		sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
		return d[len(d)/2]
	}
	return stageReport{
		wait: median(l.wait), order: median(l.order), ack: median(l.ack),
		merged: l.offers[core.OfferMerged], held: l.offers[core.OfferHeld],
	}
}

// run performs one load window followed by the correctness probes.
func (cl *gatewayCluster) run(rate int, skew float64, window time.Duration, clientBase uint64) (rep *gateway.LoadReport, probes, rywViol, ackViol int) {
	ctx := context.Background()
	rep, err := gateway.RunLoad(ctx, cl.gws, gateway.LoadOptions{
		Rate:       rate,
		Duration:   window,
		Clients:    16,
		ClientBase: clientBase,
		Keys:       512,
		Skew:       skew,
		ValueBytes: 64,
		Seed:       int64(clientBase),
		OnAck:      cl.stages.onAck,
	})
	if err != nil {
		panic(fmt.Sprintf("experiments: load: %v", err))
	}

	// Correctness probes: unique-key writes acknowledged at finality,
	// then read back with the commit-index token on every party. The
	// probes run concurrently — they are independent clients.
	const nProbes = 16
	probeCtx, cancel := context.WithTimeout(ctx, time.Minute)
	defer cancel()
	var (
		mu sync.Mutex
		wg sync.WaitGroup
	)
	for p := 0; p < nProbes; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			gw := cl.gws[p%cl.n]
			key := fmt.Sprintf("probe/%d/%d", clientBase, p)
			want := []byte(fmt.Sprintf("v%d", p))
			receipt, err := gw.Submit(probeCtx, statemachine.Command{
				Client: clientBase + 500 + uint64(p),
				Seq:    1,
				Op:     statemachine.OpSet,
				Key:    key,
				Value:  want,
			})
			if err != nil {
				return
			}
			ack, err := receipt.Wait(probeCtx)
			if err != nil {
				return
			}
			// Ack honesty: the write must already be in the acknowledging
			// replica's finalized state — an ack before apply would be an
			// ack before finality.
			ackBad := 0
			if v, ok := cl.kvs[p%cl.n].Get(key); !ok || string(v) != string(want) {
				ackBad = 1
			}
			// Read-your-writes: the token must make the write visible on
			// every replica, including ones that have not applied the
			// round yet at probe time.
			rywBad := 0
			for q := 0; q < cl.n; q++ {
				res, err := cl.gws[q].Read(probeCtx, key, ack.CommitIndex)
				if err != nil || !res.Found || string(res.Value) != string(want) {
					rywBad++
				}
			}
			mu.Lock()
			probes++
			ackViol += ackBad
			rywViol += rywBad
			mu.Unlock()
		}()
	}
	wg.Wait()
	return rep, probes, rywViol, ackViol
}
