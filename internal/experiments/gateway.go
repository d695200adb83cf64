package experiments

import (
	"context"
	"fmt"
	"sync"
	"time"

	"icc/internal/core"
	"icc/internal/gateway"
	"icc/internal/node"
	"icc/internal/statemachine"
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
		Columns: []string{"rate", "skew", "submitted", "acked", "rejected", "p50", "p99", "ryw", "ack<final"},
		Notes: []string{
			"4 parties, in-process transport, Δbnd 20ms, open-loop load for the configured window",
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
		rep, probes, rywViol, ackViol := cl.run(cfg.rate, cfg.skew, window, uint64(1000*(i+1)))
		skew := "uniform"
		if cfg.skew > 0 {
			skew = fmt.Sprintf("zipf %.1f", cfg.skew)
		}
		t.AddRow(
			fmt.Sprintf("%d/s", cfg.rate),
			skew,
			fmt.Sprintf("%d", rep.Submitted),
			fmt.Sprintf("%d", rep.Acked),
			fmt.Sprintf("%d", rep.Rejected),
			fmt.Sprintf("%.1fms", rep.P50.Seconds()*1000),
			fmt.Sprintf("%.1fms", rep.P99.Seconds()*1000),
			fmt.Sprintf("%d/%d", rywViol, probes),
			fmt.Sprintf("%d", ackViol),
		)
		prefix := fmt.Sprintf("rate%d_%s", cfg.rate, map[bool]string{true: "zipf", false: "uniform"}[cfg.skew > 0])
		t.SetMetric(prefix+"_p50_ms", rep.P50.Seconds()*1000)
		t.SetMetric(prefix+"_p99_ms", rep.P99.Seconds()*1000)
		t.SetMetric(prefix+"_acked", float64(rep.Acked))
		t.SetMetric(prefix+"_rejected", float64(rep.Rejected))
		t.SetMetric(prefix+"_ryw_violations", float64(rywViol))
		t.SetMetric(prefix+"_ack_before_final", float64(ackViol))
	}
	return t
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
	n   int
	kvs []*statemachine.KV
	gws []*gateway.Gateway
}

func newGatewayCluster() *gatewayCluster {
	const n = 4
	cl := &gatewayCluster{n: n, kvs: make([]*statemachine.KV, n), gws: make([]*gateway.Gateway, n)}
	cl.liveCluster = newLiveCluster(n, func(i int, cfg *node.Config) {
		cfg.DeltaBound = 20 * time.Millisecond
		cfg.PruneDepth = core.DefaultPruneDepth
		cfg.Replica = node.NewReplica(gateway.Options{Party: i})
		cl.kvs[i], cl.gws[i] = cfg.Replica.KV, cfg.Replica.Gateway
	})
	cl.startExcept(-1)
	return cl
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
