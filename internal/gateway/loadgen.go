package gateway

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"icc/internal/statemachine"
)

// LoadOptions configures an open-loop load run: submissions arrive at
// a fixed rate regardless of how fast the cluster acknowledges them
// (closed-loop generators hide latency collapse by self-throttling —
// an open loop exposes it).
type LoadOptions struct {
	// Rate is submissions per second across all clients (required).
	Rate int
	// Duration bounds the submission window (required).
	Duration time.Duration
	// Clients is the number of distinct client identities issuing
	// commands, round-robin across the gateways (default 8).
	Clients int
	// ClientBase offsets the client IDs so consecutive runs against one
	// cluster never collide (default 1).
	ClientBase uint64
	// Keys is the key-space size (default 1024).
	Keys int
	// Skew is the Zipf s parameter shaping key popularity: 0 = uniform,
	// values > 1 concentrate traffic on few hot keys (1.2 is a typical
	// web-cache skew). Values in (0, 1] are outside rand.NewZipf's
	// domain (it requires s > 1) and are rejected with ErrInvalidSkew —
	// they used to fall back to uniform silently, reporting hot-key
	// latency numbers that were actually uniform-load numbers.
	Skew float64
	// ValueBytes sizes each written value (default 64).
	ValueBytes int
	// Seed makes the key sequence reproducible. It is used verbatim — 0
	// is a valid seed, not a request for a default (it used to be
	// silently remapped to 1, so "seed 0" runs were unknowingly "seed 1"
	// runs).
	Seed int64
	// OnAck, if set, sees every acknowledged command, from the goroutine
	// that waited for it: the index of the gateway that took it, when its
	// Submit returned, the ack, and when the waiter woke. A caller that
	// logs proposals and commits can split the latency into stages.
	OnAck func(gw int, admitted time.Time, ack Ack, acked time.Time)
}

// LoadReport summarises one load run.
type LoadReport struct {
	Submitted uint64 // commands admitted
	Acked     uint64 // commands acknowledged at finality
	Rejected  uint64 // admission rejections (backlog full)
	Timedout  uint64 // admitted but unacknowledged within the drain budget

	// P50/P90/P99 are submit-to-finalize latency percentiles over every
	// acknowledged command.
	P50, P90, P99 time.Duration
	// MaxBacklog is the deepest pending backlog observed at submit time.
	MaxBacklog int
}

// RunLoad drives an open-loop load against a set of gateways (one per
// replica): each tick submits one command from the next client to its
// replica and a collector goroutine waits for the finality receipt.
// After the submission window it drains outstanding receipts until ctx
// expires or drain (default 30 s) elapses.
func RunLoad(ctx context.Context, gws []*Gateway, o LoadOptions) (*LoadReport, error) {
	if o.Rate <= 0 || o.Duration <= 0 {
		return nil, fmt.Errorf("gateway: load needs positive Rate and Duration")
	}
	if len(gws) == 0 {
		return nil, fmt.Errorf("gateway: load needs at least one gateway")
	}
	if o.Clients <= 0 {
		o.Clients = 8
	}
	if o.Keys <= 0 {
		o.Keys = 1024
	}
	if o.ValueBytes <= 0 {
		o.ValueBytes = 64
	}
	if o.ClientBase == 0 {
		o.ClientBase = 1
	}
	if o.Skew != 0 && o.Skew <= 1 {
		return nil, fmt.Errorf("%w: %v (rand.NewZipf requires s > 1; use 0 for uniform)", ErrInvalidSkew, o.Skew)
	}
	rng := rand.New(rand.NewSource(o.Seed))
	nextKey := func() int { return rng.Intn(o.Keys) }
	if o.Skew > 1 {
		z := rand.NewZipf(rng, o.Skew, 1, uint64(o.Keys-1))
		nextKey = func() int { return int(z.Uint64()) }
	}
	value := make([]byte, o.ValueBytes)
	rng.Read(value)

	var (
		report    LoadReport
		mu        sync.Mutex
		latencies []time.Duration
		wg        sync.WaitGroup
		rejected  atomic.Uint64
		timedout  atomic.Uint64
	)
	seqs := make([]uint64, o.Clients)
	interval := time.Second / time.Duration(o.Rate)
	if interval <= 0 {
		interval = time.Nanosecond
	}
	drainCtx, cancel := context.WithTimeout(ctx, o.Duration+DefaultWaitTimeout)
	defer cancel()

	// Catch-up pacing: every wakeup submits however many arrivals are
	// due by now, so scheduler jitter under consensus CPU load delays
	// individual submissions but never deflates the offered rate — the
	// defining property of an open loop.
	start := time.Now()
	total := int(float64(o.Rate) * o.Duration.Seconds())
	for i := 0; i < total; i++ {
		due := start.Add(time.Duration(i) * interval)
		if wait := time.Until(due); wait > 0 {
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(wait):
			}
		}
		client := i % o.Clients
		seqs[client]++
		home := client % len(gws)
		gw := gws[home]
		cmd := statemachine.Command{
			Client: o.ClientBase + uint64(client),
			Seq:    seqs[client],
			Op:     statemachine.OpSet,
			Key:    fmt.Sprintf("load/key%d", nextKey()),
			Value:  value,
		}
		if b := gw.Backlog(); b > report.MaxBacklog {
			report.MaxBacklog = b
		}
		receipt, err := gw.Submit(ctx, cmd)
		if err != nil {
			if errors.Is(err, ErrBacklogFull) {
				// Open loop: the tick is lost, not retried — backpressure
				// shows up as a rejection count, never as queueing.
				rejected.Add(1)
				continue
			}
			return nil, err
		}
		report.Submitted++
		wg.Add(1)
		go func(r *Receipt, start time.Time) {
			defer wg.Done()
			ack, err := r.Wait(drainCtx)
			if err != nil {
				timedout.Add(1)
				return
			}
			acked := time.Now()
			mu.Lock()
			latencies = append(latencies, acked.Sub(start))
			mu.Unlock()
			if o.OnAck != nil {
				o.OnAck(home, start, ack, acked)
			}
		}(receipt, time.Now())
	}
	wg.Wait()
	report.Rejected = rejected.Load()
	report.Timedout = timedout.Load()
	report.Acked = uint64(len(latencies))
	report.P50 = percentile(latencies, 0.50)
	report.P90 = percentile(latencies, 0.90)
	report.P99 = percentile(latencies, 0.99)
	return &report, nil
}

// percentile returns the p-quantile of the latency sample (0 for an
// empty sample).
func percentile(durs []time.Duration, p float64) time.Duration {
	if len(durs) == 0 {
		return 0
	}
	sorted := append([]time.Duration(nil), durs...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	idx := int(p * float64(len(sorted)-1))
	return sorted[idx]
}
