package icc

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"icc/internal/obs"
)

func TestOptionValidation(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"unknown mode", []Option{WithMode(Mode(42))}},
		{"negative delta bound", []Option{WithDeltaBound(-time.Second)}},
		{"negative epsilon", []Option{WithEpsilon(-time.Second)}},
		{"behavior party too high", []Option{WithBehavior(4, SilentLeader)}},
		{"behavior party negative", []Option{WithBehavior(-1, SilentLeader)}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := NewLocalCluster(4, tc.opts...); err == nil {
				t.Fatalf("%s accepted", tc.name)
			}
		})
	}
}

func TestStartStopIdempotentEitherOrder(t *testing.T) {
	// Stop before Start: the cluster refuses to start, and every further
	// call stays a no-op.
	c, err := NewLocalCluster(2)
	if err != nil {
		t.Fatal(err)
	}
	c.Stop()
	c.Start() // must not launch anything after Stop
	c.Stop()  // second Stop is a no-op
	if got := c.CommittedBlocks(0); got != 0 {
		t.Fatalf("stopped-before-start cluster committed %d blocks", got)
	}

	// Start twice, Stop twice: no panics, no double-close.
	c2, err := NewLocalCluster(2, WithDeltaBound(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	c2.Start()
	c2.Start()
	c2.Stop()
	c2.Stop()
}

func TestWaitForCommitsCtx(t *testing.T) {
	c, err := NewLocalCluster(4, WithDeltaBound(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := c.WaitForCommitsCtx(ctx, 2); err != nil {
		t.Fatalf("cluster made no progress: %v", err)
	}
	if got := c.CommittedBlocks(0); got < 2 {
		t.Fatalf("party 0 committed %d blocks, want >= 2", got)
	}

	// An already-cancelled context returns promptly with its error.
	cancelled, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if err := c.WaitForCommitsCtx(cancelled, 1_000_000); err != context.Canceled {
		t.Fatalf("cancelled wait returned %v, want context.Canceled", err)
	}
}

func TestClusterMetricsAndTrace(t *testing.T) {
	c, err := NewLocalCluster(4, WithDeltaBound(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	if !c.WaitForCommits(2, 60*time.Second) {
		t.Fatal("cluster made no progress")
	}

	snap := c.Metrics()
	if snap.Get("icc_blocks_committed_total") < 8 { // ≥2 blocks × 4 parties
		t.Fatalf("commit counter too low: %v (full: %s)", snap.Get("icc_blocks_committed_total"), snap)
	}
	if snap.Get("icc_rounds_entered_total") == 0 || snap.Get("icc_runtime_messages_received_total") == 0 {
		t.Fatalf("round/runtime metrics missing: %s", snap)
	}
	if snap.Get("icc_commit_latency_seconds_count") == 0 {
		t.Fatalf("commit latency histogram empty: %s", snap)
	}

	events := c.Trace()
	if len(events) == 0 {
		t.Fatal("trace ring empty after commits")
	}
	kinds := map[string]bool{}
	for _, e := range events {
		kinds[e.Kind] = true
	}
	for _, k := range []string{obs.KindRoundEntered, obs.KindCommitted} {
		if !kinds[k] {
			t.Fatalf("trace missing %q events (kinds: %v)", k, kinds)
		}
	}
}

// TestLiveClusterScrape is the end-to-end acceptance check: a running
// 4-party cluster serves Prometheus /metrics and a healthy /healthz over
// real HTTP.
func TestLiveClusterScrape(t *testing.T) {
	c, err := NewLocalCluster(4,
		WithDeltaBound(20*time.Millisecond),
		WithMetricsAddr("127.0.0.1:0"))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()

	addr := c.MetricsAddr()
	if addr == "" {
		t.Fatal("MetricsAddr empty after Start with WithMetricsAddr")
	}
	if !c.WaitForCommits(2, 60*time.Second) {
		t.Fatal("cluster made no progress")
	}
	client := &http.Client{Timeout: 5 * time.Second}

	res, err := client.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d", res.StatusCode)
	}
	text := string(body)
	for _, want := range []string{
		"# TYPE icc_blocks_committed_total counter",
		"# TYPE icc_commit_latency_seconds histogram",
		"icc_commit_latency_seconds_bucket{le=\"+Inf\"}",
		"# TYPE icc_round_duration_seconds histogram",
		"# TYPE icc_transport_send_errors_total counter",
		"# TYPE icc_transport_inbox_overflow_total counter",
		"icc_rounds_entered_total",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, text)
		}
	}

	res, err = client.Get("http://" + addr + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h obs.Health
	err = json.NewDecoder(res.Body).Decode(&h)
	res.Body.Close()
	if err != nil {
		t.Fatalf("/healthz not JSON: %v", err)
	}
	if res.StatusCode != http.StatusOK || h.Stalled {
		t.Fatalf("/healthz unhealthy: status %d payload %+v", res.StatusCode, h)
	}
	if h.Commits == 0 {
		t.Fatalf("/healthz reports zero commits after progress: %+v", h)
	}

	res, err = client.Get("http://" + addr + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	traceBody, _ := io.ReadAll(res.Body)
	res.Body.Close()
	if res.StatusCode != http.StatusOK || len(traceBody) == 0 {
		t.Fatalf("/trace status %d, %d bytes", res.StatusCode, len(traceBody))
	}
	var first TraceEvent
	if err := json.Unmarshal([]byte(strings.SplitN(string(traceBody), "\n", 2)[0]), &first); err != nil {
		t.Fatalf("/trace first line not JSON: %v", err)
	}

	// After Stop the server is down and MetricsAddr reports "".
	c.Stop()
	if got := c.MetricsAddr(); got != "" {
		t.Fatalf("MetricsAddr after Stop = %q, want \"\"", got)
	}
	if _, err := client.Get("http://" + addr + "/metrics"); err == nil {
		t.Fatal("metrics server still reachable after Stop")
	}
}

// TestMetricsAddrInUseFailsConstruction: an address something else holds
// fails NewLocalCluster, naming the address, instead of a cluster that
// runs without /metrics and reports no MetricsAddr.
func TestMetricsAddrInUseFailsConstruction(t *testing.T) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lis.Close()
	addr := lis.Addr().String()
	c, err := NewLocalCluster(4, WithMetricsAddr(addr))
	if err == nil {
		c.Stop()
		t.Fatalf("cluster built on metrics address %s, which is in use", addr)
	}
	if !strings.Contains(err.Error(), addr) {
		t.Fatalf("error does not name the address %s: %v", addr, err)
	}
}

// TestGossipDecisionsOnMetrics: the ICC1 overlay counts, per artifact kind,
// what it did for each neighbour — pushed, advertised, held back for the
// neighbour to speak first, or withheld and by which rule — and how many
// shares each bundle carried, so the share of certificates the
// per-neighbour table saves is a number on /metrics. (The fetch counters need an artifact above the
// eager threshold: internal/gossip's tests read them.)
func TestGossipDecisionsOnMetrics(t *testing.T) {
	c, err := NewLocalCluster(13, WithMode(ICC1), WithDeltaBound(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	if !c.WaitForCommits(10, 120*time.Second) {
		t.Fatal("cluster made no progress")
	}
	snap := c.Metrics()
	frames := func(kind, decision string) float64 {
		return snap.Get(fmt.Sprintf("icc_gossip_frames_total{kind=%q,decision=%q}", kind, decision))
	}
	for _, want := range [][2]string{
		{"block", "pushed"}, {"authenticator", "pushed"},
		{"notarization-share", "pushed"}, {"finalization-share", "pushed"},
		{"notarization", "peer_quorum"}, {"finalization", "peer_quorum"},
	} {
		if frames(want[0], want[1]) == 0 {
			t.Errorf("icc_gossip_frames_total{kind=%q,decision=%q} is zero (gossip metrics: %v)", want[0], want[1], gossipMetrics(snap))
		}
	}
	if frames("notarization", "advertised")+frames("finalization", "advertised") != 0 {
		t.Error("a certificate was advertised")
	}
	// One speaker per edge: the other end holds its copy back, and most of
	// what it held back it never has to send.
	for _, kind := range []string{"notarization-share", "finalization-share", "beacon-share"} {
		if frames(kind, "listened") == 0 {
			t.Errorf("icc_gossip_frames_total{kind=%q,decision=\"listened\"} is zero (gossip metrics: %v)", kind, gossipMetrics(snap))
		}
	}
	bundles, bundled := snap.Get("icc_gossip_bundle_shares_count"), snap.Get("icc_gossip_bundle_shares_sum")
	if bundles == 0 || bundled < 2*bundles {
		t.Errorf("icc_gossip_bundle_shares: %.0f shares in %.0f bundles, want at least two a bundle", bundled, bundles)
	}
	// Every share received is counted at the wrapper, the first copy of
	// each as new.
	for _, kind := range []string{"notarization-share", "finalization-share"} {
		if snap.Get(fmt.Sprintf("icc_gossip_received_total{kind=%q,outcome=\"new\"}", kind)) == 0 {
			t.Errorf("icc_gossip_received_total{kind=%q,outcome=\"new\"} is zero (gossip metrics: %v)", kind, gossipMetrics(snap))
		}
	}
	saved := frames("notarization", "peer_quorum") + frames("finalization", "peer_quorum")
	sent := frames("notarization", "pushed") + frames("finalization", "pushed")
	t.Logf("certificates: %.0f withheld by the quorum rule, %.0f pushed (%.1f %% withheld)", saved, sent, 100*saved/(saved+sent))
}

func gossipMetrics(snap MetricsSnapshot) []string {
	var out []string
	for _, k := range snap.Keys() {
		if strings.HasPrefix(k, "icc_gossip_") {
			out = append(out, fmt.Sprintf("%s=%v", k, snap[k]))
		}
	}
	return out
}
