package obs

import (
	"strings"
	"testing"
	"time"
)

func TestObserverLifecycleMetrics(t *testing.T) {
	o := NewObserver(ObserverConfig{Party: 3})

	o.BeaconRecovered(1, 40*time.Millisecond)
	o.EnterRound(1, 100*time.Millisecond)
	o.Propose(1, 10*time.Millisecond, 110*time.Millisecond)
	o.NotarizationShare(1, 0, 130*time.Millisecond)
	o.FinishRound(1, 150*time.Millisecond)
	o.FinalizationShare(1, 160*time.Millisecond)
	o.Commit(1, 64, 200*time.Millisecond)
	o.Resync(2, 300*time.Millisecond)
	o.PayloadOffer(2, 2, 5, "sent")
	o.PayloadOffer(1, 2, 3, "held")
	o.PayloadOffer(0, 2, 4, "held")
	o.MessageReceived(time.Time{})
	o.MessageReceived(time.Time{})
	o.TickFired(300 * time.Microsecond)
	o.AdmissionWake()

	snap := o.Registry.Snapshot()
	for key, want := range map[string]float64{
		"icc_rounds_entered_total":                      1,
		"icc_proposals_total":                           1,
		"icc_notarization_shares_total":                 1,
		"icc_finalization_shares_total":                 1,
		"icc_rounds_notarized_total":                    1,
		"icc_blocks_committed_total":                    1,
		"icc_committed_payload_bytes_total":             64,
		"icc_resyncs_total":                             1,
		`icc_core_payload_offers_total{outcome="sent"}`: 5,
		`icc_core_payload_offers_total{outcome="held"}`: 7,
		"icc_runtime_messages_received_total":           2,
		"icc_runtime_ticks_total":                       1,
		"icc_runtime_admission_wakes_total":             1,
		"icc_runtime_tick_late_seconds_count":           1,
		"icc_runtime_tick_late_seconds_sum":             0.0003,
		"icc_current_round":                             1,
		"icc_finalized_round":                           1,
		"icc_beacon_wait_seconds_count":                 1,
		"icc_round_duration_seconds_count":              1,
		"icc_commit_latency_seconds_count":              1,
		"icc_notarization_share_delay_seconds_count":    1,
		"icc_core_share_after_ntry_seconds_count":       1,
		"icc_finalization_share_delay_seconds_count":    1,
	} {
		if got := snap.Get(key); got != want {
			t.Fatalf("%s = %v, want %v", key, got, want)
		}
	}
	// Timings are measured from round entry.
	if got := snap.Get("icc_commit_latency_seconds_sum"); got != 0.1 {
		t.Fatalf("commit latency sum = %v, want 0.1", got)
	}
	if got := snap.Get("icc_round_duration_seconds_sum"); got != 0.05 {
		t.Fatalf("round duration sum = %v, want 0.05", got)
	}

	// Every phase left a trace event stamped with the party.
	events := o.Tracer.Events()
	kinds := map[string]int{}
	for _, e := range events {
		kinds[e.Kind]++
		if e.Party != 3 {
			t.Fatalf("event %+v not stamped with party 3", e)
		}
	}
	for _, k := range []string{KindRoundEntered, KindProposed, KindNotarShare,
		KindFinalShare, KindRoundNotarized, KindCommitted, KindResync} {
		if kinds[k] != 1 {
			t.Fatalf("trace kind %q count = %d, want 1 (all: %v)", k, kinds[k], kinds)
		}
	}
	if kinds[KindPayloadOffer] != 3 {
		t.Fatalf("%d payload-offer events traced, want 3", kinds[KindPayloadOffer])
	}
	for _, e := range events {
		if e.Kind == KindPayloadOffer && e.Round == 2 && e.Detail == "sent: peer 2, 5 commands" {
			return
		}
	}
	t.Fatalf("no trace event names the sent commands' peer, round and count: %+v", events)
}

func TestObserverSharedRegistryAggregates(t *testing.T) {
	reg := NewRegistry()
	a := NewObserver(ObserverConfig{Registry: reg, Party: 0})
	b := NewObserver(ObserverConfig{Registry: reg, Party: 1})
	a.EnterRound(1, 0)
	b.EnterRound(1, 0)
	if got := reg.Snapshot().Get("icc_rounds_entered_total"); got != 2 {
		t.Fatalf("shared counter = %v, want 2 (one per party)", got)
	}
}

func TestObserverNilIsNoOp(t *testing.T) {
	var o *Observer // every recording method is safe on nil
	o.BeaconRecovered(1, time.Millisecond)
	o.EnterRound(1, 0)
	o.Propose(1, 0, 0)
	o.BlockLag(time.Millisecond)
	o.NotarizationShare(1, 0, 0)
	o.FinalizationShare(1, 0)
	o.FinishRound(1, 0)
	o.Commit(1, 10, 0)
	o.Resync(1, 0)
	o.PayloadOffer(1, 1, 10, "sent")
	o.MessageReceived(time.Time{})
	o.TickFired(0)
	o.AdmissionWake()
}

func TestHealthTrackerStallDetection(t *testing.T) {
	h := NewHealthTracker()
	// No commits yet: age runs from creation — fresh tracker is healthy.
	if got := h.Health(time.Hour); got.Stalled {
		t.Fatalf("fresh tracker stalled: %+v", got)
	}
	// A microscopic stall window flags immediately.
	time.Sleep(2 * time.Millisecond)
	if got := h.Health(time.Nanosecond); !got.Stalled {
		t.Fatalf("expected stall with 1ns window: %+v", got)
	}
	h.Touch()
	got := h.Health(time.Hour)
	if got.Stalled || got.Commits != 1 {
		t.Fatalf("post-commit health: %+v", got)
	}
	if got.StallAfterSeconds != 3600 {
		t.Fatalf("stall window = %v, want 3600", got.StallAfterSeconds)
	}
	// Zero window disables stall detection entirely.
	if got := h.Health(0); got.Stalled {
		t.Fatalf("zero window flagged a stall: %+v", got)
	}
	var nilH *HealthTracker
	nilH.Touch()
	if got := nilH.Health(time.Nanosecond); got.Stalled {
		t.Fatalf("nil tracker stalled: %+v", got)
	}
}

// TestShareAfterNtryCountsGatedSharesAtZero: a share the Δntry timer gated
// lands in the le="0" bucket, one cast on a late block above it.
func TestShareAfterNtryCountsGatedSharesAtZero(t *testing.T) {
	o := NewObserver(ObserverConfig{})
	o.NotarizationShare(1, 0, 0)
	o.NotarizationShare(2, 0, 0)
	o.NotarizationShare(3, 12*time.Millisecond, 0)
	var b strings.Builder
	if err := o.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`icc_core_share_after_ntry_seconds_bucket{le="0"} 2`,
		`icc_core_share_after_ntry_seconds_bucket{le="0.01"} 2`,
		`icc_core_share_after_ntry_seconds_bucket{le="0.025"} 3`,
		`icc_core_share_after_ntry_seconds_count 3`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition lacks %q", want)
		}
	}
}

// TestCutAndLagHistograms: icc_core_cut_seconds takes each proposal's
// offset from round entry, icc_core_block_lag_seconds each lag sample,
// a block that was there on entry in the le="0" bucket.
func TestCutAndLagHistograms(t *testing.T) {
	o := NewObserver(ObserverConfig{})
	o.Propose(1, 0, 0)
	o.Propose(2, 48*time.Millisecond, 0)
	o.Propose(3, 37500*time.Microsecond, 0)
	o.BlockLag(0)
	o.BlockLag(800 * time.Microsecond)
	o.BlockLag(4 * time.Millisecond)
	var b strings.Builder
	if err := o.Registry.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`icc_core_cut_seconds_bucket{le="0"} 1`,
		`icc_core_cut_seconds_bucket{le="0.04"} 2`,
		`icc_core_cut_seconds_bucket{le="0.0475"} 2`,
		`icc_core_cut_seconds_bucket{le="0.05"} 3`,
		`icc_core_cut_seconds_count 3`,
		`icc_core_block_lag_seconds_bucket{le="0"} 1`,
		`icc_core_block_lag_seconds_bucket{le="0.0005"} 1`,
		`icc_core_block_lag_seconds_bucket{le="0.001"} 2`,
		`icc_core_block_lag_seconds_bucket{le="0.003"} 2`,
		`icc_core_block_lag_seconds_bucket{le="0.005"} 3`,
		`icc_core_block_lag_seconds_count 3`,
	} {
		if !strings.Contains(b.String(), want+"\n") {
			t.Errorf("exposition lacks %q", want)
		}
	}
}
