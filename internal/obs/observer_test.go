package obs

import (
	"testing"
	"time"
)

func TestObserverLifecycleMetrics(t *testing.T) {
	o := NewObserver(ObserverConfig{Party: 3})

	o.BeaconRecovered(1, 40*time.Millisecond)
	o.EnterRound(1, 100*time.Millisecond)
	o.Propose(1, 110*time.Millisecond)
	o.NotarizationShare(1, 130*time.Millisecond)
	o.FinishRound(1, 150*time.Millisecond)
	o.FinalizationShare(1, 160*time.Millisecond)
	o.Commit(1, 64, 200*time.Millisecond)
	o.Resync(2, 300*time.Millisecond)
	o.PayloadOffer(2, 2, 120, "sent")
	o.PayloadOffer(1, 2, 80, "late")
	o.PayloadOffer(0, 2, 90, "late")
	o.MessageReceived()
	o.MessageReceived()
	o.TickFired()

	snap := o.Snapshot()
	for key, want := range map[string]float64{
		"icc_rounds_entered_total":                      1,
		"icc_proposals_total":                           1,
		"icc_notarization_shares_total":                 1,
		"icc_finalization_shares_total":                 1,
		"icc_rounds_notarized_total":                    1,
		"icc_blocks_committed_total":                    1,
		"icc_committed_payload_bytes_total":             64,
		"icc_resyncs_total":                             1,
		`icc_core_payload_offers_total{outcome="sent"}`: 1,
		`icc_core_payload_offers_total{outcome="late"}`: 2,
		"icc_runtime_messages_received_total":           2,
		"icc_runtime_ticks_total":                       1,
		"icc_current_round":                             1,
		"icc_finalized_round":                           1,
		"icc_beacon_wait_seconds_count":                 1,
		"icc_round_duration_seconds_count":              1,
		"icc_commit_latency_seconds_count":              1,
		"icc_notarization_share_delay_seconds_count":    1,
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
		if e.Kind == KindPayloadOffer && e.Round == 2 && e.Detail == "sent: peer 2, 120 command bytes" {
			return
		}
	}
	t.Fatalf("no trace event names the sent offer's peer, round and size: %+v", events)
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
	var o *Observer
	o.BeaconRecovered(1, time.Millisecond)
	o.EnterRound(1, 0)
	o.Propose(1, 0)
	o.NotarizationShare(1, 0)
	o.FinalizationShare(1, 0)
	o.FinishRound(1, 0)
	o.Commit(1, 10, 0)
	o.Resync(1, 0)
	o.PayloadOffer(1, 1, 10, "sent")
	o.MessageReceived()
	o.TickFired()
	if len(o.Snapshot()) != 0 {
		t.Fatal("nil observer produced a snapshot")
	}
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
