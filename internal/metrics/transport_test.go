package metrics

import (
	"testing"

	"icc/internal/obs"
)

func TestTransportStatsCounts(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewTransportStatsOn(reg, nil)
	s.QueueDrop(1)
	s.QueueDrop(1)
	s.QueueDrop(2)
	s.Redial(1)
	s.WriteError(2)
	s.ObserveQueueDepth(1, 5)
	s.ObserveQueueDepth(1, 3) // lower than high-water: ignored
	s.InboxOverflow()
	s.SendError()
	s.SendError()
	s.BurstWritten(5)
	s.BurstWritten(1)

	snap := reg.Snapshot()
	for key, want := range map[string]float64{
		`icc_transport_queue_dropped_total{peer="1"}`: 2,
		`icc_transport_queue_dropped_total{peer="2"}`: 1,
		`icc_transport_redials_total{peer="1"}`:       1,
		`icc_transport_write_errors_total{peer="2"}`:  1,
		`icc_transport_max_queue_depth{peer="1"}`:     5,
		"icc_transport_inbox_overflow_total":          1,
		"icc_transport_send_errors_total":             2,
		"icc_transport_socket_writes_total":           2,
		"icc_transport_frames_written_total":          6,
	} {
		if got := snap.Get(key); got != want {
			t.Errorf("%s = %v, want %v", key, got, want)
		}
	}
}

func TestTransportStatsOnSharedRegistry(t *testing.T) {
	reg := obs.NewRegistry()
	tr := obs.NewTracer(8)
	s := NewTransportStatsOn(reg, tr)
	s.QueueDrop(3)
	s.WriteError(3)
	s.BurstWritten(4)

	regSnap := reg.Snapshot()
	if regSnap.Get(`icc_transport_queue_dropped_total{peer="3"}`) != 1 {
		t.Fatalf("registry missing transport counter: %s", regSnap)
	}
	if regSnap.Get("icc_transport_socket_writes_total") != 1 || regSnap.Get("icc_transport_frames_written_total") != 4 {
		t.Fatalf("registry missing socket-write counters: %s", regSnap)
	}
	events := tr.Events()
	if len(events) != 2 {
		t.Fatalf("expected 2 fault trace events, got %d", len(events))
	}
	for _, e := range events {
		if e.Kind != obs.KindTransportFault {
			t.Fatalf("unexpected event kind %q", e.Kind)
		}
	}
}

func TestTransportStatsNilIsNoOp(t *testing.T) {
	var s *TransportStats
	// All recording methods must be safe on nil.
	s.QueueDrop(0)
	s.Redial(0)
	s.WriteError(0)
	s.ObserveQueueDepth(0, 10)
	s.InboxOverflow()
	s.SendError()
	s.BurstWritten(3)
}
