package metrics

import (
	"strings"
	"testing"

	"icc/internal/obs"
)

func TestTransportStatsCounts(t *testing.T) {
	s := NewTransportStats()
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

	snap := s.Detail()
	if snap.TotalQueueDropped != 3 || snap.QueueDropped[1] != 2 || snap.QueueDropped[2] != 1 {
		t.Fatalf("queue drops: %+v", snap.QueueDropped)
	}
	if snap.TotalRedials != 1 || snap.TotalWriteErrors != 1 {
		t.Fatalf("redials=%d write-errors=%d", snap.TotalRedials, snap.TotalWriteErrors)
	}
	if snap.MaxQueueDepth[1] != 5 {
		t.Fatalf("max queue depth %d, want 5", snap.MaxQueueDepth[1])
	}
	if snap.InboxOverflow != 1 || snap.SendErrors != 2 {
		t.Fatalf("overflow=%d send-errors=%d", snap.InboxOverflow, snap.SendErrors)
	}
	if snap.SocketWrites != 2 || snap.FramesWritten != 6 {
		t.Fatalf("socket-writes=%d frames-written=%d, want 2 and 6", snap.SocketWrites, snap.FramesWritten)
	}
	line := snap.String()
	for _, want := range []string{"queue-dropped=3", "redials=1", "write-errors=1", "max-queue=5", "inbox-overflow=1", "send-errors=2"} {
		if !strings.Contains(line, want) {
			t.Fatalf("health line %q missing %q", line, want)
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
	// All recording methods and the snapshot must be safe on nil.
	s.QueueDrop(0)
	s.Redial(0)
	s.WriteError(0)
	s.ObserveQueueDepth(0, 10)
	s.InboxOverflow()
	s.SendError()
	s.BurstWritten(3)
	if snap := s.Detail(); snap.TotalQueueDropped != 0 || snap.SendErrors != 0 {
		t.Fatalf("nil stats produced counts: %+v", snap)
	}
}
