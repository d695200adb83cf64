package metrics

import (
	"fmt"
	"strconv"

	"icc/internal/obs"
	"icc/internal/types"
)

// TransportStats tracks transport-layer health: per-peer send-queue
// evictions, redial attempts, write failures and high-water queue
// depths, plus endpoint-wide inbox-overflow discards, runner-observed
// send errors, and socket writes against the frames they carried. The
// counters live on an obs.Registry (a private one by
// default, or a shared node-wide registry via NewTransportStatsOn, in
// which case they appear in the node's Prometheus exposition as the
// icc_transport_* families). Faults are additionally traced onto an
// optional obs.Tracer. A nil *TransportStats is a valid no-op sink, so
// transport and runtime code records unconditionally.
type TransportStats struct {
	queueDropped  *obs.CounterVec
	redials       *obs.CounterVec
	writeErrors   *obs.CounterVec
	maxQueueDepth *obs.GaugeVec
	inboxOverflow *obs.Counter
	sendErrors    *obs.Counter
	socketWrites  *obs.Counter
	framesWritten *obs.Counter
	tracer        *obs.Tracer
}

// NewTransportStats creates a counter set on a private registry.
func NewTransportStats() *TransportStats {
	return NewTransportStatsOn(obs.NewRegistry(), nil)
}

// NewTransportStatsOn registers the transport families on a shared
// registry and (optionally) traces faults onto tr. Registration is
// idempotent, so several endpoints may share one registry and aggregate.
func NewTransportStatsOn(reg *obs.Registry, tr *obs.Tracer) *TransportStats {
	return &TransportStats{
		queueDropped:  reg.CounterVec("icc_transport_queue_dropped_total", "Frames evicted from a peer's send queue on overflow.", "peer"),
		redials:       reg.CounterVec("icc_transport_redials_total", "Dial attempts per peer (the first dial counts too).", "peer"),
		writeErrors:   reg.CounterVec("icc_transport_write_errors_total", "Failed burst writes per peer; the burst is retried whole on a fresh connection.", "peer"),
		maxQueueDepth: reg.GaugeVec("icc_transport_max_queue_depth", "High-water send-queue depth per peer.", "peer"),
		inboxOverflow: reg.Counter("icc_transport_inbox_overflow_total", "Received messages discarded because the inbox was full."),
		sendErrors:    reg.Counter("icc_transport_send_errors_total", "Transport send failures observed by the runner."),
		socketWrites:  reg.Counter("icc_transport_socket_writes_total", "Successful socket writes, one per burst of frames (handshakes not counted)."),
		framesWritten: reg.Counter("icc_transport_frames_written_total", "Frames carried by those writes; over icc_transport_socket_writes_total, frames per syscall."),
		tracer:        tr,
	}
}

func peerLabel(p types.PartyID) string { return strconv.Itoa(int(p)) }

// fault traces one transport fault event.
func (s *TransportStats) fault(detail string) {
	s.tracer.Record(obs.Event{Party: -1, Kind: obs.KindTransportFault, Detail: detail})
}

// QueueDrop records a frame evicted from peer p's send queue (overflow
// under the drop-oldest policy).
func (s *TransportStats) QueueDrop(p types.PartyID) {
	if s == nil {
		return
	}
	s.queueDropped.With(peerLabel(p)).Inc()
	s.fault("queue_drop peer=" + peerLabel(p))
}

// Redial records a dial attempt to peer p (the first dial counts too).
func (s *TransportStats) Redial(p types.PartyID) {
	if s == nil {
		return
	}
	s.redials.With(peerLabel(p)).Inc()
}

// WriteError records a failed burst write to peer p.
func (s *TransportStats) WriteError(p types.PartyID) {
	if s == nil {
		return
	}
	s.writeErrors.With(peerLabel(p)).Inc()
	s.fault("write_error peer=" + peerLabel(p))
}

// BurstWritten records one successful socket write carrying frames
// frames.
func (s *TransportStats) BurstWritten(frames int) {
	if s == nil {
		return
	}
	s.socketWrites.Inc()
	s.framesWritten.Add(int64(frames))
}

// ObserveQueueDepth records the current depth of peer p's send queue;
// the per-peer high-water mark is retained.
func (s *TransportStats) ObserveQueueDepth(p types.PartyID, depth int) {
	if s == nil {
		return
	}
	s.maxQueueDepth.With(peerLabel(p)).SetMax(float64(depth))
}

// InboxOverflow records a received message discarded because the
// endpoint's inbox was full.
func (s *TransportStats) InboxOverflow() {
	if s == nil {
		return
	}
	s.inboxOverflow.Inc()
	s.fault("inbox_overflow")
}

// SendError records a transport send failure observed by the runner.
func (s *TransportStats) SendError() {
	if s == nil {
		return
	}
	s.sendErrors.Inc()
	s.fault("send_error")
}

// TransportSnapshot is a structured point-in-time copy of the counters.
type TransportSnapshot struct {
	QueueDropped  map[types.PartyID]int64
	Redials       map[types.PartyID]int64
	WriteErrors   map[types.PartyID]int64
	MaxQueueDepth map[types.PartyID]int64

	TotalQueueDropped int64
	TotalRedials      int64
	TotalWriteErrors  int64
	InboxOverflow     int64
	SendErrors        int64
	SocketWrites      int64
	FramesWritten     int64
}

// Detail copies the counters into the structured per-peer form. Safe on
// a nil receiver (empty snapshot).
func (s *TransportStats) Detail() TransportSnapshot {
	snap := TransportSnapshot{
		QueueDropped:  map[types.PartyID]int64{},
		Redials:       map[types.PartyID]int64{},
		WriteErrors:   map[types.PartyID]int64{},
		MaxQueueDepth: map[types.PartyID]int64{},
	}
	if s == nil {
		return snap
	}
	peerID := func(label string) types.PartyID {
		n, _ := strconv.Atoi(label)
		return types.PartyID(n)
	}
	s.queueDropped.Each(func(lvs []string, v int64) {
		snap.QueueDropped[peerID(lvs[0])] = v
		snap.TotalQueueDropped += v
	})
	s.redials.Each(func(lvs []string, v int64) {
		snap.Redials[peerID(lvs[0])] = v
		snap.TotalRedials += v
	})
	s.writeErrors.Each(func(lvs []string, v int64) {
		snap.WriteErrors[peerID(lvs[0])] = v
		snap.TotalWriteErrors += v
	})
	s.maxQueueDepth.Each(func(lvs []string, v float64) {
		snap.MaxQueueDepth[peerID(lvs[0])] = int64(v)
	})
	snap.InboxOverflow = s.inboxOverflow.Value()
	snap.SendErrors = s.sendErrors.Value()
	snap.SocketWrites = s.socketWrites.Value()
	snap.FramesWritten = s.framesWritten.Value()
	return snap
}

// String renders the snapshot as one health line.
func (snap TransportSnapshot) String() string {
	var maxDepth int64
	for _, d := range snap.MaxQueueDepth {
		if d > maxDepth {
			maxDepth = d
		}
	}
	return fmt.Sprintf("queue-dropped=%d redials=%d write-errors=%d max-queue=%d inbox-overflow=%d send-errors=%d",
		snap.TotalQueueDropped, snap.TotalRedials, snap.TotalWriteErrors,
		maxDepth, snap.InboxOverflow, snap.SendErrors)
}
