package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"sync"
	"time"
)

// Event kinds recorded by the protocol tracer.
const (
	KindRoundEntered   = "round_entered"
	KindProposed       = "proposed"
	KindNotarShare     = "notarization_share"
	KindFinalShare     = "finalization_share"
	KindRoundNotarized = "round_notarized"
	KindCommitted      = "committed"
	KindResync         = "resync"
	KindBackfill       = "backfill"
	KindTransportFault = "transport_fault"
	KindCheckpoint     = "checkpoint"
	KindResyncLost     = "resync_lost"
	KindRankDisq       = "rank_disqualified"
	KindPayloadOffer   = "payload_offer"
	// KindSimDeliver and KindSimTick are the simulator's scheduler-level
	// events (one per engine-visible message delivery / timer tick): the
	// deterministic execution record campaign replay compares against.
	KindSimDeliver = "sim_deliver"
	KindSimTick    = "sim_tick"
)

// Event is one traced protocol occurrence.
type Event struct {
	// Wall is the wall-clock time the event was recorded. Deterministic
	// tracers (campaign replay) leave it zero — virtual time is the
	// authoritative clock there.
	Wall time.Time `json:"wall"`
	// VT is the virtual (protocol) time of the event, when the recording
	// layer runs on simulated time.
	VT time.Duration `json:"vt,omitempty"`
	// Party is the recording party (-1 when unknown/not applicable).
	Party int `json:"party"`
	// Kind is one of the Kind* constants.
	Kind string `json:"kind"`
	// Round is the protocol round, when the event has one.
	Round uint64 `json:"round,omitempty"`
	// Detail carries kind-specific context (fault class, peer, timing).
	Detail string `json:"detail,omitempty"`
}

// Header is the first line of a JSONL trace dump: the event accounting
// that tells a consumer whether the retained window is the whole story.
// Dropped > 0 means the ring overwrote events — the trace is truncated
// and NOT replayable (campaign replay refuses it loudly).
type Header struct {
	TraceHeader bool              `json:"trace_header"`
	Total       uint64            `json:"total"`
	Retained    int               `json:"retained"`
	Dropped     uint64            `json:"dropped"`
	Cap         int               `json:"cap"`
	Meta        map[string]string `json:"meta,omitempty"`
}

// Tracer is a bounded ring buffer of protocol events. When full, the
// oldest events are overwritten — recent history is what debugging a
// live stall needs, and the bound keeps a long-running node's memory
// flat. A nil *Tracer is a valid no-op sink. Safe for concurrent use.
type Tracer struct {
	mu      sync.Mutex
	buf     []Event
	next    int    // write cursor
	wrap    bool   // buffer has wrapped at least once
	total   uint64 // events ever recorded, including overwritten ones
	noStamp bool   // deterministic mode: leave Wall zero
}

// DefaultTraceCap is the ring capacity used when callers pass 0.
const DefaultTraceCap = 4096

// NewTracer creates a tracer holding up to capacity events (0 selects
// DefaultTraceCap).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultTraceCap
	}
	return &Tracer{buf: make([]Event, 0, capacity)}
}

// DisableWallStamp switches the tracer to deterministic mode: Record no
// longer stamps Wall on events that lack one, so two identical runs
// produce byte-identical traces (campaign replay depends on this; the
// virtual-time field VT carries the authoritative clock instead).
func (t *Tracer) DisableWallStamp() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.noStamp = true
	t.mu.Unlock()
}

// Record appends one event, stamping Wall if unset (unless the tracer
// is in deterministic mode). Safe on nil.
func (t *Tracer) Record(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if e.Wall.IsZero() && !t.noStamp {
		e.Wall = time.Now()
	}
	if len(t.buf) < cap(t.buf) {
		t.buf = append(t.buf, e)
	} else {
		t.buf[t.next] = e
		t.wrap = true
	}
	t.next = (t.next + 1) % cap(t.buf)
	t.total++
	t.mu.Unlock()
}

// Events returns a copy of the retained events, oldest first.
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, 0, len(t.buf))
	if t.wrap {
		out = append(out, t.buf[t.next:]...)
		out = append(out, t.buf[:t.next]...)
	} else {
		out = append(out, t.buf...)
	}
	return out
}

// Total returns how many events were ever recorded (including those the
// ring has since overwritten).
func (t *Tracer) Total() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total
}

// Dropped returns how many recorded events the ring has overwritten —
// the gap between Total and what Events still returns. A non-zero value
// means a JSONL dump is truncated history.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.total - uint64(len(t.buf))
}

// header assembles the accounting line under the tracer's lock.
func (t *Tracer) header(meta map[string]string) Header {
	if t == nil {
		return Header{TraceHeader: true, Meta: meta}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return Header{
		TraceHeader: true,
		Total:       t.total,
		Retained:    len(t.buf),
		Dropped:     t.total - uint64(len(t.buf)),
		Cap:         cap(t.buf),
		Meta:        meta,
	}
}

// WriteJSONL dumps the trace as JSON lines: one Header line first (so
// consumers can detect ring truncation — dropped events used to vanish
// silently, breaking replay fidelity), then the retained events oldest
// first.
func (t *Tracer) WriteJSONL(w io.Writer) error {
	return t.WriteJSONLMeta(w, nil)
}

// WriteJSONLMeta is WriteJSONL with caller metadata embedded in the
// header line — the campaign driver stores the run configuration there
// so a trace file is a self-contained replay artifact.
func (t *Tracer) WriteJSONLMeta(w io.Writer, meta map[string]string) error {
	if t == nil {
		return nil
	}
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(t.header(meta)); err != nil {
		return err
	}
	for _, e := range t.Events() {
		if err := enc.Encode(e); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// ReadJSONL parses a dump produced by WriteJSONL: the header line, then
// every retained event. It fails if the first line is not a trace
// header — a dump without accounting cannot be trusted as complete.
func ReadJSONL(r io.Reader) (Header, []Event, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	if !sc.Scan() {
		return Header{}, nil, fmt.Errorf("obs: empty trace: %w", sc.Err())
	}
	var h Header
	if err := json.Unmarshal(sc.Bytes(), &h); err != nil || !h.TraceHeader {
		return Header{}, nil, fmt.Errorf("obs: trace does not start with a header line")
	}
	var events []Event
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var e Event
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return h, events, fmt.Errorf("obs: trace line %d: %w", len(events)+2, err)
		}
		events = append(events, e)
	}
	if err := sc.Err(); err != nil {
		return h, events, err
	}
	return h, events, nil
}
