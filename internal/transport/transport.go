// Package transport moves protocol messages between parties in real
// deployments (as opposed to the discrete-event simulator): an
// in-process channel transport for single-binary clusters, and a TCP
// transport with length-prefixed frames for multi-process clusters.
package transport

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"icc/internal/metrics"
	"icc/internal/types"
)

// Envelope is one received message with its claimed sender and the
// instant the transport had decoded it (zero when nobody stamped it).
type Envelope struct {
	From types.PartyID
	Msg  types.Message
	At   time.Time
}

// Endpoint is one party's attachment to a transport.
type Endpoint interface {
	// Send transmits a message to one party. Implementations serialise
	// with types.Marshal, so what arrives is always a decoded copy.
	Send(to types.PartyID, m types.Message) error
	// Inbox delivers received messages. Closed when the endpoint closes.
	Inbox() <-chan Envelope
	// Close releases resources.
	Close() error
}

// ErrClosed is returned when sending through a closed endpoint.
var ErrClosed = errors.New("transport: closed")

// inboxSize bounds per-endpoint buffering.
const inboxSize = 4096

// Inproc is an in-process transport hub connecting n endpoints through
// buffered channels. Messages are marshalled and unmarshalled so the
// wire format is exercised exactly as on TCP.
type Inproc struct {
	mu     sync.Mutex
	boxes  []chan Envelope
	closed bool
	stats  *metrics.TransportStats
}

// NewInproc creates a hub for n parties.
func NewInproc(n int) *Inproc {
	h := &Inproc{boxes: make([]chan Envelope, n)}
	for i := range h.boxes {
		h.boxes[i] = make(chan Envelope, inboxSize)
	}
	return h
}

// Endpoint returns party p's endpoint.
func (h *Inproc) Endpoint(p types.PartyID) Endpoint {
	return &inprocEndpoint{hub: h, self: p}
}

// SetStats attaches transport-health counters to the hub; inbox-overflow
// discards are recorded there. Call before traffic starts.
func (h *Inproc) SetStats(s *metrics.TransportStats) {
	h.mu.Lock()
	h.stats = s
	h.mu.Unlock()
}

// Close shuts the hub down.
func (h *Inproc) Close() {
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return
	}
	h.closed = true
	for _, b := range h.boxes {
		close(b)
	}
}

type inprocEndpoint struct {
	hub  *Inproc
	self types.PartyID
}

func (e *inprocEndpoint) Send(to types.PartyID, m types.Message) error {
	if int(to) < 0 || int(to) >= len(e.hub.boxes) {
		return fmt.Errorf("transport: party %d out of range", to)
	}
	raw := types.Marshal(m)
	decoded, err := types.Unmarshal(raw)
	if err != nil {
		return fmt.Errorf("transport: message does not round-trip: %w", err)
	}
	e.hub.mu.Lock()
	defer e.hub.mu.Unlock()
	if e.hub.closed {
		return ErrClosed
	}
	select {
	case e.hub.boxes[to] <- Envelope{From: e.self, Msg: decoded, At: time.Now()}:
		return nil
	default:
		// Inbox full: drop. The protocol tolerates message loss from the
		// liveness side (retransmission comes from protocol-level echo
		// and catch-up), and blocking here could deadlock two endpoints
		// sending to each other. The discard is counted, not silent.
		e.hub.stats.InboxOverflow()
		return nil
	}
}

func (e *inprocEndpoint) Inbox() <-chan Envelope { return e.hub.boxes[e.self] }

func (e *inprocEndpoint) Close() error { return nil }

var _ Endpoint = (*inprocEndpoint)(nil)
