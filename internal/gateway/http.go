package gateway

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"strconv"
	"time"

	"icc/internal/statemachine"
	"icc/internal/types"
)

// HTTP status mapping for the client API:
//
//	POST /v1/submit  202 accepted (wait=false) / 200 committed (wait=true)
//	                 400 malformed, 409 duplicate, 413 too large,
//	                 429 backlog full, 503 not running, 504 wait timed out
//	GET  /v1/read    200 (found true/false), 504 token not reached in time
//	GET  /v1/wait    200 committed, 404 unknown identity, 504 timed out
//
// Backpressure is visible to clients as 429 + Retry-After — nothing
// queues behind the bound, nothing blocks the replica.

// DefaultWaitTimeout bounds how long /v1/submit?wait=true, /v1/read,
// and /v1/wait block before returning 504.
const DefaultWaitTimeout = 30 * time.Second

// SubmitRequest is the /v1/submit body.
type SubmitRequest struct {
	Client uint64 `json:"client"`
	Seq    uint64 `json:"seq"`
	Op     string `json:"op"` // "set", "delete", "append"
	Key    string `json:"key"`
	Value  string `json:"value,omitempty"`
	// Wait: block until finality and return the commit index (default
	// true — the honest default: an acknowledgement IS finality).
	Wait *bool `json:"wait,omitempty"`
}

// SubmitResponse reports admission (202) or finality (200).
type SubmitResponse struct {
	Client    uint64 `json:"client"`
	Seq       uint64 `json:"seq"`
	Committed bool   `json:"committed"`
	// CommitIndex is the read-your-writes token, present when committed.
	CommitIndex uint64  `json:"commit_index,omitempty"`
	LatencyMS   float64 `json:"latency_ms,omitempty"`
}

// ReadResponse is the /v1/read reply.
type ReadResponse struct {
	Key         string `json:"key"`
	Found       bool   `json:"found"`
	Value       string `json:"value,omitempty"`
	CommitIndex uint64 `json:"commit_index"`
}

type errorResponse struct {
	Error string `json:"error"`
}

// Handler serves the client API over a set of gateways (one per local
// replica). Requests address a replica with ?party=i (default 0) — the
// in-process facade fronts all parties on one listener, a real node
// passes exactly one gateway.
type Handler struct {
	gws  []*Gateway
	wait time.Duration
	mux  *http.ServeMux
}

// NewHandler builds the /v1/* handler. waitTimeout ≤ 0 selects
// DefaultWaitTimeout.
func NewHandler(gws []*Gateway, waitTimeout time.Duration) *Handler {
	if waitTimeout <= 0 {
		waitTimeout = DefaultWaitTimeout
	}
	h := &Handler{gws: gws, wait: waitTimeout, mux: http.NewServeMux()}
	h.mux.HandleFunc("/v1/submit", h.submit)
	h.mux.HandleFunc("/v1/read", h.read)
	h.mux.HandleFunc("/v1/wait", h.waitFor)
	return h
}

func (h *Handler) ServeHTTP(w http.ResponseWriter, r *http.Request) { h.mux.ServeHTTP(w, r) }

// gateway resolves the ?party selector.
func (h *Handler) gateway(w http.ResponseWriter, r *http.Request) *Gateway {
	party := 0
	if s := r.URL.Query().Get("party"); s != "" {
		v, err := strconv.Atoi(s)
		if err != nil || v < 0 || v >= len(h.gws) {
			writeErr(w, http.StatusBadRequest, "party out of range")
			return nil
		}
		party = v
	}
	g := h.gws[party]
	if g == nil {
		writeErr(w, http.StatusServiceUnavailable, "party not serving")
	}
	return g
}

func (h *Handler) submit(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		writeErr(w, http.StatusMethodNotAllowed, "POST only")
		return
	}
	g := h.gateway(w, r)
	if g == nil {
		return
	}
	var req SubmitRequest
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, int64(types.MaxPayloadBytes))).Decode(&req); err != nil {
		writeErr(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return
	}
	var op statemachine.Op
	switch req.Op {
	case "set", "":
		op = statemachine.OpSet
	case "delete":
		op = statemachine.OpDelete
	case "append":
		op = statemachine.OpAppend
	default:
		writeErr(w, http.StatusBadRequest, "unknown op "+strconv.Quote(req.Op))
		return
	}
	receipt, err := g.Submit(r.Context(), statemachine.Command{
		Client: req.Client,
		Seq:    req.Seq,
		Op:     op,
		Key:    req.Key,
		Value:  []byte(req.Value),
	})
	if err != nil {
		writeSubmitErr(w, err)
		return
	}
	if req.Wait != nil && !*req.Wait {
		// Admitted, not acknowledged: 202 says "queued", nothing more.
		// /v1/wait turns the identity into a finality answer later.
		writeJSON(w, http.StatusAccepted, SubmitResponse{Client: receipt.Client, Seq: receipt.Seq})
		return
	}
	h.respondAtFinality(w, r, receipt)
}

// respondAtFinality blocks on a receipt and writes the finality answer.
func (h *Handler) respondAtFinality(w http.ResponseWriter, r *http.Request, receipt *Receipt) {
	ctx, cancel := contextWithin(r, h.wait)
	defer cancel()
	ack, err := receipt.Wait(ctx)
	switch {
	case err == nil:
		writeJSON(w, http.StatusOK, SubmitResponse{
			Client:      receipt.Client,
			Seq:         receipt.Seq,
			Committed:   true,
			CommitIndex: ack.CommitIndex,
			LatencyMS:   ack.Latency.Seconds() * 1000,
		})
	case errors.Is(err, ErrNotRunning):
		writeErr(w, http.StatusServiceUnavailable, "gateway stopped before finality")
	default:
		writeErr(w, http.StatusGatewayTimeout, "not finalized within wait budget; retry /v1/wait")
	}
}

func (h *Handler) read(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	g := h.gateway(w, r)
	if g == nil {
		return
	}
	q := r.URL.Query()
	key := q.Get("key")
	if key == "" {
		writeErr(w, http.StatusBadRequest, "missing key")
		return
	}
	var token uint64
	if s := q.Get("token"); s != "" {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			writeErr(w, http.StatusBadRequest, "bad token")
			return
		}
		token = v
	}
	ctx, cancel := contextWithin(r, h.wait)
	defer cancel()
	res, err := g.Read(ctx, key, token)
	switch {
	case errors.Is(err, ErrNotRunning):
		writeErr(w, http.StatusServiceUnavailable, ErrNotRunning.Error())
		return
	case err != nil:
		writeErr(w, http.StatusGatewayTimeout, "commit index did not reach token in time")
		return
	}
	writeJSON(w, http.StatusOK, ReadResponse{
		Key:         key,
		Found:       res.Found,
		Value:       string(res.Value),
		CommitIndex: res.Index,
	})
}

func (h *Handler) waitFor(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		writeErr(w, http.StatusMethodNotAllowed, "GET only")
		return
	}
	g := h.gateway(w, r)
	if g == nil {
		return
	}
	q := r.URL.Query()
	client, err1 := strconv.ParseUint(q.Get("client"), 10, 64)
	seq, err2 := strconv.ParseUint(q.Get("seq"), 10, 64)
	if err1 != nil || err2 != nil {
		writeErr(w, http.StatusBadRequest, "need numeric client and seq")
		return
	}
	receipt, index, ok := g.Lookup(client, seq)
	if !ok {
		writeErr(w, http.StatusNotFound, "unknown (client, seq) — never submitted here, or evicted after finality")
		return
	}
	if receipt == nil {
		writeJSON(w, http.StatusOK, SubmitResponse{Client: client, Seq: seq, Committed: true, CommitIndex: index})
		return
	}
	h.respondAtFinality(w, r, receipt)
}

// contextWithin derives the wait budget from the request context.
func contextWithin(r *http.Request, d time.Duration) (context.Context, context.CancelFunc) {
	return context.WithTimeout(r.Context(), d)
}

func writeSubmitErr(w http.ResponseWriter, err error) {
	switch {
	case errors.Is(err, ErrBacklogFull):
		w.Header().Set("Retry-After", "1")
		writeErr(w, http.StatusTooManyRequests, ErrBacklogFull.Error())
	case errors.Is(err, ErrDuplicate):
		writeErr(w, http.StatusConflict, ErrDuplicate.Error())
	case errors.Is(err, ErrTooLarge):
		writeErr(w, http.StatusRequestEntityTooLarge, ErrTooLarge.Error())
	case errors.Is(err, ErrNotRunning):
		writeErr(w, http.StatusServiceUnavailable, ErrNotRunning.Error())
	default:
		writeErr(w, http.StatusBadRequest, err.Error())
	}
}

func writeErr(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, errorResponse{Error: msg})
}

func writeJSON(w http.ResponseWriter, status int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
