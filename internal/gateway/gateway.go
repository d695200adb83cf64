// Package gateway is the client-serving ingress layer on top of the
// replicated state machine (paper §1: the whole construction exists to
// order client commands — this is where the clients actually live).
//
// One Gateway fronts one replica. It redesigns ingress end-to-end:
//
//   - Admission control with TrySubmit-style backpressure: Submit never
//     blocks on a full backlog, it returns ErrBacklogFull (the same
//     discipline the verification pipeline applies to inbound
//     artifacts). Admitted commands are batched into block payloads by
//     the replica's statemachine.Queue.
//   - Acknowledgement only at finality: Submit returns a Receipt whose
//     future resolves when the command is observed in a *finalized*
//     block applied by this replica — never at admission. A queued
//     command that has not committed is not acknowledged, full stop
//     (the honesty property the HashGraph security analyses argue a
//     client surface must keep).
//   - Read-your-writes reads: the resolved Receipt carries a
//     commit-index token (the finalized round that applied the write).
//     Read(key, token) on any party's gateway waits until that party's
//     applied index reaches the token before reading its local KV, so
//     a client that writes through one replica and reads through
//     another still observes its own write.
package gateway

import (
	"context"
	"errors"
	"strconv"
	"sync"
	"time"

	"icc/internal/obs"
	"icc/internal/statemachine"
)

// Client-facing sentinel errors.
var (
	// ErrBacklogFull: the replica's pending backlog is at capacity.
	// Back off and retry; nothing was enqueued.
	ErrBacklogFull = errors.New("gateway: backlog full")
	// ErrNotRunning: the gateway is not serving (before Start or after
	// Stop).
	ErrNotRunning = errors.New("gateway: not running")
	// ErrDuplicate: an identical (client, seq) command is pending or
	// already finalized.
	ErrDuplicate = errors.New("gateway: duplicate (client, seq) command")
	// ErrTooLarge: the command can never fit in a block payload.
	ErrTooLarge = errors.New("gateway: command exceeds payload bound")
	// ErrInvalidSkew: LoadOptions.Skew is outside rand.NewZipf's domain
	// (s must be > 1, or exactly 0 for uniform keys).
	ErrInvalidSkew = errors.New("gateway: invalid Zipf skew")
)

// DefaultMaxBacklog bounds a replica's pending backlog (commands
// admitted but not yet finalized) unless Options override it.
const DefaultMaxBacklog = 4096

// resolvedCap bounds the ring of recently finalized identities kept for
// late Wait lookups (an HTTP client that submitted with wait=false and
// asks for the outcome after finalization).
const resolvedCap = 4096

// Options configures a Gateway.
type Options struct {
	// Party is the replica index, used only for metric labels.
	Party int
	// MaxBacklog bounds admitted-but-unfinalized commands
	// (0 = DefaultMaxBacklog; negative = unbounded).
	MaxBacklog int
	// Registry receives the icc_gateway_* instruments (nil = no metrics).
	Registry *obs.Registry
}

// Gateway fronts one replica: admission over its pending queue,
// finality futures resolved by its committed blocks, reads from its
// local KV gated by the commit index.
type Gateway struct {
	queue *statemachine.Queue
	kv    *statemachine.KV

	mu       sync.Mutex
	running  bool
	stopped  bool
	applied  uint64             // commit index: highest finalized round applied here
	appliedC chan struct{}      // closed + replaced whenever applied advances
	pending  map[ident]*Receipt // admitted, awaiting finality
	resolved map[ident]uint64   // recently finalized identity → commit index
	order    []ident            // FIFO eviction order for resolved

	submitted  *obs.Counter
	acked      *obs.Counter
	rejected   *obs.CounterVec
	ackLatency *obs.Histogram
	readTotal  *obs.Counter
	readWait   *obs.Histogram
	backlog    *obs.Gauge
}

type ident struct{ client, seq uint64 }

// New builds a Gateway over one replica's queue and KV. The queue's
// MaxPending is set from MaxBacklog so admission control is enforced at
// the batching layer itself, not just at the HTTP edge.
func New(queue *statemachine.Queue, kv *statemachine.KV, o Options) *Gateway {
	backlog := o.MaxBacklog
	if backlog == 0 {
		backlog = DefaultMaxBacklog
	}
	if backlog > 0 {
		queue.MaxPending = backlog
	}
	g := &Gateway{
		queue:    queue,
		kv:       kv,
		appliedC: make(chan struct{}),
		pending:  make(map[ident]*Receipt),
		resolved: make(map[ident]uint64),
	}
	if r := o.Registry; r != nil {
		party := strconv.Itoa(o.Party)
		g.submitted = r.Counter("icc_gateway_submitted_total",
			"Commands admitted into the pending backlog.")
		g.acked = r.Counter("icc_gateway_acked_total",
			"Commands acknowledged at finality.")
		g.rejected = r.CounterVec("icc_gateway_rejected_total",
			"Commands rejected at admission, by reason.", "reason")
		g.ackLatency = r.Histogram("icc_gateway_commit_latency_seconds",
			"End-to-end submit-to-finalize latency.", nil)
		g.readTotal = r.Counter("icc_gateway_reads_total",
			"Read requests served from finalized local state.")
		g.readWait = r.Histogram("icc_gateway_read_wait_seconds",
			"Time reads spent waiting for the commit index to reach their token.", nil)
		g.backlog = r.GaugeVec("icc_gateway_backlog",
			"Admitted-but-unfinalized commands per party.", "party").With(party)
	}
	return g
}

// Start makes the gateway serve. Idempotent; a no-op after Stop.
func (g *Gateway) Start() {
	g.mu.Lock()
	if !g.stopped {
		g.running = true
	}
	g.mu.Unlock()
}

// Stop stops serving: in-flight receipts resolve with ErrNotRunning,
// blocked reads wake and fail, later submits are refused. Idempotent.
func (g *Gateway) Stop() {
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	g.running = false
	g.stopped = true
	orphans := make([]*Receipt, 0, len(g.pending))
	for id, r := range g.pending {
		delete(g.pending, id)
		orphans = append(orphans, r)
	}
	// Wake read waiters so they observe running=false.
	close(g.appliedC)
	g.appliedC = make(chan struct{})
	g.mu.Unlock()
	for _, r := range orphans {
		r.resolve(0, ErrNotRunning)
	}
}

// Submit admits one command and returns its finality Receipt. It never
// blocks on consensus: a full backlog is ErrBacklogFull immediately
// (TrySubmit discipline), a duplicate of a pending or finalized command
// is ErrDuplicate, a stopped gateway is ErrNotRunning. The context only
// gates the call itself, not the command's lifetime.
func (g *Gateway) Submit(ctx context.Context, cmd statemachine.Command) (*Receipt, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	if !g.running {
		g.rejected.With("not_running").Inc()
		return nil, ErrNotRunning
	}
	id := ident{cmd.Client, cmd.Seq}
	if _, dup := g.resolved[id]; dup || cmd.Seq <= g.kv.AppliedSeq(cmd.Client) {
		g.rejected.With("duplicate").Inc()
		return nil, ErrDuplicate
	}
	if err := g.queue.TrySubmit(cmd); err != nil {
		switch {
		case errors.Is(err, statemachine.ErrBacklogFull):
			g.rejected.With("backlog_full").Inc()
			return nil, ErrBacklogFull
		case errors.Is(err, statemachine.ErrDuplicate):
			g.rejected.With("duplicate").Inc()
			return nil, ErrDuplicate
		case errors.Is(err, statemachine.ErrTooLarge):
			g.rejected.With("too_large").Inc()
			return nil, ErrTooLarge
		default:
			g.rejected.With("other").Inc()
			return nil, err
		}
	}
	r := &Receipt{
		Client:    cmd.Client,
		Seq:       cmd.Seq,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}
	g.pending[id] = r
	g.submitted.Inc()
	g.backlog.Set(float64(g.queue.Len()))
	return r, nil
}

// ObserveCommit ingests one finalized block applied by this replica:
// it advances the commit index to the block's round and resolves the
// receipts of every command the payload carried. The caller must have
// applied the payload to the KV first, so a reader released by the new
// commit index observes the write.
func (g *Gateway) ObserveCommit(round uint64, payload []byte) {
	cmds, err := statemachine.DecodePayload(payload)
	if err != nil {
		cmds = nil // the round still finalized; advance the watermark
	}
	g.mu.Lock()
	if g.stopped {
		g.mu.Unlock()
		return
	}
	if round > g.applied {
		g.applied = round
		close(g.appliedC)
		g.appliedC = make(chan struct{})
	}
	var acked []*Receipt
	for _, c := range cmds {
		id := ident{c.Client, c.Seq}
		g.remember(id, round)
		if r, ok := g.pending[id]; ok {
			delete(g.pending, id)
			acked = append(acked, r)
		}
	}
	g.backlog.Set(float64(g.queue.Len()))
	g.mu.Unlock()
	now := time.Now()
	for _, r := range acked {
		g.acked.Inc()
		g.ackLatency.Observe(now.Sub(r.submitted).Seconds())
		r.resolve(round, nil)
	}
}

// remember records a finalized identity in the bounded resolved ring.
// Caller holds g.mu.
func (g *Gateway) remember(id ident, round uint64) {
	if _, ok := g.resolved[id]; ok {
		return
	}
	g.resolved[id] = round
	g.order = append(g.order, id)
	for len(g.order) > resolvedCap {
		delete(g.resolved, g.order[0])
		g.order = g.order[1:]
	}
}

// AppliedIndex returns this replica's commit index: the highest
// finalized round applied to its state.
func (g *Gateway) AppliedIndex() uint64 {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.applied
}

// Backlog returns the admitted-but-unfinalized command count.
func (g *Gateway) Backlog() int { return g.queue.Len() }

// ReadResult is a read served from finalized local state.
type ReadResult struct {
	Value []byte
	Found bool
	// Index is the replica's commit index at read time (≥ the request
	// token) — usable as the token for a subsequent monotonic read.
	Index uint64
}

// Read serves key from this replica's finalized state, gated by a
// commit-index token: it waits until the replica has applied round ≥
// token (read-your-writes when the token came from a write Receipt),
// then reads locally. A zero token reads the current state immediately.
func (g *Gateway) Read(ctx context.Context, key string, token uint64) (ReadResult, error) {
	start := time.Now()
	for {
		g.mu.Lock()
		if !g.running {
			g.mu.Unlock()
			return ReadResult{}, ErrNotRunning
		}
		applied := g.applied
		wake := g.appliedC
		g.mu.Unlock()
		if applied >= token {
			g.readTotal.Inc()
			g.readWait.Observe(time.Since(start).Seconds())
			v, found := g.kv.Get(key)
			return ReadResult{Value: v, Found: found, Index: applied}, nil
		}
		select {
		case <-ctx.Done():
			return ReadResult{}, ctx.Err()
		case <-wake:
		}
	}
}

// Lookup finds the state of a previously submitted identity: its
// pending Receipt, or — if it already finalized recently — the commit
// index it resolved at. ok is false when the gateway knows nothing
// about the identity.
func (g *Gateway) Lookup(client, seq uint64) (r *Receipt, index uint64, ok bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	id := ident{client, seq}
	if r, ok := g.pending[id]; ok {
		return r, 0, true
	}
	if idx, ok := g.resolved[id]; ok {
		return nil, idx, true
	}
	return nil, 0, false
}

// Receipt is the completion future of one submitted command. It
// resolves exactly when the command is finalized and applied on the
// submitting replica — acknowledgement never precedes finality.
type Receipt struct {
	Client uint64
	Seq    uint64

	submitted time.Time
	done      chan struct{}

	once  sync.Once
	index uint64
	err   error
}

// Ack is the resolved outcome of a Receipt.
type Ack struct {
	// CommitIndex is the finalized round that applied the command — the
	// read-your-writes token: pass it to Read on any replica to observe
	// this write.
	CommitIndex uint64
	// Latency is submit-to-finalize wall time as seen by this replica.
	Latency time.Duration
}

func (r *Receipt) resolve(index uint64, err error) {
	r.once.Do(func() {
		r.index = index
		r.err = err
		close(r.done)
	})
}

// Done returns a channel closed when the receipt resolves (finality or
// gateway shutdown). Check Ack after it closes.
func (r *Receipt) Done() <-chan struct{} { return r.done }

// Wait blocks until the command finalizes, the gateway stops
// (ErrNotRunning), or the context expires.
func (r *Receipt) Wait(ctx context.Context) (Ack, error) {
	select {
	case <-r.done:
		if r.err != nil {
			return Ack{}, r.err
		}
		return Ack{CommitIndex: r.index, Latency: time.Since(r.submitted)}, nil
	case <-ctx.Done():
		return Ack{}, ctx.Err()
	}
}
