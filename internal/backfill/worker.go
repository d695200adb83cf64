// Package backfill implements the asynchronous catch-up signer: the
// production core.CatchupProvider. When a responder's catch-up batch
// needs beacon shares that are not in the beacon's own-share cache,
// signing them is a from-scratch EC scalar multiplication per round —
// milliseconds each, tens of seconds for a deep gap — and before this
// package existed that work ran inline in handleStatus, stalling the
// single-threaded engine loop for every laggard (the ROADMAP's worst
// documented stall).
//
// The worker mirrors internal/verify's pipeline discipline: a bounded
// queue fed by a non-blocking enqueue (the engine never waits), worker
// goroutines doing the expensive cryptography, and results leaving
// through the transport directly — completed share batches are unicast
// to the lagging peer as ordinary bundles, so they re-enter the
// laggard's pool through the same verification paths as any other
// traffic and safety is untouched.
//
// Dropped requests are deliberate, not exceptional: the laggard repeats
// its Status every ResyncInterval while it remains behind, re-deriving
// whatever is still missing. Dropping under pressure (full queue, a
// request for the same peer already in flight, shutdown) costs one
// interval of latency, never correctness.
package backfill

import (
	"sync"
	"time"

	"icc/internal/checkpoint"
	"icc/internal/core"
	"icc/internal/obs"
	"icc/internal/types"
)

// ShareSigner is the slice of beacon.Source the worker needs. The
// production value is the party's own *beacon.Beacon, which is safe for
// concurrent use with the engine loop.
type ShareSigner interface {
	ShareForRound(k types.Round) (*types.BeaconShare, error)
}

// Sender is the slice of transport.Endpoint the worker needs. Sends
// must not block indefinitely; both transport implementations enqueue
// or drop.
type Sender interface {
	Send(to types.PartyID, m types.Message) error
}

// Options tunes a Worker. The zero value selects sensible defaults.
type Options struct {
	// Workers is the number of signing goroutines (0 → 1). Signing is
	// serialized per beacon anyway only by its short critical sections,
	// so more workers help when several laggards request at once.
	Workers int
	// QueueSize bounds pending requests (0 → 64). One request covers up
	// to 128 rounds (core's resyncBatch), so even the default absorbs far
	// more laggards than a cluster has peers.
	QueueSize int
	// Registry receives the worker's instruments (nil → none).
	Registry *obs.Registry
	// Checkpoints, if non-nil, lets the worker serve checkpoint
	// transfers (core.CheckpointProvider) to peers stuck behind the
	// prune horizon. The store is safe for concurrent use, so the blob
	// read happens off the engine loop like everything else here.
	Checkpoints *checkpoint.Store
}

// Worker signs queued catch-up beacon shares off the engine loop and
// unicasts them to lagging peers. Create with New, hand to the engine
// as core.Config.Catchup, and Close when the runtime stops. All methods
// are safe for concurrent use.
type Worker struct {
	signer      ShareSigner
	sender      Sender
	checkpoints *checkpoint.Store
	in          chan core.BackfillRequest
	ckptIn      chan core.CheckpointRequest
	done        chan struct{}
	wg          sync.WaitGroup
	once        sync.Once

	// inflight dedupes per peer: while one request for a peer is queued
	// or being signed, further requests for that peer are dropped — the
	// bound on in-flight work per laggard.
	mu       sync.Mutex
	inflight map[types.PartyID]bool

	requests  *obs.Counter
	dropped   *obs.CounterVec
	shares    *obs.Counter
	transfers *obs.Counter
	depth     *obs.Gauge
	latency   *obs.Histogram
}

var (
	_ core.CatchupProvider    = (*Worker)(nil)
	_ core.CheckpointProvider = (*Worker)(nil)
)

// New builds and starts a worker signing with signer and delivering
// through sender.
func New(signer ShareSigner, sender Sender, opts Options) *Worker {
	workers := opts.Workers
	if workers <= 0 {
		workers = 1
	}
	queue := opts.QueueSize
	if queue <= 0 {
		queue = 64
	}
	w := &Worker{
		signer:      signer,
		sender:      sender,
		checkpoints: opts.Checkpoints,
		in:          make(chan core.BackfillRequest, queue),
		ckptIn:      make(chan core.CheckpointRequest, queue),
		done:        make(chan struct{}),
		inflight:    make(map[types.PartyID]bool),
	}
	if reg := opts.Registry; reg != nil {
		w.requests = reg.Counter("icc_resync_backfill_requests_total", "Backfill share requests accepted by the worker queue.")
		w.dropped = reg.CounterVec("icc_resync_backfill_dropped_total", "Backfill requests dropped, by reason.", "reason")
		w.shares = reg.Counter("icc_resync_backfill_shares_total", "Beacon shares signed and sent by the backfill worker.")
		w.transfers = reg.Counter("icc_checkpoint_transfers_total", "Checkpoint blobs unicast to peers stuck behind the prune horizon.")
		w.depth = reg.Gauge("icc_resync_backfill_queue_depth", "Backfill requests waiting for a signing worker.")
		w.latency = reg.Histogram("icc_resync_backfill_latency_seconds", "Per-request backfill signing+send latency.", nil)
	}
	w.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go w.run()
	}
	return w
}

// EnqueueBackfill implements core.CatchupProvider. It never blocks: the
// request is dropped (false) when the worker is closed, a request for
// the same peer is already in flight, or the queue is full.
func (w *Worker) EnqueueBackfill(req core.BackfillRequest) bool {
	if len(req.Rounds) == 0 {
		return false
	}
	select {
	case <-w.done:
		w.dropped.With("closed").Inc()
		return false
	default:
	}
	w.mu.Lock()
	if w.inflight[req.Peer] {
		w.mu.Unlock()
		w.dropped.With("inflight").Inc()
		return false
	}
	w.inflight[req.Peer] = true
	w.mu.Unlock()
	select {
	case w.in <- req:
		w.requests.Inc()
		w.depth.Add(1)
		return true
	default:
		w.clearInflight(req.Peer)
		w.dropped.With("full").Inc()
		return false
	}
}

// EnqueueCheckpoint implements core.CheckpointProvider with the same
// non-blocking, per-peer-deduped discipline as EnqueueBackfill. Returns
// false when no checkpoint store is wired.
func (w *Worker) EnqueueCheckpoint(req core.CheckpointRequest) bool {
	if w.checkpoints == nil {
		return false
	}
	select {
	case <-w.done:
		w.dropped.With("closed").Inc()
		return false
	default:
	}
	w.mu.Lock()
	if w.inflight[req.Peer] {
		w.mu.Unlock()
		w.dropped.With("inflight").Inc()
		return false
	}
	w.inflight[req.Peer] = true
	w.mu.Unlock()
	select {
	case w.ckptIn <- req:
		w.requests.Inc()
		w.depth.Add(1)
		return true
	default:
		w.clearInflight(req.Peer)
		w.dropped.With("full").Inc()
		return false
	}
}

// Close stops the workers and releases the queue. Requests still queued
// are dropped; the laggards they belonged to simply re-ask. Safe to
// call more than once.
func (w *Worker) Close() {
	w.once.Do(func() { close(w.done) })
	w.wg.Wait()
}

func (w *Worker) clearInflight(p types.PartyID) {
	w.mu.Lock()
	delete(w.inflight, p)
	w.mu.Unlock()
}

func (w *Worker) run() {
	defer w.wg.Done()
	for {
		select {
		case <-w.done:
			return
		case req := <-w.in:
			w.depth.Add(-1)
			start := time.Now()
			w.process(req)
			w.latency.Observe(time.Since(start).Seconds())
		case req := <-w.ckptIn:
			w.depth.Add(-1)
			start := time.Now()
			w.processCheckpoint(req)
			w.latency.Observe(time.Since(start).Seconds())
		}
	}
}

// processCheckpoint ships the latest certified checkpoint to a peer. The
// store caches the encoded blob, so this is a map read plus one send.
func (w *Worker) processCheckpoint(req core.CheckpointRequest) {
	defer w.clearInflight(req.Peer)
	raw, round, ok := w.checkpoints.LatestEncoded()
	if !ok || round <= req.MinRound {
		return // raced with retention or the peer advanced; it will re-ask
	}
	w.transfers.Inc()
	// Resync-marked: the transfer rides the laggard's priority lane.
	_ = w.sender.Send(req.Peer, &types.Bundle{Messages: []types.Message{&types.CheckpointMsg{Blob: raw}}, Resync: true})
}

// process signs the requested rounds and unicasts the batch. Rounds
// that fail to sign — pruned below the beacon watermark (ErrPruned) or
// with R_{k−1} still unknown — are skipped: the artifacts would be
// useless or impossible, and the laggard's next Status narrows the ask.
func (w *Worker) process(req core.BackfillRequest) {
	msgs := make([]types.Message, 0, len(req.Rounds))
	for _, k := range req.Rounds {
		sh, err := w.signer.ShareForRound(k)
		if err != nil {
			continue
		}
		msgs = append(msgs, sh)
	}
	// Clear the in-flight mark before sending: once the shares are
	// signed (and cached by the beacon), a fresh request for the same
	// peer is cheap and must not be refused.
	w.clearInflight(req.Peer)
	if len(msgs) == 0 {
		return
	}
	w.shares.Add(int64(len(msgs)))
	// Resync-marked: backfill replies are catch-up traffic and ride the
	// laggard's verify-pipeline priority lane.
	_ = w.sender.Send(req.Peer, &types.Bundle{Messages: msgs, Resync: true})
}
