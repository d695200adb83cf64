package statemachine

import (
	"errors"
	"sync"

	"icc/internal/crypto/hash"
	"icc/internal/types"
)

// Typed admission errors returned by Queue.TrySubmit. The gateway maps
// them onto its client-facing sentinels; in-process callers can test
// them directly with errors.Is.
var (
	// ErrDuplicate: an identical (client, seq) command is already pending.
	ErrDuplicate = errors.New("statemachine: duplicate (client, seq) command")
	// ErrTooLarge: the command alone would not fit in a block payload.
	ErrTooLarge = errors.New("statemachine: command exceeds the payload byte bound")
	// ErrBacklogFull: the pending backlog is at MaxPending commands.
	ErrBacklogFull = errors.New("statemachine: pending backlog full")
)

// Queue is a thread-safe pending-command queue implementing the
// consensus engine's PayloadSource and DelegatedPayloadSource. GetPayload
// batches pending commands, skipping any command already present in the
// chain being extended (within dedupDepth ancestor blocks);
// GetPayloadWith appends what other parties offered for the same block.
// Only this party's own submissions are ever stored.
type Queue struct {
	mu      sync.Mutex
	pending []Command
	// inFlight tracks identities currently pending, to reject duplicate
	// submissions.
	inFlight map[ident]struct{}
	// chain memoizes, per block hash, the identities that block's payload
	// carries: every party cuts a payload every round, and each cut walks
	// dedupDepth ancestors of which all but the newest were walked the
	// round before. Entries leave once they are dedupDepth rounds behind
	// the newest block walked.
	chain map[hash.Digest]blockIdents
	// chainSize is how many identities the last walk collected, the size
	// hint for the next walk's set.
	chainSize int

	// MaxPending bounds the pending backlog; TrySubmit returns
	// ErrBacklogFull at the bound (0 = unbounded, the historical
	// behaviour).
	MaxPending int

	// maxBatch bounds commands per payload (1024) and maxBytes the
	// encoded payload size (types.MaxPayloadBytes): GetPayload never
	// builds a batch that encodes past it, and TrySubmit rejects any
	// single command that could never fit. dedupDepth bounds how many
	// ancestor blocks are consulted for duplicate suppression (64).
	// NewQueue sets them; tests in this package shrink them.
	maxBatch, maxBytes, dedupDepth int
}

// blockIdents is one memoized block: its round, for eviction, and the
// identities of its commands (none for a payload that does not decode).
type blockIdents struct {
	round types.Round
	ids   []ident
}

// NewQueue creates a Queue with default limits.
func NewQueue() *Queue {
	return &Queue{
		inFlight:   make(map[ident]struct{}),
		chain:      make(map[hash.Digest]blockIdents),
		maxBatch:   1024,
		maxBytes:   types.MaxPayloadBytes,
		dedupDepth: 64,
	}
}

// TrySubmit enqueues a command, or reports with a typed error why it
// was not admitted: ErrDuplicate for an identity already pending,
// ErrTooLarge for a command no payload could carry, ErrBacklogFull at
// the MaxPending bound. It never blocks — backpressure is the caller
// seeing ErrBacklogFull and retrying later.
func (q *Queue) TrySubmit(c Command) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if payloadHeaderSize+c.WireSize() > q.maxBytes {
		return ErrTooLarge
	}
	if q.MaxPending > 0 && len(q.pending) >= q.MaxPending {
		return ErrBacklogFull
	}
	id := ident{c.Client, c.Seq}
	if _, dup := q.inFlight[id]; dup {
		return ErrDuplicate
	}
	q.inFlight[id] = struct{}{}
	q.pending = append(q.pending, c)
	return nil
}

// Len returns the number of pending commands.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// MarkCommitted removes the commands of a committed payload from the
// queue (they no longer need proposing).
func (q *Queue) MarkCommitted(payload []byte) {
	cmds, err := DecodePayload(payload)
	if err != nil {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	drop := make(map[ident]struct{}, len(cmds))
	for _, c := range cmds {
		drop[ident{c.Client, c.Seq}] = struct{}{}
	}
	kept := q.pending[:0]
	for _, c := range q.pending {
		id := ident{c.Client, c.Seq}
		if _, gone := drop[id]; gone {
			delete(q.inFlight, id)
			continue
		}
		kept = append(kept, c)
	}
	q.pending = kept
}

// GetPayload implements core.PayloadSource. The batch respects both
// maxBatch and maxBytes exactly: building stops before the first
// command that would push the encoded payload past the byte bound
// (stopping, not skipping, preserves per-client Seq order).
func (q *Queue) GetPayload(round types.Round, parent *types.Block, lookup func(hash.Digest) *types.Block) []byte {
	return q.GetPayloadWith(round, parent, lookup, nil)
}

// GetPayloadWith implements core.DelegatedPayloadSource: GetPayload, then
// the commands of each delegated payload in the order given, each
// sender's commands in its own order. A command already in the chain or
// in the batch is skipped; a sender's first command that does not fit
// ends that sender's contribution (stopping, not skipping, as for the
// party's own commands); a payload that does not decode contributes
// nothing. Nothing delegated is stored: MaxPending, Len and the duplicate
// check see this party's submissions only.
func (q *Queue) GetPayloadWith(_ types.Round, parent *types.Block, lookup func(hash.Digest) *types.Block, delegated [][]byte) []byte {
	// taken starts as the identities in the chain and grows with the batch.
	taken := q.chainIdents(parent, lookup)
	var (
		batch []Command
		size  = payloadHeaderSize
	)
	// draw appends cmds in order, skipping what is taken and stopping at
	// the first command that does not fit.
	draw := func(cmds []Command) {
		for _, c := range cmds {
			id := ident{c.Client, c.Seq}
			if _, dup := taken[id]; dup {
				continue
			}
			if len(batch) >= q.maxBatch || size+c.WireSize() > q.maxBytes {
				return
			}
			batch = append(batch, c)
			size += c.WireSize()
			taken[id] = struct{}{}
		}
	}
	q.mu.Lock()
	draw(q.pending)
	q.mu.Unlock()
	for _, payload := range delegated {
		if cmds, err := DecodePayload(payload); err == nil {
			draw(cmds)
		}
	}
	if len(batch) == 0 {
		return nil
	}
	return EncodePayload(batch)
}

// chainIdents collects the command identities of up to dedupDepth
// ancestors ending at parent. lookup is called without the queue's lock.
func (q *Queue) chainIdents(parent *types.Block, lookup func(hash.Digest) *types.Block) map[ident]struct{} {
	q.mu.Lock()
	hint := q.chainSize
	q.mu.Unlock()
	out := make(map[ident]struct{}, hint)
	if parent == nil || parent.IsRoot() {
		return out
	}
	cur, h := parent, parent.Hash()
	for depth := 0; cur != nil && !cur.IsRoot() && depth < q.dedupDepth; depth++ {
		for _, id := range q.identsOf(h, cur) {
			out[id] = struct{}{}
		}
		if lookup == nil {
			break
		}
		h = cur.ParentHash
		cur = lookup(h)
	}
	q.mu.Lock()
	q.chainSize = len(out)
	for bh, e := range q.chain {
		if e.round+types.Round(q.dedupDepth) <= parent.Round {
			delete(q.chain, bh)
		}
	}
	q.mu.Unlock()
	return out
}

// identsOf returns the identities block b (hash h) carries, decoding its
// payload the first time the block is seen.
func (q *Queue) identsOf(h hash.Digest, b *types.Block) []ident {
	q.mu.Lock()
	e, ok := q.chain[h]
	q.mu.Unlock()
	if ok {
		return e.ids
	}
	e = blockIdents{round: b.Round}
	if cmds, err := DecodePayload(b.Payload); err == nil {
		e.ids = make([]ident, len(cmds))
		for i, c := range cmds {
			e.ids[i] = ident{c.Client, c.Seq}
		}
	}
	q.mu.Lock()
	q.chain[h] = e
	q.mu.Unlock()
	return e.ids
}
