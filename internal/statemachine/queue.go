package statemachine

import (
	"errors"
	"slices"
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
// consensus engine's PayloadSource and DelegatedPayloadSource. It holds
// two kinds of command:
//
//   - this party's own submissions (pending), which GetPayload batches in
//     admission order and Forward streams to the parties that may cut the
//     next block, each command once per party;
//   - the commands other parties forwarded to it (held), per sender, which
//     GetPayload draws after its own under the Seq rule below.
//
// Both skip any command already present in the chain being extended
// (within dedupDepth ancestor blocks), and both leave the queue when they
// are committed. MaxPending, Len and the duplicate check see this party's
// submissions only.
type Queue struct {
	mu      sync.Mutex
	pending []Command
	// inFlight tracks identities currently pending, to reject duplicate
	// submissions.
	inFlight map[ident]struct{}
	// sentTo lists, per pending command, the parties Forward has handed it
	// to (or found it in the chain they extend).
	sentTo map[ident][]types.PartyID
	// held is, per sender, what that party forwarded, until committed.
	held map[types.PartyID]*share
	// committed is each client's highest committed Seq: the watermark
	// KV.Apply skips at and below.
	committed map[uint64]uint64
	// settled counts, per sender, the held commands merged or expired
	// since the last Settle.
	settled map[types.PartyID]*tally
	// admitted receives (one slot, never blocking) on every admission.
	admitted chan struct{}
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
	// builds a batch that encodes past it, TrySubmit rejects any single
	// command that could never fit, and Hold keeps no more of one
	// sender's commands than one payload could carry, in count or bytes.
	// dedupDepth bounds
	// how many ancestor blocks are consulted for duplicate suppression
	// (64). NewQueue sets them; tests in this package shrink them.
	maxBatch, maxBytes, dedupDepth int
}

// share is one sender's held commands, in arrival order.
type share struct {
	cmds  []heldCommand
	ids   map[ident]struct{}
	bytes int // encoded size of cmds as one payload
}

type heldCommand struct {
	Command
	merged bool // drawn into one of this party's payloads already
}

type tally struct{ merged, expired int }

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
		sentTo:     make(map[ident][]types.PartyID),
		held:       make(map[types.PartyID]*share),
		committed:  make(map[uint64]uint64),
		settled:    make(map[types.PartyID]*tally),
		admitted:   make(chan struct{}, 1),
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
// seeing ErrBacklogFull and retrying later. An admission is signalled on
// Wake.
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
	select {
	case q.admitted <- struct{}{}:
	default:
	}
	return nil
}

// Wake implements engine.Waker: it receives after an admission, so a host
// whose engine waits on a timer can let it forward the command now.
func (q *Queue) Wake() <-chan struct{} { return q.admitted }

// Len returns the number of pending commands.
func (q *Queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.pending)
}

// MarkCommitted removes the commands of a committed payload from the
// queue (they no longer need proposing), raises their clients' committed
// Seq, and drops every held command at or below it: committed, or never
// to be applied. A held command dropped without having been merged is
// expired.
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
		q.committed[c.Client] = max(q.committed[c.Client], c.Seq)
	}
	kept := q.pending[:0]
	for _, c := range q.pending {
		id := ident{c.Client, c.Seq}
		if _, gone := drop[id]; gone {
			delete(q.inFlight, id)
			delete(q.sentTo, id)
			continue
		}
		kept = append(kept, c)
	}
	q.pending = kept
	for from, s := range q.held {
		keep := s.cmds[:0]
		for _, h := range s.cmds {
			if h.Seq > q.committed[h.Client] {
				keep = append(keep, h)
				continue
			}
			delete(s.ids, ident{h.Client, h.Seq})
			s.bytes -= h.WireSize()
			if !h.merged {
				q.tallyOf(from).expired++
			}
		}
		s.cmds = keep
		if len(keep) == 0 {
			delete(q.held, from)
		}
	}
}

func (q *Queue) tallyOf(from types.PartyID) *tally {
	t := q.settled[from]
	if t == nil {
		t = &tally{}
		q.settled[from] = t
	}
	return t
}

// Forward implements core.DelegatedPayloadSource: the pending commands
// not yet handed to party to, in admission order and within one payload's
// bounds, encoded as a payload, and how many they are. A command the
// chain ending at parent already carries is not sent but counts as sent:
// to extends that chain. Whatever is returned counts as sent to to.
func (q *Queue) Forward(to types.PartyID, parent *types.Block, lookup func(hash.Digest) *types.Block) ([]byte, int) {
	q.mu.Lock()
	var unsent []Command
	for _, c := range q.pending {
		if !slices.Contains(q.sentTo[ident{c.Client, c.Seq}], to) {
			unsent = append(unsent, c)
		}
	}
	q.mu.Unlock()
	if len(unsent) == 0 {
		return nil, 0
	}
	inChain := q.chainIdents(parent, lookup)
	var (
		batch []Command
		done  []ident
		size  = payloadHeaderSize
	)
	for _, c := range unsent {
		id := ident{c.Client, c.Seq}
		if _, ok := inChain[id]; ok {
			done = append(done, id)
			continue
		}
		if len(batch) >= q.maxBatch || size+c.WireSize() > q.maxBytes {
			break
		}
		batch = append(batch, c)
		done = append(done, id)
		size += c.WireSize()
	}
	q.mu.Lock()
	for _, id := range done {
		if _, ok := q.inFlight[id]; ok { // not committed meanwhile
			q.sentTo[id] = append(q.sentTo[id], to)
		}
	}
	q.mu.Unlock()
	if len(batch) == 0 {
		return nil, 0
	}
	return EncodePayload(batch), len(batch)
}

// Hold implements core.DelegatedPayloadSource: it keeps the commands of
// a payload party from forwarded, in order, until they are committed, and
// says how many it kept and how many it refused. Refused are a command at
// or below its client's committed Seq, one this sender forwarded already,
// and one that would take the sender's share past what one payload can
// carry (maxBatch commands, maxBytes bytes), so that what a sender can
// make this party hold, and scan at every cut and commit, is bounded; a
// payload that does not decode is refused whole and counts as one.
func (q *Queue) Hold(from types.PartyID, payload []byte) (held, refused int) {
	cmds, err := DecodePayload(payload)
	if err != nil {
		return 0, 1
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	s := q.held[from]
	if s == nil {
		s = &share{ids: make(map[ident]struct{}), bytes: payloadHeaderSize}
	}
	for _, c := range cmds {
		id := ident{c.Client, c.Seq}
		_, dup := s.ids[id]
		if dup || c.Seq <= q.committed[c.Client] || len(s.cmds) >= q.maxBatch || s.bytes+c.WireSize() > q.maxBytes {
			refused++
			continue
		}
		s.cmds = append(s.cmds, heldCommand{Command: c})
		s.ids[id] = struct{}{}
		s.bytes += c.WireSize()
		held++
	}
	if len(s.cmds) > 0 {
		q.held[from] = s
	}
	return held, refused
}

// Settle implements core.DelegatedPayloadSource: it reports, sender by
// sender in ascending order, the held commands first merged into a
// payload and those expired since the last call.
func (q *Queue) Settle(report func(from types.PartyID, merged, expired int)) {
	q.mu.Lock()
	settled := q.settled
	if len(settled) > 0 {
		q.settled = make(map[types.PartyID]*tally)
	}
	q.mu.Unlock()
	for _, from := range sortedSenders(settled) {
		t := settled[from]
		report(from, t.merged, t.expired)
	}
}

func sortedSenders[V any](m map[types.PartyID]V) []types.PartyID {
	senders := make([]types.PartyID, 0, len(m))
	for from := range m {
		senders = append(senders, from)
	}
	slices.Sort(senders)
	return senders
}

// GetPayload implements core.PayloadSource: this party's own pending
// commands, then the held ones, sender by sender starting with one that
// rotates with the round (no sender is always last when a block fills
// up), each sender's in arrival order. The batch respects both maxBatch
// and maxBytes exactly, and skips what the chain or the batch already
// carries.
//
// Own commands stop at the first that does not fit, so a client's later
// command never overtakes an earlier one. A held command obeys the Seq
// rule instead (DESIGN.md §19): client c's Seq s goes in only if s−1 is
// committed, in the chain, or earlier in this batch. A forward that was
// lost or is still on its way therefore holds its client's later
// commands back, where putting them in would make every replica's
// watermark skip it for good.
func (q *Queue) GetPayload(round types.Round, parent *types.Block, lookup func(hash.Digest) *types.Block) []byte {
	// taken starts as the identities in the chain and grows with the batch.
	taken := q.chainIdents(parent, lookup)
	var (
		batch []Command
		size  = payloadHeaderSize
	)
	fits := func(c Command) bool { return len(batch) < q.maxBatch && size+c.WireSize() <= q.maxBytes }
	add := func(c Command) {
		batch = append(batch, c)
		size += c.WireSize()
		taken[ident{c.Client, c.Seq}] = struct{}{}
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, c := range q.pending {
		if _, dup := taken[ident{c.Client, c.Seq}]; dup {
			continue
		}
		if !fits(c) {
			break
		}
		add(c)
	}
	// A held command whose predecessor is missing waits for it under the
	// predecessor's identity, and follows it into the batch if it comes.
	type heldRef struct {
		from types.PartyID
		h    *heldCommand
	}
	waiting := make(map[ident][]heldRef)
	draw := func(r heldRef) {
		for stack := []heldRef{r}; len(stack) > 0; {
			r := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			c := r.h.Command
			id, prev := ident{c.Client, c.Seq}, ident{c.Client, c.Seq - 1}
			if _, dup := taken[id]; dup {
				continue
			}
			if _, ok := taken[prev]; !ok && c.Seq-1 > q.committed[c.Client] {
				waiting[prev] = append(waiting[prev], r)
				continue
			}
			if !fits(c) {
				continue
			}
			add(c)
			if !r.h.merged {
				r.h.merged = true
				q.tallyOf(r.from).merged++
			}
			stack = append(stack, waiting[id]...)
			delete(waiting, id)
		}
	}
	senders := sortedSenders(q.held)
	for i := range senders {
		from := senders[(int(round%types.Round(len(senders)))+i)%len(senders)]
		cmds := q.held[from].cmds
		for j := range cmds {
			draw(heldRef{from, &cmds[j]})
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
