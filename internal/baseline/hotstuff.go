// Package baseline implements simplified comparator protocols for the
// evaluation: a chained-HotStuff engine [36] and a Tendermint-like
// engine [8], both running on the same simulator and engine interface as
// the ICC engines. They reproduce the structural properties §1.1 of the
// paper compares against — HotStuff's 2δ reciprocal throughput but 6δ
// commit latency, and Tendermint's Θ(Δbnd) round time (no optimistic
// responsiveness) — under honest and crash-fault conditions.
//
// Scope note (see DESIGN.md §5): these are benchmark comparators, not
// full reimplementations. They model the happy path plus crash faults
// and timeouts; votes carry placeholder signatures sized like real ones
// so traffic measurements are meaningful, but no cryptographic
// verification is performed.
package baseline

import (
	"time"

	"icc/internal/crypto/hash"
	"icc/internal/engine"
	"icc/internal/types"
)

// Opaque tags for HotStuff messages.
const (
	tagHSProposal uint8 = 1
	tagHSVote     uint8 = 2
	tagHSNewView  uint8 = 3
)

const fakeSigLen = 64

// hsBlock is a HotStuff block.
type hsBlock struct {
	view    uint64
	parent  hash.Digest
	justify uint64 // view of the QC this block carries (justify.block = parent)
	payload []byte
}

func (b *hsBlock) hash() hash.Digest {
	e := types.NewEncoder(64 + len(b.payload))
	e.U64(b.view)
	e.Bytes32(b.parent)
	e.U64(b.justify)
	e.VarBytes(b.payload)
	return hash.Sum("baseline/hotstuff-block", e.Bytes())
}

// HotStuffConfig assembles a chained-HotStuff engine.
type HotStuffConfig struct {
	Self       types.PartyID
	N          int
	DeltaBound time.Duration // pacemaker timeout base
	Payload    func(view uint64) []byte
	OnCommit   func(view uint64, payload []byte, now time.Duration)
}

// HotStuff is a chained-HotStuff engine (three-chain commit rule,
// round-robin leaders, view-timeout pacemaker).
type HotStuff struct {
	cfg HotStuffConfig

	view      uint64
	viewStart time.Duration
	blocks    map[hash.Digest]*hsBlock
	qcView    map[hash.Digest]uint64 // blocks that have a QC, by view of the QC
	qcByView  map[uint64]hash.Digest
	highQC    uint64      // view of the highest known QC
	highBlock hash.Digest // block certified by highQC
	votes     map[hash.Digest]map[types.PartyID]struct{}
	committed uint64 // highest committed view
	proposedV map[uint64]bool

	out []engine.Output
}

// NewHotStuff builds the engine. A genesis block with view 0 and a
// genesis QC is implicit.
func NewHotStuff(cfg HotStuffConfig) *HotStuff {
	if cfg.DeltaBound == 0 {
		cfg.DeltaBound = 100 * time.Millisecond
	}
	if cfg.Payload == nil {
		cfg.Payload = func(uint64) []byte { return nil }
	}
	genesis := &hsBlock{view: 0}
	gh := genesis.hash()
	h := &HotStuff{
		cfg:       cfg,
		view:      1,
		blocks:    map[hash.Digest]*hsBlock{gh: genesis},
		qcView:    map[hash.Digest]uint64{gh: 0},
		qcByView:  map[uint64]hash.Digest{0: gh},
		highQC:    0,
		highBlock: gh,
		votes:     make(map[hash.Digest]map[types.PartyID]struct{}),
		proposedV: make(map[uint64]bool),
	}
	return h
}

// leader returns the round-robin leader of a view.
func (h *HotStuff) leader(v uint64) types.PartyID {
	return types.PartyID(v % uint64(h.cfg.N))
}

func (h *HotStuff) quorum() int { return types.NotaryQuorum(h.cfg.N) }

// ID implements engine.Engine.
func (h *HotStuff) ID() types.PartyID { return h.cfg.Self }

// CurrentRound implements engine.Engine.
func (h *HotStuff) CurrentRound() types.Round { return types.Round(h.view) }

// Init implements engine.Engine.
func (h *HotStuff) Init(now time.Duration) []engine.Output {
	h.viewStart = now
	h.tryPropose(now)
	return h.drain()
}

// Tick implements engine.Engine: the pacemaker. On view timeout, move to
// the next view and hand the new leader our highQC.
func (h *HotStuff) Tick(now time.Duration) []engine.Output {
	h.tryPropose(now)
	if now >= h.viewStart+h.timeout() {
		h.advanceView(h.view+1, now)
		h.sendNewView()
		h.tryPropose(now)
	}
	return h.drain()
}

// NextWake implements engine.Engine.
func (h *HotStuff) NextWake(now time.Duration) (time.Duration, bool) {
	next := h.viewStart + h.timeout()
	// A leader recovering from a timeout proposes on the half-timeout
	// boundary; make sure we wake for it.
	if h.leader(h.view) == h.cfg.Self && !h.proposedV[h.view] {
		if half := h.viewStart + h.timeout()/2; half < next && half > now {
			next = half
		}
	}
	return next, true
}

func (h *HotStuff) timeout() time.Duration { return 4 * h.cfg.DeltaBound }

func (h *HotStuff) drain() []engine.Output {
	out := h.out
	h.out = nil
	return out
}

func (h *HotStuff) advanceView(v uint64, now time.Duration) {
	if v <= h.view {
		return
	}
	h.view = v
	h.viewStart = now
}

// tryPropose proposes if we lead the current view and hold a QC from the
// previous view (or timed-out views collapse onto highQC).
func (h *HotStuff) tryPropose(now time.Duration) {
	if h.leader(h.view) != h.cfg.Self || h.proposedV[h.view] {
		return
	}
	// Chained HotStuff: the leader proposes once it holds a QC it can
	// justify with. The happy path wants QC of view−1; after timeouts any
	// highQC works.
	if h.highQC != h.view-1 && now < h.viewStart+h.timeout()/2 {
		return
	}
	h.proposedV[h.view] = true
	b := &hsBlock{
		view:    h.view,
		parent:  h.highBlock,
		justify: h.highQC,
		payload: h.cfg.Payload(h.view),
	}
	bh := b.hash()
	h.blocks[bh] = b
	h.out = append(h.out, engine.Broadcast(encodeHSProposal(b)))
	// Self-processing: leaders vote for their own proposals.
	h.onProposal(b, now)
}

// HandleMessage implements engine.Engine.
func (h *HotStuff) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	o, ok := m.(*types.Opaque)
	if !ok {
		return nil
	}
	switch o.Tag {
	case tagHSProposal:
		if b := decodeHSProposal(o.Data); b != nil {
			bh := b.hash()
			if _, dup := h.blocks[bh]; !dup {
				h.blocks[bh] = b
				h.onProposal(b, now)
			}
		}
	case tagHSVote:
		view, bh, okv := decodeHSVote(o.Data)
		if okv {
			h.onVote(from, view, bh, now)
		}
	case tagHSNewView:
		view, bh, okv := decodeHSVote(o.Data) // same shape
		if okv {
			if v, exists := h.qcView[bh]; exists && v > h.highQC {
				h.highQC, h.highBlock = v, bh
			}
			_ = view
		}
	}
	h.tryPropose(now)
	return h.drain()
}

// onProposal applies a proposal: update highQC from the justify, vote,
// advance the view, and run the commit rule.
func (h *HotStuff) onProposal(b *hsBlock, now time.Duration) {
	bh := b.hash()
	// The justify certifies the parent.
	if b.justify >= h.qcView[b.parent] {
		h.qcView[b.parent] = b.justify
		h.qcByView[b.justify] = b.parent
		if b.justify > h.highQC {
			h.highQC, h.highBlock = b.justify, b.parent
		}
	}
	h.commitRule(b, now)
	if b.view < h.view {
		return // stale proposal: no vote
	}
	// Vote to the next leader and move on.
	vote := encodeHSVote(tagHSVote, b.view, bh)
	next := h.leader(b.view + 1)
	if next == h.cfg.Self {
		h.onVote(h.cfg.Self, b.view, bh, now)
	} else {
		h.out = append(h.out, engine.Unicast(next, vote))
	}
	h.advanceView(b.view+1, now)
}

// onVote collects votes as the leader of view+1 and forms a QC.
func (h *HotStuff) onVote(from types.PartyID, view uint64, bh hash.Digest, now time.Duration) {
	if h.leader(view+1) != h.cfg.Self {
		return
	}
	set := h.votes[bh]
	if set == nil {
		set = make(map[types.PartyID]struct{})
		h.votes[bh] = set
	}
	set[from] = struct{}{}
	if len(set) < h.quorum() {
		return
	}
	if v, ok := h.qcView[bh]; !ok || view > v {
		h.qcView[bh] = view
		h.qcByView[view] = bh
		if view > h.highQC {
			h.highQC, h.highBlock = view, bh
		}
	}
}

// commitRule implements the three-chain rule: a proposal carrying
// justify QC(b2) commits b0 when b2 ← b1 ← b0 have consecutive views.
func (h *HotStuff) commitRule(b *hsBlock, now time.Duration) {
	b2, ok := h.blocks[b.parent]
	if !ok || b.justify != b2.view {
		return
	}
	b1, ok := h.blocks[b2.parent]
	if !ok || b2.justify != b1.view || b2.view != b1.view+1 {
		return
	}
	b0, ok := h.blocks[b1.parent]
	if !ok || b1.justify != b0.view || b1.view != b0.view+1 {
		return
	}
	if b0.view <= h.committed {
		return
	}
	// Commit b0 and its uncommitted ancestors, oldest first.
	var chain []*hsBlock
	cur := b0
	for cur != nil && cur.view > h.committed {
		chain = append(chain, cur)
		cur = h.blocks[cur.parent]
	}
	for i := len(chain) - 1; i >= 0; i-- {
		if h.cfg.OnCommit != nil {
			h.cfg.OnCommit(chain[i].view, chain[i].payload, now)
		}
	}
	h.committed = b0.view
}

// sendNewView reports our highQC to the new leader after a timeout.
func (h *HotStuff) sendNewView() {
	msg := encodeHSVote(tagHSNewView, h.highQC, h.highBlock)
	ldr := h.leader(h.view)
	if ldr != h.cfg.Self {
		h.out = append(h.out, engine.Unicast(ldr, msg))
	}
}

// Wire encodings. Votes carry a placeholder signature of realistic size.

func encodeHSProposal(b *hsBlock) *types.Opaque {
	e := types.NewEncoder(128 + len(b.payload))
	e.U64(b.view)
	e.Bytes32(b.parent)
	e.U64(b.justify)
	e.VarBytes(b.payload)
	// justify QC: quorum of placeholder signatures.
	e.VarBytes(make([]byte, fakeSigLen))
	return &types.Opaque{Tag: tagHSProposal, Data: e.Bytes()}
}

func decodeHSProposal(data []byte) *hsBlock {
	d := types.NewDecoder(data)
	b := &hsBlock{}
	b.view = d.U64()
	b.parent = d.Bytes32()
	b.justify = d.U64()
	b.payload = d.VarBytes()
	d.VarBytes() // placeholder QC
	if d.Err() != nil {
		return nil
	}
	return b
}

func encodeHSVote(tag uint8, view uint64, bh hash.Digest) *types.Opaque {
	e := types.NewEncoder(128)
	e.U64(view)
	e.Bytes32(bh)
	e.VarBytes(make([]byte, fakeSigLen))
	return &types.Opaque{Tag: tag, Data: e.Bytes()}
}

func decodeHSVote(data []byte) (uint64, hash.Digest, bool) {
	d := types.NewDecoder(data)
	view := d.U64()
	bh := d.Bytes32()
	d.VarBytes()
	return view, bh, d.Err() == nil
}

var _ engine.Engine = (*HotStuff)(nil)
