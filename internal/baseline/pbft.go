package baseline

import (
	"time"

	"icc/internal/crypto/hash"
	"icc/internal/engine"
	"icc/internal/types"
)

// Opaque tags for PBFT messages.
const (
	tagPBFTPrePrepare uint8 = 20
	tagPBFTPrepare    uint8 = 21
	tagPBFTCommit     uint8 = 22
	tagPBFTViewChange uint8 = 23
)

// PBFTConfig assembles a PBFT engine.
type PBFTConfig struct {
	Self       types.PartyID
	N          int
	DeltaBound time.Duration // drives the view-change timeout
	Payload    func(seq uint64) []byte
	OnCommit   func(seq uint64, payload []byte, now time.Duration)
	// ProposeDelay delays each pre-prepare after the previous sequence
	// completes — 0 for an honest leader. Setting it just below the
	// view-change timeout reproduces the "slow leader" attack of [15]
	// (the paper's §1 "Robust consensus" discussion): the leader makes
	// just enough progress to never be replaced while throughput
	// collapses.
	ProposeDelay time.Duration
}

// PBFT models Castro–Liskov PBFT [13] far enough for the comparisons the
// paper draws: a stable leader broadcasting pre-prepares, all-to-all
// prepare and commit phases with 2f+1 quorums, and a view-change
// subprotocol on timeout that installs the next leader. Checkpointing
// and the prepared-certificate transfer of the full view-change protocol
// are omitted (this baseline is exercised under crash and slow-leader
// faults, where they are not needed); see DESIGN.md §5 scope notes.
type PBFT struct {
	cfg PBFTConfig

	view      uint64
	committed uint64 // highest executed sequence
	// lastProgress is when committed last advanced (view-change timer).
	lastProgress time.Duration

	// Leader state.
	nextSeq     uint64
	proposeAt   time.Duration // earliest time the leader may pre-prepare
	outstanding bool          // a sequence is in flight

	// Per-sequence state.
	digests    map[uint64]hash.Digest
	payloads   map[uint64][]byte
	prepares   map[uint64]map[types.PartyID]struct{}
	commits    map[uint64]map[types.PartyID]struct{}
	sentPrep   map[uint64]bool
	sentCommit map[uint64]bool
	executed   map[uint64]bool

	// View-change votes per proposed view.
	vcVotes map[uint64]map[types.PartyID]struct{}

	out []engine.Output
}

// NewPBFT builds the engine.
func NewPBFT(cfg PBFTConfig) *PBFT {
	if cfg.DeltaBound == 0 {
		cfg.DeltaBound = 100 * time.Millisecond
	}
	if cfg.Payload == nil {
		cfg.Payload = func(uint64) []byte { return nil }
	}
	return &PBFT{
		cfg:        cfg,
		nextSeq:    1,
		digests:    make(map[uint64]hash.Digest),
		payloads:   make(map[uint64][]byte),
		prepares:   make(map[uint64]map[types.PartyID]struct{}),
		commits:    make(map[uint64]map[types.PartyID]struct{}),
		sentPrep:   make(map[uint64]bool),
		sentCommit: make(map[uint64]bool),
		executed:   make(map[uint64]bool),
		vcVotes:    make(map[uint64]map[types.PartyID]struct{}),
	}
}

func (p *PBFT) leader() types.PartyID { return types.PartyID(p.view % uint64(p.cfg.N)) }

func (p *PBFT) quorum() int { return types.NotaryQuorum(p.cfg.N) } // 2f+1 for n=3f+1

func (p *PBFT) timeout() time.Duration { return 4 * p.cfg.DeltaBound }

// ID implements engine.Engine.
func (p *PBFT) ID() types.PartyID { return p.cfg.Self }

// CurrentRound implements engine.Engine (sequence number ≈ round).
func (p *PBFT) CurrentRound() types.Round { return types.Round(p.committed + 1) }

// Init implements engine.Engine.
func (p *PBFT) Init(now time.Duration) []engine.Output {
	p.lastProgress = now
	p.proposeAt = now + p.cfg.ProposeDelay
	p.step(now)
	return p.drain()
}

// Tick implements engine.Engine.
func (p *PBFT) Tick(now time.Duration) []engine.Output {
	// View change on stalled progress.
	if now >= p.lastProgress+p.timeout() {
		p.lastProgress = now // rate-limit re-votes
		next := p.view + 1
		p.voteViewChange(next, p.cfg.Self)
		p.out = append(p.out, engine.Broadcast(encodePBFTSeq(tagPBFTViewChange, next, hash.Digest{}, nil)))
	}
	p.step(now)
	return p.drain()
}

// NextWake implements engine.Engine.
func (p *PBFT) NextWake(now time.Duration) (time.Duration, bool) {
	next := p.lastProgress + p.timeout()
	if p.leader() == p.cfg.Self && !p.outstanding && p.proposeAt > now && p.proposeAt < next {
		next = p.proposeAt
	}
	return next, true
}

// HandleMessage implements engine.Engine.
func (p *PBFT) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	o, ok := m.(*types.Opaque)
	if !ok {
		return nil
	}
	switch o.Tag {
	case tagPBFTPrePrepare:
		seq, digest, payload, okd := decodePBFTSeq(o.Data)
		if okd && p.digests[seq] == (hash.Digest{}) && from == p.leader() {
			p.digests[seq] = digest
			p.payloads[seq] = payload
		}
	case tagPBFTPrepare:
		seq, digest, _, okd := decodePBFTSeq(o.Data)
		if okd {
			addSet(p.prepares, seq, from)
			_ = digest
		}
	case tagPBFTCommit:
		seq, _, _, okd := decodePBFTSeq(o.Data)
		if okd {
			addSet(p.commits, seq, from)
		}
	case tagPBFTViewChange:
		v, _, _, okd := decodePBFTSeq(o.Data)
		if okd && v > p.view {
			p.voteViewChange(v, from)
		}
	}
	p.step(now)
	return p.drain()
}

func addSet(m map[uint64]map[types.PartyID]struct{}, k uint64, p types.PartyID) {
	s := m[k]
	if s == nil {
		s = make(map[types.PartyID]struct{})
		m[k] = s
	}
	s[p] = struct{}{}
}

func (p *PBFT) voteViewChange(v uint64, from types.PartyID) {
	addSet(p.vcVotes, v, from)
	if len(p.vcVotes[v]) >= p.quorum() && v > p.view {
		p.view = v
		p.outstanding = false
		p.nextSeq = p.committed + 1
		// Fresh leader starts its propose clock (with its own delay).
		p.proposeAt = 0
	}
}

func (p *PBFT) drain() []engine.Output {
	out := p.out
	p.out = nil
	return out
}

// step runs the three-phase pipeline.
func (p *PBFT) step(now time.Duration) {
	// Leader proposes the next sequence once the previous one executed
	// and its (possibly malicious) propose delay elapsed.
	if p.leader() == p.cfg.Self && !p.outstanding {
		if p.proposeAt == 0 {
			p.proposeAt = now + p.cfg.ProposeDelay
		}
		if now >= p.proposeAt && p.nextSeq == p.committed+1 {
			seq := p.nextSeq
			payload := p.cfg.Payload(seq)
			digest := hash.Sum("baseline/pbft", payload, []byte{byte(seq)})
			p.digests[seq] = digest
			p.payloads[seq] = payload
			p.outstanding = true
			p.out = append(p.out, engine.Broadcast(encodePBFTSeq(tagPBFTPrePrepare, seq, digest, payload)))
		}
	}
	// Prepare phase.
	for seq, digest := range p.digests {
		if seq != p.committed+1 || p.sentPrep[seq] {
			continue
		}
		p.sentPrep[seq] = true
		addSet(p.prepares, seq, p.cfg.Self)
		p.out = append(p.out, engine.Broadcast(encodePBFTSeq(tagPBFTPrepare, seq, digest, nil)))
	}
	// Commit phase.
	seq := p.committed + 1
	if p.sentPrep[seq] && !p.sentCommit[seq] && len(p.prepares[seq]) >= p.quorum() {
		p.sentCommit[seq] = true
		addSet(p.commits, seq, p.cfg.Self)
		p.out = append(p.out, engine.Broadcast(encodePBFTSeq(tagPBFTCommit, seq, p.digests[seq], nil)))
	}
	// Execute.
	if p.sentCommit[seq] && !p.executed[seq] && len(p.commits[seq]) >= p.quorum() {
		p.executed[seq] = true
		p.committed = seq
		p.lastProgress = now
		if p.cfg.OnCommit != nil {
			p.cfg.OnCommit(seq, p.payloads[seq], now)
		}
		if p.leader() == p.cfg.Self {
			p.outstanding = false
			p.nextSeq = seq + 1
			p.proposeAt = now + p.cfg.ProposeDelay
		}
		// More sequences may already be ready; recurse one step.
		p.step(now)
	}
}

// Wire encoding: u64 seq/view, 32-byte digest, payload, placeholder sig.
func encodePBFTSeq(tag uint8, seq uint64, digest hash.Digest, payload []byte) *types.Opaque {
	e := types.NewEncoder(112 + len(payload))
	e.U64(seq)
	e.Bytes32(digest)
	e.VarBytes(payload)
	e.VarBytes(make([]byte, fakeSigLen))
	return &types.Opaque{Tag: tag, Data: e.Bytes()}
}

func decodePBFTSeq(data []byte) (uint64, hash.Digest, []byte, bool) {
	d := types.NewDecoder(data)
	seq := d.U64()
	digest := d.Bytes32()
	payload := d.VarBytes()
	d.VarBytes()
	return seq, digest, payload, d.Err() == nil
}

var _ engine.Engine = (*PBFT)(nil)
