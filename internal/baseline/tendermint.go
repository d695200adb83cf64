package baseline

import (
	"time"

	"icc/internal/crypto/hash"
	"icc/internal/engine"
	"icc/internal/types"
)

// Opaque tags for Tendermint messages.
const (
	tagTMProposal  uint8 = 10
	tagTMPrevote   uint8 = 11
	tagTMPrecommit uint8 = 12
)

// TendermintConfig assembles a Tendermint-like engine.
type TendermintConfig struct {
	Self       types.PartyID
	N          int
	DeltaBound time.Duration // Δbnd: drives timeoutPropose and timeoutCommit
	Payload    func(height uint64) []byte
	OnCommit   func(height uint64, payload []byte, now time.Duration)
}

// Tendermint models the propose/prevote/precommit structure of [8] with
// its characteristic clock-driven pacing: after committing a height, a
// party waits timeoutCommit = Δbnd before starting the next height (the
// real system's straggler-collection wait), and a missing proposal is
// only given up on after timeoutPropose = 2·Δbnd. This makes the height
// rate Θ(Δbnd)-bounded even when the actual network delay δ is tiny —
// the "not optimistically responsive" property §1.1 contrasts with ICC.
type Tendermint struct {
	cfg TendermintConfig

	height      uint64
	round       uint64 // round within the height (for skipped proposers)
	stepStart   time.Duration
	startAt     time.Duration // when the current height may begin in earnest
	proposal    []byte
	proposalID  hash.Digest
	hasProposal bool
	prevotes    map[hash.Digest]map[types.PartyID]struct{}
	precommits  map[hash.Digest]map[types.PartyID]struct{}
	sentPrevote bool
	sentPrecmt  bool
	proposed    bool

	out []engine.Output
}

// NewTendermint builds the engine.
func NewTendermint(cfg TendermintConfig) *Tendermint {
	if cfg.DeltaBound == 0 {
		cfg.DeltaBound = 100 * time.Millisecond
	}
	if cfg.Payload == nil {
		cfg.Payload = func(uint64) []byte { return nil }
	}
	return &Tendermint{cfg: cfg, height: 1}
}

func (tm *Tendermint) proposer() types.PartyID {
	return types.PartyID((tm.height + tm.round) % uint64(tm.cfg.N))
}

func (tm *Tendermint) quorum() int { return types.NotaryQuorum(tm.cfg.N) }

// ID implements engine.Engine.
func (tm *Tendermint) ID() types.PartyID { return tm.cfg.Self }

// CurrentRound implements engine.Engine.
func (tm *Tendermint) CurrentRound() types.Round { return types.Round(tm.height) }

// Init implements engine.Engine.
func (tm *Tendermint) Init(now time.Duration) []engine.Output {
	tm.enterHeight(tm.height, now, 0)
	tm.step(now)
	return tm.drain()
}

// Tick implements engine.Engine.
func (tm *Tendermint) Tick(now time.Duration) []engine.Output {
	tm.step(now)
	return tm.drain()
}

// NextWake implements engine.Engine.
func (tm *Tendermint) NextWake(now time.Duration) (time.Duration, bool) {
	if now < tm.startAt {
		return tm.startAt, true
	}
	// timeoutPropose boundary.
	if !tm.hasProposal {
		return tm.stepStart + 2*tm.cfg.DeltaBound, true
	}
	return 0, false
}

// HandleMessage implements engine.Engine.
func (tm *Tendermint) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	o, ok := m.(*types.Opaque)
	if !ok {
		return nil
	}
	switch o.Tag {
	case tagTMProposal:
		h, payload, okd := decodeTMProposal(o.Data)
		if okd && h == tm.height && !tm.hasProposal {
			tm.proposal = payload
			tm.proposalID = tmID(h, payload)
			tm.hasProposal = true
		}
	case tagTMPrevote:
		h, id, okd := decodeTMVote(o.Data)
		if okd && h == tm.height {
			addVote(tm.prevotes, id, from)
		}
	case tagTMPrecommit:
		h, id, okd := decodeTMVote(o.Data)
		if okd && h == tm.height {
			addVote(tm.precommits, id, from)
		}
	}
	tm.step(now)
	return tm.drain()
}

func addVote(m map[hash.Digest]map[types.PartyID]struct{}, id hash.Digest, from types.PartyID) {
	set := m[id]
	if set == nil {
		set = make(map[types.PartyID]struct{})
		m[id] = set
	}
	set[from] = struct{}{}
}

func (tm *Tendermint) drain() []engine.Output {
	out := tm.out
	tm.out = nil
	return out
}

func (tm *Tendermint) enterHeight(h uint64, now, defer_ time.Duration) {
	tm.height = h
	tm.round = 0
	tm.startAt = now + defer_
	tm.stepStart = tm.startAt
	tm.proposal = nil
	tm.hasProposal = false
	tm.prevotes = make(map[hash.Digest]map[types.PartyID]struct{})
	tm.precommits = make(map[hash.Digest]map[types.PartyID]struct{})
	tm.sentPrevote = false
	tm.sentPrecmt = false
	tm.proposed = false
}

// step advances the propose → prevote → precommit → commit pipeline.
func (tm *Tendermint) step(now time.Duration) {
	if now < tm.startAt {
		return // timeoutCommit pause before the height begins
	}
	// Propose.
	if !tm.proposed && tm.proposer() == tm.cfg.Self {
		tm.proposed = true
		payload := tm.cfg.Payload(tm.height)
		tm.proposal = payload
		tm.proposalID = tmID(tm.height, payload)
		tm.hasProposal = true
		tm.out = append(tm.out, engine.Broadcast(encodeTMProposal(tm.height, payload)))
	}
	// timeoutPropose: skip to the next round's proposer.
	if !tm.hasProposal && now >= tm.stepStart+2*tm.cfg.DeltaBound {
		tm.round++
		tm.stepStart = now
		tm.proposed = false
		tm.sentPrevote = false
		tm.sentPrecmt = false
		return
	}
	// Prevote on the proposal.
	if tm.hasProposal && !tm.sentPrevote {
		tm.sentPrevote = true
		addVote(tm.prevotes, tm.proposalID, tm.cfg.Self)
		tm.out = append(tm.out, engine.Broadcast(encodeTMVote(tagTMPrevote, tm.height, tm.proposalID)))
	}
	// Precommit on a prevote quorum.
	if tm.hasProposal && !tm.sentPrecmt && len(tm.prevotes[tm.proposalID]) >= tm.quorum() {
		tm.sentPrecmt = true
		addVote(tm.precommits, tm.proposalID, tm.cfg.Self)
		tm.out = append(tm.out, engine.Broadcast(encodeTMVote(tagTMPrecommit, tm.height, tm.proposalID)))
	}
	// Commit on a precommit quorum; then wait timeoutCommit = Δbnd
	// before the next height (the responsiveness killer).
	if tm.hasProposal && len(tm.precommits[tm.proposalID]) >= tm.quorum() {
		if tm.cfg.OnCommit != nil {
			tm.cfg.OnCommit(tm.height, tm.proposal, now)
		}
		tm.enterHeight(tm.height+1, now, tm.cfg.DeltaBound)
	}
}

func tmID(height uint64, payload []byte) hash.Digest {
	e := types.NewEncoder(16 + len(payload))
	e.U64(height)
	e.VarBytes(payload)
	return hash.Sum("baseline/tendermint-block", e.Bytes())
}

func encodeTMProposal(height uint64, payload []byte) *types.Opaque {
	e := types.NewEncoder(80 + len(payload))
	e.U64(height)
	e.VarBytes(payload)
	e.VarBytes(make([]byte, fakeSigLen))
	return &types.Opaque{Tag: tagTMProposal, Data: e.Bytes()}
}

func decodeTMProposal(data []byte) (uint64, []byte, bool) {
	d := types.NewDecoder(data)
	h := d.U64()
	payload := d.VarBytes()
	d.VarBytes()
	return h, payload, d.Err() == nil
}

func encodeTMVote(tag uint8, height uint64, id hash.Digest) *types.Opaque {
	e := types.NewEncoder(112)
	e.U64(height)
	e.Bytes32(id)
	e.VarBytes(make([]byte, fakeSigLen))
	return &types.Opaque{Tag: tag, Data: e.Bytes()}
}

func decodeTMVote(data []byte) (uint64, hash.Digest, bool) {
	d := types.NewDecoder(data)
	h := d.U64()
	id := d.Bytes32()
	d.VarBytes()
	return h, id, d.Err() == nil
}

var _ engine.Engine = (*Tendermint)(nil)
