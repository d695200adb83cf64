package core

import (
	"sort"
	"time"

	"icc/internal/beacon"
	"icc/internal/checkpoint"
	"icc/internal/crypto"
	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/sig"
	"icc/internal/engine"
	"icc/internal/pool"
	"icc/internal/types"
)

// Engine is one party's ICC0 protocol state machine: the Tree-Building
// Subprotocol (Fig. 1) and the Finalization Subprotocol (Fig. 2) run
// "concurrently" by sharing one event loop.
type Engine struct {
	cfg Config

	pool *pool.Pool

	// Tree-Building Subprotocol state for the current round.
	round      types.Round // the round being worked on (k); starts at 1
	inRound    bool        // false while waiting for the round's beacon
	t0         time.Duration
	perm       []types.PartyID
	myRank     types.Rank
	rankOf     map[types.PartyID]types.Rank
	proposed   bool
	notarized  map[hash.Digest]bool // N: blocks I notarization-shared
	rankShared map[types.Rank]bool  // ranks with a block in N
	disq       map[types.Rank]bool  // D: disqualified ranks
	echoed     map[hash.Digest]bool // blocks already echoed (idempotence)
	waited     map[hash.Digest]bool // blocks whose share Δntry held back
	lagTaken   bool                 // the round's rank-0 lag sample is taken (cut.go)
	presigned  bool                 // precomputeBeacon signed the share for k+2

	// Finalization Subprotocol state.
	kmax    types.Round // highest finalized round output so far
	pending map[types.Round]struct{}

	// Δprop and Δntry of Fig. 1: eq. (2) over cfg.DeltaBound and cfg.Epsilon.
	delayProp, delayNtry types.DelayFunc
	fixedCut             bool // SetProposalDelay: rank 0 cuts at Δprop(0), unmeasured

	// The leader's measured cut (cut.go): each party's latest lag samples.
	lag []lagSlot

	// Adaptive-delay state.
	adaptPow    int
	lastFinal   types.Round // kmax at the last adaptation check
	unfinalized int         // consecutive finished rounds without commit progress

	// waitSince marks when the party started waiting for the current
	// round's beacon (instrumentation: OnBeaconRecovered timings).
	waitSince time.Duration

	// Resynchronisation state (resync.go, catchup.go).
	resyncInterval time.Duration // resyncDeltas·Δbnd + ε; tests in this package shorten it
	resyncAt       time.Duration // next time a stalled round triggers a Status
	statusSeq      uint64        // distinguishes successive Status emissions
	finalSeen      types.Round   // highest round with a finalization in the pool
	lastFinalHash  hash.Digest   // block hash at kmax (zero until first commit)
	// repliedAt is each peer's last answer to its Status (handleStatus's
	// limiter).
	repliedAt map[types.PartyID]reply
	roundRefs map[any]types.Ref // RefOf of the round's artifacts by pool object (roundRef)

	// Durability state (checkpointing.go, recover.go).
	replaying bool // WAL replay in progress: suppress new signatures and sends
	lost      bool // behind the prune horizon with no checkpoint path (resync.go)
	ckpts     map[types.Round]*pendingCheckpoint
	ckptPub   aggsig.Scheme // S_final keys at t+1 under DomainCheckpoint

	// Delegated payloads (delegate.go): the payload source's forwarding
	// half, nil when it has none.
	delegate DelegatedPayloadSource

	// maxPayload refuses larger block payloads and payload offers:
	// types.MaxPayloadBytes, an application-specific validity condition
	// (§3.4); tests in this package lower it.
	maxPayload int

	out []engine.Output
}

var _ engine.Engine = (*Engine)(nil)

// NewEngine builds an ICC0 engine from a config.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:            cfg,
		pool:           pool.New(cfg.Keys, cfg.Self, cfg.Pool),
		round:          1,
		pending:        make(map[types.Round]struct{}),
		maxPayload:     types.MaxPayloadBytes,
		resyncInterval: resyncDeltas*cfg.DeltaBound + cfg.Epsilon,
		repliedAt:      make(map[types.PartyID]reply),
		ckpts:          make(map[types.Round]*pendingCheckpoint),
		ckptPub:        checkpoint.PublicInfo(cfg.Keys),
		lag:            make([]lagSlot, cfg.Keys.N),
	}
	e.delayProp, e.delayNtry = types.StandardDelays(cfg.DeltaBound, cfg.Epsilon)
	e.delegate, _ = cfg.Payload.(DelegatedPayloadSource)
	e.resetRoundState()
	return e
}

// SetProposalDelay replaces Δprop, keeping Δntry, before the engine
// starts, and fixes the rank-0 cut at dprop(0) in place of the measured
// one (cut.go); the experiments use it to price a fixed cut against it
// (EXPERIMENTS.md E32, E36). dprop must keep types.StandardDelays'
// properties: Δprop(r) ≤ Δntry(r), strictly increasing in r, and
// 2Δbnd + Δprop(0) ≤ Δntry(1).
func (e *Engine) SetProposalDelay(dprop types.DelayFunc) { e.delayProp, e.fixedCut = dprop, true }

// ID implements engine.Engine.
func (e *Engine) ID() types.PartyID { return e.cfg.Self }

// CurrentRound implements engine.Engine.
func (e *Engine) CurrentRound() types.Round { return e.round }

// Pool exposes the artifact pool (read-only use by wrappers and tests).
func (e *Engine) Pool() *pool.Pool { return e.pool }

// FinalizedRound returns the highest round this party has committed.
func (e *Engine) FinalizedRound() types.Round { return e.kmax }

// Ranking returns round k's rank permutation, once this party knows R_k.
func (e *Engine) Ranking(k types.Round) ([]types.PartyID, bool) { return e.cfg.Beacon.Permutation(k) }

func (e *Engine) resetRoundState() {
	e.inRound = false
	e.proposed = false
	e.notarized = make(map[hash.Digest]bool)
	e.rankShared = make(map[types.Rank]bool)
	e.disq = make(map[types.Rank]bool)
	e.echoed = make(map[hash.Digest]bool)
	e.waited = make(map[hash.Digest]bool)
	e.lagTaken = false
	e.presigned = false
	e.perm = nil
	e.rankOf = nil
	e.roundRefs = nil
}

// dprop and dntry apply the adaptive multiplier, if enabled. dprop is the
// standard Δprop; rank 0 proposes at propDelay(0), the measured cut.
func (e *Engine) dprop(r types.Rank) time.Duration {
	return e.delayProp(r) << uint(e.adaptPow)
}

func (e *Engine) dntry(r types.Rank) time.Duration {
	return e.delayNtry(r) << uint(e.adaptPow)
}

// Init implements engine.Engine: "broadcast a share of the round-1
// random beacon" (Fig. 1, first line). After Recover the working round
// may be past 1 and possibly mid-round; the same code re-announces the
// recovered frontier's shares and restarts the round clock.
func (e *Engine) Init(now time.Duration) []engine.Output {
	e.touchResync(now)
	e.waitSince = now
	e.broadcastBeaconShare(e.round)
	if e.inRound {
		// Recovered mid-round: the pipelined next-round share was already
		// announced pre-crash, but re-announcing is cheap and heals the
		// case where the crash hit between fsync and send. The round clock
		// restarts — delays stretch, which only costs liveness slack.
		e.broadcastBeaconShare(e.round + 1)
		e.t0 = now
	}
	e.progress(now)
	e.stream(now)
	return e.drain()
}

// HandleMessage implements engine.Engine.
func (e *Engine) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	e.ingest(from, m, now)
	e.progress(now)
	e.stream(now)
	return e.drain()
}

// Tick implements engine.Engine. Ticks additionally flush the WAL even
// when no output is due, bounding how long an admitted-but-unsynced
// artifact can linger in the group-commit buffer.
func (e *Engine) Tick(now time.Duration) []engine.Output {
	e.maybeResync(now)
	e.progress(now)
	e.stream(now)
	out := e.drain()
	e.cfg.WAL.Flush()
	return out
}

// drain returns and clears the output buffer. When anything is about to
// leave the engine, the WAL is flushed first: no signature we issued may
// reach the network before it is durable (sync-before-send), otherwise a
// crash-restart could forget having signed and equivocate.
func (e *Engine) drain() []engine.Output {
	out := e.out
	e.out = nil
	if len(out) > 0 {
		e.cfg.WAL.Flush()
	}
	return out
}

// logArtifact appends an admitted or self-created artifact to the WAL.
// No-op during replay (the record being replayed is already durable).
func (e *Engine) logArtifact(m types.Message) {
	if e.replaying {
		return
	}
	e.cfg.WAL.Append(m)
}

// Wake implements engine.Waker when the payload source signals
// admissions: a command admitted while the engine waits on a timer is
// forwarded on the Tick that answers it, not on the next message.
func (e *Engine) Wake() <-chan struct{} {
	if w, ok := e.cfg.Payload.(engine.Waker); ok && e.delegate != nil {
		return w.Wake()
	}
	return nil
}

// Beacon implements engine.Beaconed.
func (e *Engine) Beacon() beacon.Source { return e.cfg.Beacon }

// Replaying reports whether a WAL replay is in progress (Recover).
func (e *Engine) Replaying() bool { return e.replaying }

// emit queues a broadcast.
func (e *Engine) emit(m types.Message) {
	e.out = append(e.out, engine.Broadcast(m))
}

// ingest routes one received message into the pool/beacon. Invalid
// artifacts are dropped (the sender may be corrupt; paper §3.1 makes no
// authenticity assumption beyond the signatures themselves) — but no
// longer silently: each admission failure fires OnRejectedMessage with
// the sender and a classified reason.
func (e *Engine) ingest(from types.PartyID, m types.Message, now time.Duration) {
	switch v := m.(type) {
	case *types.Bundle:
		for _, sub := range v.Messages {
			e.ingest(from, sub, now)
		}
	case *types.ShareBundle:
		// Relay-coalesced shares: explode back into the individual
		// artifacts, which take the ordinary admission paths.
		for _, sub := range v.Expand() {
			e.ingest(from, sub, now)
		}
	case *types.BlockMsg:
		if v.Block == nil {
			return
		}
		if len(v.Block.Payload) > e.maxPayload {
			e.reject(from, crypto.Mismatch)
			return
		}
		if e.pool.AddBlock(v.Block) {
			e.logArtifact(v)
		}
	case *types.Authenticator:
		if added, err := e.pool.AddAuthenticator(v); err != nil {
			e.reject(from, err)
		} else if added {
			e.logArtifact(v)
		}
	case *types.NotarizationShare:
		if added, err := e.pool.AddNotarizationShare(v); err != nil {
			e.reject(from, err)
		} else if added {
			e.logArtifact(v)
		}
	case *types.Notarization:
		if added, err := e.pool.AddNotarization(v); err != nil {
			e.reject(from, err)
		} else if added {
			e.logArtifact(v)
		}
	case *types.FinalizationShare:
		if added, err := e.pool.AddFinalizationShare(v); err != nil {
			e.reject(from, err)
		} else if added {
			e.logArtifact(v)
		}
	case *types.Finalization:
		added, err := e.pool.AddFinalization(v)
		if err != nil {
			e.reject(from, err)
		}
		if added {
			e.logArtifact(v)
			if v.Round > e.finalSeen {
				e.finalSeen = v.Round
			}
		}
	case *types.BeaconShare:
		if added, _ := e.cfg.Beacon.AddShare(v); added {
			e.logArtifact(v)
		}
	case *types.CheckpointShare:
		e.handleCheckpointShare(from, v, now)
	case *types.CheckpointMsg:
		e.handleCheckpointMsg(from, v, now)
	case *types.Status:
		e.handleStatus(from, v, now)
	case *types.PayloadOffer:
		e.holdOffer(from, v, now)
	default:
		// Gossip and RBC messages are handled by wrapper engines; a bare
		// ICC0 engine ignores them.
	}
}

// reject reports one admission failure to the instrumentation hook.
func (e *Engine) reject(from types.PartyID, err error) {
	if e.cfg.Hooks.OnRejectedMessage != nil {
		e.cfg.Hooks.OnRejectedMessage(from, crypto.Reason(err))
	}
}

// progress runs every protocol clause to quiescence, then uses a lull to
// get ahead on the next round's beacon.
func (e *Engine) progress(now time.Duration) {
	for {
		moved := false
		if !e.inRound {
			moved = e.tryEnterRound(now) || moved
		}
		if e.inRound {
			if e.tryFinishRound(now) {
				// Round advanced; loop to enter the next one.
				continue
			}
			moved = e.tryPropose(now) || moved
			moved = e.tryEchoNotarize(now) || moved
		}
		moved = e.runFinalizer(now) || moved
		if !moved {
			break
		}
	}
	e.precomputeBeacon(now)
}

// precomputeBeacon takes the next round's beacon arithmetic off the
// critical path. Parties broadcast their share of R_{k+1} on entering
// round k (Fig. 1) precisely so that R_{k+1} is ready when round k ends,
// so the quorum is normally here long before the round's notarization.
// From beaconAt on, with nothing waiting to be sent and round k−1
// committed, combine R_{k+1}, and sign this party's share of R_{k+2} into
// the beacon's own-share cache: tryEnterRound(k+1) then finds both done and
// costs two lookups, where it used to hold the queued notarization and
// finalization share back behind a combine and a signature.
//
// Only the timing of local arithmetic changes. R_{k+1} is fixed, and
// computable by anyone, once t+1 of its shares are public, so combining it
// early reveals nothing; the pre-signed share is local state that nothing
// sends before broadcastBeaconShare(k+2) on entering round k+1 — the
// paper's release point — because every sending path (stall Status,
// catch-up answer, backfill) stops at shares for round e.round+1. If the
// shares come late, tryEnterRound does the work as before.
func (e *Engine) precomputeBeacon(now time.Duration) {
	if len(e.out) > 0 || now < e.beaconAt() || !e.beaconDue() {
		return
	}
	next := e.round + 1
	if _, ok := e.cfg.Beacon.Reveal(next); ok {
		// The error (round pruned) would recur in tryEnterRound, which
		// reports nothing either: a share we cannot sign is not sent.
		_, _ = e.cfg.Beacon.ShareForRound(next + 1)
		e.presigned = true
	}
}

// beaconAt is the instant precomputeBeacon waits for: Δprop(0)/2 into the
// round (3ε/8 under types.StandardDelays, the round's entry at ε = 0),
// the standard Δprop(0) whatever the leader's measured cut.
// The milliseconds after round k−1's commit are the busiest of round k at
// every party alike — the commit's receipts are woken, the other parties'
// finalizations arrive — and nothing else happens before the leader's cut
// at Δprop(0) (DESIGN.md §17).
func (e *Engine) beaconAt() time.Duration { return e.t0 + e.dprop(0)/2 }

// beaconDue reports whether precomputeBeacon has work in this round: not
// replaying, round k−1 committed (before that, its finalization shares are
// in flight, and everything computed here would stand between their
// arrival and the commit; should the commit not come this round,
// tryEnterRound does the work as it always did), and either R_{k+1}
// unknown with t+1 of its shares held, or R_{k+1} known and the share for
// k+2 not yet signed. The second half is separate because R_{k+1} may
// become known without this party combining it: the ICC1 overlay reveals
// it from the share that completes the quorum, to forward the output.
func (e *Engine) beaconDue() bool {
	if !e.inRound || e.replaying || e.kmax+1 < e.round {
		return false
	}
	next := e.round + 1
	b := e.cfg.Beacon
	if b.Have(next) {
		return !e.presigned
	}
	return b.ShareCount(next) >= types.BeaconQuorum(e.cfg.Keys.N)
}

// broadcastBeaconShare signs and broadcasts this party's share of the
// round-k beacon (and records it locally).
func (e *Engine) broadcastBeaconShare(k types.Round) {
	if e.replaying {
		// Our own shares from before the crash arrive as WAL records; the
		// deterministic signature would be identical anyway, and nothing
		// may be emitted during replay.
		return
	}
	share, err := e.cfg.Beacon.ShareForRound(k)
	if err != nil {
		return // R_{k−1} unknown; caller's state machine retries later
	}
	if added, _ := e.cfg.Beacon.AddShare(share); added {
		e.logArtifact(share)
	}
	// While replaying rounds the rest of the cluster has already
	// finalized (catch-up after an outage), our shares for those rounds
	// are useless to everyone else — keep them local.
	if k > e.finalSeen {
		e.emit(share)
	}
}

// tryEnterRound implements the preliminary step of each round: wait for
// t+1 shares of the round-k beacon, compute it, broadcast a share of the
// round-(k+1) beacon (pipelining), and set up round state. When the
// shares were in hand during round k−1, precomputeBeacon has done both
// computations already and this is two cache lookups; otherwise — late
// shares — the arithmetic happens here.
func (e *Engine) tryEnterRound(now time.Duration) bool {
	k := e.round
	if _, ok := e.cfg.Beacon.Reveal(k); !ok {
		return false
	}
	e.broadcastBeaconShare(k + 1)
	perm, _ := e.cfg.Beacon.Permutation(k)
	e.perm = perm
	e.rankOf = make(map[types.PartyID]types.Rank, len(perm))
	for r, p := range perm {
		e.rankOf[p] = types.Rank(r)
	}
	e.myRank = e.rankOf[e.cfg.Self]
	e.t0 = now
	e.inRound = true
	e.touchResync(now)
	if e.replaying {
		return true
	}
	if e.cfg.Hooks.OnBeaconRecovered != nil {
		e.cfg.Hooks.OnBeaconRecovered(k, now-e.waitSince, now)
	}
	if e.cfg.Hooks.OnEnterRound != nil {
		e.cfg.Hooks.OnEnterRound(k, now)
	}
	return true
}

// tryFinishRound implements clause (a) of Fig. 1: on a notarized round-k
// block (or a full set of notarization shares for a valid block),
// broadcast the notarization, maybe a finalization share, and move on.
func (e *Engine) tryFinishRound(now time.Duration) bool {
	k := e.round
	h, ok := e.pool.NotarizedInRound(k)
	if !ok {
		// Full share set for a valid but non-notarized block? Only blocks
		// whose share count crossed the threshold are candidates, so this
		// no longer rescans every block of the round per message.
		for _, h2 := range e.pool.NotarReadyBlocks(k) {
			if e.pool.Notarization(h2) != nil || !e.pool.IsValid(h2) {
				continue
			}
			agg, ready := e.pool.NotarAggregateIfReady(h2)
			if !ready {
				continue
			}
			b := e.pool.Block(h2)
			nz := &types.Notarization{Round: k, Proposer: b.Proposer, BlockHash: h2, Agg: agg.Encode()}
			if added, _ := e.pool.AddNotarization(nz); added {
				e.logArtifact(nz)
				h, ok = h2, true
				break
			}
		}
		if !ok {
			return false
		}
	}
	// Broadcast the notarization for B — unless a finalization at or
	// past this round is already in the pool, in which case the cluster
	// has moved on and we are merely replaying history (catch-up).
	if k > e.finalSeen {
		e.emit(e.pool.Notarization(h))
	}
	// If N ⊆ {B}, broadcast a finalization share for B. NEVER during
	// replay: the replayed round state cannot prove the pre-crash N was
	// this small, and a share the pre-crash process withheld could,
	// combined with a share it issued for a sibling block, finalize two
	// blocks in one round. Only shares recorded in the WAL re-enter the
	// pool during recovery.
	if !e.replaying && (len(e.notarized) == 0 || (len(e.notarized) == 1 && e.notarized[h])) {
		b := e.pool.Block(h)
		msg := types.SigningBytes(k, b.Proposer, h)
		fs := &types.FinalizationShare{
			Round: k, Proposer: b.Proposer, BlockHash: h, Signer: e.cfg.Self,
			Sig: e.cfg.Priv.Final.Sign(types.DomainFinalization, msg).Signature,
		}
		if added, _ := e.pool.AddFinalizationShare(fs); added {
			e.logArtifact(fs)
		}
		if k > e.finalSeen {
			e.emit(fs)
		}
		if e.cfg.Hooks.OnFinalizationShare != nil {
			e.cfg.Hooks.OnFinalizationShare(k, now)
		}
	}
	if !e.replaying && e.cfg.Hooks.OnFinishRound != nil {
		e.cfg.Hooks.OnFinishRound(k, now)
	}
	e.adaptDelays()
	e.round = k + 1
	e.resetRoundState()
	e.waitSince = now
	e.touchResync(now)
	return true
}

// adaptDelays implements the adaptive-Δbnd variant: double the working
// delay bound after every window of finished-but-unfinalized rounds,
// reset once finalization resumes (§1 "the ICC protocols can be modified
// to adaptively adjust to an unknown communication-delay bound").
func (e *Engine) adaptDelays() {
	if !e.cfg.Adaptive {
		return
	}
	if e.kmax > e.lastFinal {
		e.lastFinal = e.kmax
		e.unfinalized = 0
		e.adaptPow = 0
		return
	}
	e.unfinalized++
	if e.unfinalized >= 2 && e.adaptPow < adaptiveMax {
		e.adaptPow++
		e.unfinalized = 0
	}
}

// tryPropose implements clause (b) of Fig. 1. Suppressed during replay:
// the pre-crash proposal, if any, re-enters the pool from the WAL, and
// proposing a second, different block for the same round would be
// equivocation.
func (e *Engine) tryPropose(now time.Duration) bool {
	if e.replaying || e.proposed || now < e.t0+e.propDelay(e.myRank) {
		return false
	}
	k := e.round
	parentHash, ok := e.pool.NotarizedInRound(k - 1)
	if !ok {
		return false // cannot happen: round k−1 finished with one
	}
	payload := e.cfg.Payload.GetPayload(k, e.pool.Block(parentHash), e.pool.Block)
	cut := now - e.t0
	b := &types.Block{Round: k, Proposer: e.cfg.Self, ParentHash: parentHash, Payload: payload, Cut: cut}
	h := b.Hash()
	auth := &types.Authenticator{
		Round: k, Proposer: e.cfg.Self, BlockHash: h,
		Sig: sig.Sign(e.cfg.Priv.Auth, types.DomainAuthenticator, types.SigningBytes(k, e.cfg.Self, h)),
	}
	if e.pool.AddBlock(b) {
		e.logArtifact(&types.BlockMsg{Block: b})
	}
	if added, _ := e.pool.AddAuthenticator(auth); added {
		e.logArtifact(auth)
	}
	bundle := &types.Bundle{Messages: []types.Message{&types.BlockMsg{Block: b}, auth}}
	if nz := e.pool.Notarization(parentHash); nz != nil {
		bundle.Messages = append(bundle.Messages, nz)
	}
	e.emit(bundle)
	e.proposed = true
	if e.cfg.Hooks.OnPropose != nil {
		e.cfg.Hooks.OnPropose(k, cut, now)
	}
	return true
}

// candidate is a valid round-k block awaiting clause (c) treatment.
type candidate struct {
	h    hash.Digest
	rank types.Rank
}

// candidates lists the valid blocks of the current round with their
// proposer ranks, sorted by rank.
func (e *Engine) candidates() []candidate {
	var cs []candidate
	for _, h := range e.pool.BlocksInRound(e.round) {
		if !e.pool.IsValid(h) {
			continue
		}
		b := e.pool.Block(h)
		r, ok := e.rankOf[b.Proposer]
		if !ok {
			continue
		}
		cs = append(cs, candidate{h: h, rank: r})
	}
	sort.Slice(cs, func(i, j int) bool {
		if cs[i].rank != cs[j].rank {
			return cs[i].rank < cs[j].rank
		}
		// Equivocating proposers: deterministic order by hash.
		for b := 0; b < hash.Size; b++ {
			if cs[i].h[b] != cs[j].h[b] {
				return cs[i].h[b] < cs[j].h[b]
			}
		}
		return false
	})
	return cs
}

// blocked reports whether a valid round-k block of lower rank, not
// disqualified, keeps clause (c) from acting on c: "there is no valid
// round-k block B* of rank r* ∈ [r] \ D". cs is sorted by rank.
func (e *Engine) blocked(cs []candidate, c candidate) bool {
	for _, other := range cs {
		if other.rank >= c.rank {
			return false
		}
		if !e.disq[other.rank] {
			return true
		}
	}
	return false
}

// tryEchoNotarize implements clause (c) of Fig. 1: echo qualifying
// blocks and either notarization-share them or disqualify their rank.
// Suppressed during replay: pre-crash shares re-enter from the WAL, and
// rankShared/notarized are rebuilt from them afterwards
// (rebuildRoundFlags) — signing fresh shares here could put two blocks
// of one rank into N, which the pre-crash process may not have done.
func (e *Engine) tryEchoNotarize(now time.Duration) bool {
	if e.replaying {
		return false
	}
	cs := e.candidates()
	e.noteLag(cs, now)
	moved := false
	for _, c := range cs {
		if e.notarized[c.h] || e.disq[c.rank] {
			continue
		}
		if e.blocked(cs, c) {
			continue
		}
		due := e.t0 + e.dntry(c.rank)
		if now < due {
			e.waited[c.h] = true
			continue
		}
		b := e.pool.Block(c.h)
		// Echo the block (not our own proposal — we broadcast that when
		// proposing).
		if c.rank != e.myRank && !e.echoed[c.h] {
			e.echoed[c.h] = true
			bundle := &types.Bundle{Messages: []types.Message{
				&types.BlockMsg{Block: b},
				e.pool.Authenticator(c.h),
			}}
			if nz := e.pool.Notarization(b.ParentHash); nz != nil {
				bundle.Messages = append(bundle.Messages, nz)
			}
			// The echo exists so that every honest party gets the block;
			// its proposer has it.
			e.out = append(e.out, engine.BroadcastExcept(b.Proposer, bundle))
		}
		if e.rankShared[c.rank] {
			// Second distinct block of this rank: the proposer
			// equivocated — disqualify the rank.
			e.disq[c.rank] = true
			if e.cfg.Hooks.OnRankDisqualified != nil {
				e.cfg.Hooks.OnRankDisqualified(e.round, c.rank, now)
			}
		} else {
			e.notarized[c.h] = true
			e.rankShared[c.rank] = true
			msg := types.SigningBytes(e.round, b.Proposer, c.h)
			ns := &types.NotarizationShare{
				Round: e.round, Proposer: b.Proposer, BlockHash: c.h, Signer: e.cfg.Self,
				Sig: e.cfg.Priv.Notary.Sign(types.DomainNotarization, msg).Signature,
			}
			if added, _ := e.pool.AddNotarizationShare(ns); added {
				e.logArtifact(ns)
			}
			e.emit(ns)
			if e.cfg.Hooks.OnNotarizationShare != nil {
				var late time.Duration // 0 when Δntry, not the block, gated the share
				if !e.waited[c.h] {
					late = now - due
				}
				e.cfg.Hooks.OnNotarizationShare(e.round, late, now)
			}
		}
		moved = true
	}
	return moved
}

// runFinalizer implements Fig. 2: whenever a round above kmax has a
// finalized block (or a full set of finalization shares for a valid
// block), broadcast the finalization and output the chain suffix.
func (e *Engine) runFinalizer(now time.Duration) bool {
	for _, k := range e.pool.DirtyFinalizableRounds() {
		if k > e.kmax {
			e.pending[k] = struct{}{}
		}
	}
	if len(e.pending) == 0 {
		return false
	}
	rounds := make([]types.Round, 0, len(e.pending))
	for k := range e.pending {
		rounds = append(rounds, k)
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	moved := false
	for _, k := range rounds {
		if k <= e.kmax {
			delete(e.pending, k)
			continue
		}
		if e.tryCommitRound(k, now) {
			delete(e.pending, k)
			moved = true
		}
	}
	return moved
}

// tryCommitRound attempts Fig. 2's body for one round.
func (e *Engine) tryCommitRound(k types.Round, now time.Duration) bool {
	for _, h := range e.pool.FinalCandidateBlocks(k) {
		finalized := e.pool.IsFinalized(h)
		if !finalized {
			if !e.pool.IsValid(h) {
				continue
			}
			agg, ready := e.pool.FinalAggregateIfReady(h)
			if !ready {
				continue
			}
			b := e.pool.Block(h)
			fin := &types.Finalization{Round: k, Proposer: b.Proposer, BlockHash: h, Agg: agg.Encode()}
			if added, _ := e.pool.AddFinalization(fin); !added {
				continue
			}
			e.logArtifact(fin)
			if k > e.finalSeen {
				e.finalSeen = k
			}
		}
		// Broadcast the finalization and output the last k − kmax blocks
		// of the chain ending at B.
		chain := e.pool.Chain(h, e.kmax)
		if chain == nil {
			return false // ancestors missing; retry when they arrive
		}
		e.emit(e.pool.Finalization(h))
		for _, b := range chain {
			// OnCommit runs even during replay: it is how the application
			// state machine is rebuilt to the pre-crash frontier.
			if e.cfg.Hooks.OnCommit != nil {
				e.cfg.Hooks.OnCommit(b, now)
			}
			e.kmax = b.Round
			e.maybeCheckpoint(b, now)
		}
		e.kmax = k
		e.lastFinalHash = h
		e.maybePrune()
		return true
	}
	return false
}

// maybePrune applies PruneDepth-based garbage collection.
func (e *Engine) maybePrune() {
	if e.cfg.PruneDepth <= 0 || e.kmax <= e.cfg.PruneDepth {
		return
	}
	cut := e.kmax - e.cfg.PruneDepth
	e.pool.Prune(cut)
	e.cfg.Beacon.Prune(cut)
}

// NextWake implements engine.Engine: the earliest Δprop/Δntry boundary
// that could newly enable clause (b) or (c), the instant the stream
// turns to rank 1 while the rank-0 block is missing (overdueAt), or
// beaconAt while precomputeBeacon has work. A
// boundary already passed whose clause has not run is due now: the tick for it can lose the race
// against a message that never reaches the engine (an overlay's adverts
// and requests), and the caller then asks again with a later now.
func (e *Engine) NextWake(now time.Duration) (time.Duration, bool) {
	var earliest time.Duration
	have := false
	consider := func(t time.Duration) {
		if t <= now {
			return
		}
		if !have || t < earliest {
			earliest, have = t, true
		}
	}
	// The resync deadline applies even outside a round: a party stuck
	// waiting for beacon shares that were lost in transit can only
	// recover by speaking up.
	if e.resyncAt <= now {
		consider(now + 1)
	} else {
		consider(e.resyncAt)
	}
	if !e.inRound {
		return earliest, have // otherwise waiting on messages only
	}
	if e.beaconDue() {
		// Only while beaconAt is ahead: a Reveal that keeps failing (junk
		// shares) must not turn a passed instant into a tick per
		// nanosecond. A tick at the instant that finds output queued
		// leaves the work to the next event.
		consider(e.beaconAt())
	}
	if !e.proposed {
		consider(max(e.t0+e.propDelay(e.myRank), now+1))
	}
	cs := e.candidates()
	if e.delegate != nil && !e.replaying && (len(cs) == 0 || cs[0].rank > 0) {
		consider(e.overdueAt())
	}
	for _, c := range cs {
		if e.notarized[c.h] || e.disq[c.rank] || e.blocked(cs, c) {
			continue
		}
		consider(max(e.t0+e.dntry(c.rank), now+1))
	}
	return earliest, have
}
