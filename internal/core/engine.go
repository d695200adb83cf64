package core

import (
	"sort"
	"time"

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

	// Finalization Subprotocol state.
	kmax    types.Round // highest finalized round output so far
	pending map[types.Round]struct{}

	// Δprop and Δntry of Fig. 1: eq. (2) over cfg.DeltaBound and cfg.Epsilon.
	delayProp, delayNtry types.DelayFunc

	// Adaptive-delay state.
	adaptPow    int
	lastFinal   types.Round // kmax at the last adaptation check
	unfinalized int         // consecutive finished rounds without commit progress

	// waitSince marks when the party started waiting for the current
	// round's beacon (instrumentation: OnBeaconRecovered timings).
	waitSince time.Duration

	// Resynchronisation state (resync.go, catchup.go).
	resyncAt      time.Duration // next time a stalled round triggers a Status
	statusSeq     uint64        // distinguishes successive Status emissions
	finalSeen     types.Round   // highest round with a finalization in the pool
	lastFinalHash hash.Digest   // block hash at kmax (zero until first commit)
	catchup       *Catchup      // answers lagging peers' Status messages

	// Durability state (checkpointing.go, recover.go).
	replaying bool // WAL replay in progress: suppress new signatures and sends
	lost      bool // behind the prune horizon with no checkpoint path (resync.go)
	ckpts     map[types.Round]*pendingCheckpoint
	ckptPub   aggsig.Scheme // S_final keys at t+1 under DomainCheckpoint

	// Delegated payloads (delegate.go): the payload source's merging half,
	// nil when it has none, and the latest offer held per sender.
	delegate DelegatedPayloadSource
	offers   []*types.PayloadOffer

	out []engine.Output
}

var _ engine.Engine = (*Engine)(nil)

// NewEngine builds an ICC0 engine from a config.
func NewEngine(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	e := &Engine{
		cfg:     cfg,
		pool:    pool.New(cfg.Keys, cfg.Self, cfg.Pool),
		round:   1,
		pending: make(map[types.Round]struct{}),
		catchup: newCatchup(cfg),
		ckpts:   make(map[types.Round]*pendingCheckpoint),
		ckptPub: checkpoint.PublicInfo(cfg.Keys),
		offers:  make([]*types.PayloadOffer, cfg.Keys.N),
	}
	e.delayProp, e.delayNtry = types.StandardDelays(cfg.DeltaBound, cfg.Epsilon)
	e.delegate, _ = cfg.Payload.(DelegatedPayloadSource)
	e.resetRoundState()
	return e
}

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
	e.perm = nil
	e.rankOf = nil
}

// dprop and dntry apply the adaptive multiplier, if enabled.
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
	return e.drain()
}

// HandleMessage implements engine.Engine.
func (e *Engine) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	e.ingest(from, m, now)
	e.progress(now)
	return e.drain()
}

// Tick implements engine.Engine. Ticks additionally flush the WAL even
// when no output is due, bounding how long an admitted-but-unsynced
// artifact can linger in the group-commit buffer.
func (e *Engine) Tick(now time.Duration) []engine.Output {
	e.maybeResync(now)
	e.progress(now)
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
		if e.cfg.MaxPayload > 0 && len(v.Block.Payload) > e.cfg.MaxPayload {
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
		e.acceptOffer(from, v, now)
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
	e.precomputeBeacon()
}

// precomputeBeacon takes the next round's beacon arithmetic off the
// critical path. Parties broadcast their share of R_{k+1} on entering
// round k (Fig. 1) precisely so that R_{k+1} is ready when round k ends,
// so the quorum is normally here long before the round's notarization.
// Once round k has nothing left to do, nothing waiting to be sent and
// round k−1 committed, combine R_{k+1} now, and sign this party's share
// of R_{k+2} into the beacon's own-share cache: tryEnterRound(k+1) then
// finds both done and costs two lookups, where it used to hold the queued
// notarization and finalization share back behind a combine and a
// signature.
//
// Only the timing of local arithmetic changes. R_{k+1} is fixed, and
// computable by anyone, once t+1 of its shares are public, so combining it
// early reveals nothing; the pre-signed share is local state that nothing
// sends before broadcastBeaconShare(k+2) on entering round k+1 — the
// paper's release point — because every sending path (stall bundle,
// catch-up reply, backfill) stops at shares for round e.round+1. If the
// shares come late, tryEnterRound does the work as before.
func (e *Engine) precomputeBeacon() {
	if !e.inRound || e.replaying || len(e.out) > 0 {
		return
	}
	if e.kmax+1 < e.round {
		// Round k−1 is not committed yet: its finalization shares are in
		// flight right now, and everything computed here would stand
		// between their arrival and the commit (measured: commit spread
		// 5 → 13 ms without this test). Wait for the commit; should it not
		// come this round, tryEnterRound does the work as it always did.
		return
	}
	next := e.round + 1
	b := e.cfg.Beacon
	if b.Have(next) || b.ShareCount(next) < types.BeaconQuorum(e.cfg.Keys.N) {
		return
	}
	if _, ok := b.Reveal(next); ok {
		// The error (round pruned) would recur in tryEnterRound, which
		// reports nothing either: a share we cannot sign is not sent.
		_, _ = b.ShareForRound(next + 1)
	}
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
	e.dropOffers(k)
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
	if e.replaying || e.proposed || now < e.t0+e.dprop(e.myRank) {
		return false
	}
	k := e.round
	parentHash, ok := e.pool.NotarizedInRound(k - 1)
	if !ok {
		return false // cannot happen: round k−1 finished with one
	}
	parent := e.pool.Block(parentHash)
	var payload []byte
	if e.delegate != nil {
		payload = e.delegate.GetPayloadWith(k, parent, e.pool.Block, e.delegatedFor(k, parentHash, now))
	} else {
		payload = e.cfg.Payload.GetPayload(k, parent, e.pool.Block)
	}
	b := &types.Block{Round: k, Proposer: e.cfg.Self, ParentHash: parentHash, Payload: payload}
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
		e.cfg.Hooks.OnPropose(k, now)
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
	moved := false
	for _, c := range cs {
		if e.notarized[c.h] || e.disq[c.rank] {
			continue
		}
		if now < e.t0+e.dntry(c.rank) {
			continue
		}
		// "there is no valid round-k block B* of rank r* ∈ [r] \ D"
		blocked := false
		for _, other := range cs {
			if other.rank >= c.rank {
				break
			}
			if !e.disq[other.rank] {
				blocked = true
				break
			}
		}
		if blocked {
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
			// Ahead of the share: the share may be the one that lets the
			// next leader finish this round and propose.
			e.offerPayload(b, c.h, now)
			e.emit(ns)
			if e.cfg.Hooks.OnNotarizationShare != nil {
				e.cfg.Hooks.OnNotarizationShare(e.round, now)
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

// NextWake implements engine.Engine: the earliest future Δprop/Δntry
// boundary that could newly enable clause (b) or (c).
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
	if e.cfg.ResyncInterval > 0 {
		// The resync deadline applies even outside a round: a party
		// stuck waiting for beacon shares that were lost in transit can
		// only recover by speaking up.
		if e.resyncAt <= now {
			consider(now + 1)
		} else {
			consider(e.resyncAt)
		}
	}
	if !e.inRound {
		return earliest, have // otherwise waiting on messages only
	}
	if !e.proposed {
		consider(e.t0 + e.dprop(e.myRank))
	}
	for _, c := range e.candidates() {
		if e.notarized[c.h] || e.disq[c.rank] {
			continue
		}
		consider(e.t0 + e.dntry(c.rank))
	}
	return earliest, have
}
