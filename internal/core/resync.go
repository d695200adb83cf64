package core

import (
	"fmt"
	"math"
	"time"

	"icc/internal/engine"
	"icc/internal/types"
)

// Resynchronisation layer. The ICC protocol as written is quiescent:
// every artifact is broadcast exactly once, which suffices under the
// paper's eventual-delivery assumption (§1) but deadlocks the moment a
// message is genuinely lost — a TCP partition black-holes frames, a
// crashed-and-recovered process has a hole in its pool, a chaos wrapper
// drops packets. Recovery here is by pull, and it never touches safety:
// every artifact sent carries its original signatures and re-enters the
// receiver's pool through the ordinary verification paths.
//
//   - Stall: when the engine's round has not changed for
//     resyncDeltas·Δbnd + ε, it sends every peer a Status — its round,
//     its finalization frontier, and in Have the refs of every artifact
//     it holds for its round — together with its own beacon shares for
//     the round and, inside the round, the next one. Those shares are
//     the only thing it sends unasked: no one else can produce them.
//
//   - Answer: handleStatus is the one answer to a Status, whatever the
//     distance. A peer ahead of us gets nothing; one behind our prune
//     horizon gets the latest certified checkpoint (checkpointing.go);
//     one or more rounds behind, a batch of notarized blocks from its
//     round on (catchup.go); in our round, that round's artifacts minus
//     its Have. One per-peer limiter covers every case, charged only
//     when something is sent; a checkpoint charges it only for the
//     rounds up to the checkpoint, and the party that installs one asks
//     at once for the rounds above. Comparing a Have against the round
//     costs a map lookup an artifact: roundRef hashes each artifact
//     once a round, however often a peer repeats its Status. Two halves
//     of a healed partition unwedge each other this way within one
//     interval: each half's Status pulls what the other holds.
//
// Everything travels as unicast Resync-marked bundles, which the ICC1
// overlay hands straight to its engine, neither deduplicated nor
// relayed: they are for the party they were sent to.

// touchResync records protocol progress: the stall timer restarts.
func (e *Engine) touchResync(now time.Duration) {
	e.resyncAt = now + e.resyncInterval
}

// ResyncLostError reports an unrecoverable lag: the gap to the
// cluster's finalization frontier exceeds the artifact retention
// horizon and no checkpoint path is configured, so Status polling can
// never close it. The only ways forward are a checkpoint transfer
// (configure CheckpointInterval cluster-wide) or re-seeding the node.
type ResyncLostError struct {
	Round      types.Round // the node's stuck working round
	Frontier   types.Round // highest finalized round observed in the cluster
	PruneDepth types.Round // the retention horizon that was exceeded
}

func (e *ResyncLostError) Error() string {
	return fmt.Sprintf("resync lost: round %d is %d behind the finalized frontier %d, beyond the prune horizon %d with no checkpoint path",
		e.Round, e.Frontier-e.Round, e.Frontier, e.PruneDepth)
}

// ResyncLost returns a *ResyncLostError when the engine has detected an
// unrecoverable lag, nil otherwise. Surfaced by node status endpoints.
func (e *Engine) ResyncLost() error {
	if !e.lost {
		return nil
	}
	return &ResyncLostError{Round: e.round, Frontier: e.finalSeen, PruneDepth: e.cfg.PruneDepth}
}

// maybeResync fires the stall handler when the round has been stuck for
// a full interval.
func (e *Engine) maybeResync(now time.Duration) {
	if now < e.resyncAt {
		return
	}
	e.resyncAt = now + e.resyncInterval
	// Behind-prune-horizon detection: once the gap to the cluster's
	// finalization frontier exceeds PruneDepth, every peer has pruned the
	// artifacts we need, and without a checkpoint path the Status poll
	// below degenerates into an infinite no-op loop. Flag it once and go
	// quiet instead. With checkpointing configured the poll stays on —
	// the same Status now solicits a checkpoint transfer.
	if e.cfg.PruneDepth > 0 && e.finalSeen > e.round+e.cfg.PruneDepth && e.cfg.CheckpointInterval <= 0 {
		if !e.lost {
			e.lost = true
			if e.cfg.Hooks.OnResyncLost != nil {
				e.cfg.Hooks.OnResyncLost(e.finalSeen-e.round, now)
			}
		}
		return
	}
	e.lost = false
	e.statusSeq++
	st := e.Status()
	st.Seq = e.statusSeq
	msgs := []types.Message{st}
	// Our beacon shares for the current round and (once the round's own
	// beacon is known) the next — the pipelined share of tryEnterRound
	// may have been lost.
	if sh, err := e.cfg.Beacon.ShareForRound(e.round); err == nil {
		msgs = append(msgs, sh)
	}
	if e.inRound {
		if sh, err := e.cfg.Beacon.ShareForRound(e.round + 1); err == nil {
			msgs = append(msgs, sh)
		}
	}
	// Resync marks the bundle for the receivers' verify-pipeline
	// priority lane: recovery traffic must not queue behind the live
	// firehose.
	bundle := &types.Bundle{Messages: msgs, Resync: true}
	for p := 0; p < e.cfg.Keys.N; p++ {
		if pid := types.PartyID(p); pid != e.cfg.Self {
			e.out = append(e.out, engine.Unicast(pid, bundle))
		}
	}
	if e.cfg.Hooks.OnResync != nil {
		e.cfg.Hooks.OnResync(e.round, now)
	}
}

// Status is what this party says when its round stalls: its round, its
// finalization frontier, and in Have the ref of every artifact it holds
// for the round. Seq is left for the sender to set.
func (e *Engine) Status() *types.Status {
	// Report the finalization frontier capped below the working round.
	// After a jump-commit (tryCommitRound finalizing via a chain that
	// reaches past the round being replayed) kmax can exceed round; a
	// responder skips beacon shares for rounds ≤ Finalized (the laggard
	// traversed those beacons), and an uncapped report would starve the
	// beacon replay of the very shares it still needs. Round is uint64,
	// so the cap must clamp at zero: `e.round - 1` for a party stalled
	// before entering round 1 would wrap to 2^64−1 and make responders
	// skip every beacon share.
	fin := e.kmax
	if fin >= e.round {
		if e.round == 0 {
			fin = 0
		} else {
			fin = e.round - 1
		}
	}
	st := &types.Status{Round: e.round, Finalized: fin}
	e.forEachRoundArtifact(func(r types.Ref, _ types.Message) { st.Have = append(st.Have, r) })
	return st
}

// forEachRoundArtifact visits, with its ref, what the pool holds for
// the engine's round: each block with its authenticator, notarization,
// and notarization and finalization shares. A Status's Have and the
// same-round answer both read it, so what one names is what the other
// leaves out.
func (e *Engine) forEachRoundArtifact(visit func(types.Ref, types.Message)) {
	for _, h := range e.pool.BlocksInRound(e.round) {
		if b := e.pool.Block(h); b != nil {
			m := &types.BlockMsg{Block: b}
			visit(e.roundRef(b, m), m)
		}
		if a := e.pool.Authenticator(h); a != nil {
			visit(e.roundRef(a, a), a)
		}
		if nz := e.pool.Notarization(h); nz != nil {
			visit(e.roundRef(nz, nz), nz)
		}
		e.pool.ForEachNotarShareMessage(h, func(s *types.NotarizationShare) { visit(e.roundRef(s, s), s) })
		e.pool.ForEachFinalShareMessage(h, func(s *types.FinalizationShare) { visit(e.roundRef(s, s), s) })
	}
}

// roundRef is types.RefOf(m), memoised for the round under the pool
// object behind m. A block's ref hashes its whole encoding, payload
// and all, and a peer may repeat its Status as often as it likes: with
// the memo each artifact is hashed once a round, and comparing a Status
// against the round costs a map lookup an artifact. resetRoundState
// drops the memo.
func (e *Engine) roundRef(key any, m types.Message) types.Ref {
	if r, ok := e.roundRefs[key]; ok {
		return r
	}
	if e.roundRefs == nil {
		e.roundRefs = make(map[any]types.Ref)
	}
	r := types.RefOf(m)
	e.roundRefs[key] = r
	return r
}

// reply is the per-peer limiter's record of the last answer to a
// peer's Status: when it left, and the highest Status round it covers.
type reply struct {
	at     time.Duration
	covers types.Round
}

// handleStatus is the one answer to a peer's Status: nothing to a peer
// ahead of us, the latest checkpoint to one behind our prune horizon,
// notarized blocks from its round on to one behind us, and our round's
// artifacts minus its Have to one in our round. A peer that has learned
// our finalization frontier late also gets that finalization. The
// per-peer limiter allows one answer an interval — a Byzantine party
// repeating Status must not turn us into a bandwidth amplifier — and is
// charged only when something is sent, so a peer we could not help
// keeps its turn for when we can. A checkpoint covers only the rounds up
// to it: the peer's next Status, from the round above once it has
// installed it, is answered at once, so at most two answers leave an
// interval.
func (e *Engine) handleStatus(from types.PartyID, st *types.Status, now time.Duration) {
	if st.Round > e.round {
		return
	}
	if last, ok := e.repliedAt[from]; ok && now < last.at+e.resyncInterval && st.Round <= last.covers {
		return
	}
	if e.checkpointDue(st) {
		if k := e.serveCheckpoint(from, st, now); k > 0 {
			e.repliedAt[from] = reply{at: now, covers: k}
		}
		return
	}
	var msgs []types.Message
	deferred := false
	if st.Round < e.round {
		msgs, deferred = e.catchupBatch(from, st, now)
	} else {
		have := make(map[types.Ref]bool, len(st.Have))
		for _, r := range st.Have {
			have[r] = true
		}
		e.forEachRoundArtifact(func(r types.Ref, m types.Message) {
			if !have[r] {
				msgs = append(msgs, m)
			}
		})
	}
	if st.Finalized < e.kmax {
		if f := e.pool.Finalization(e.lastFinalHash); f != nil {
			msgs = append(msgs, f)
		}
	}
	if len(msgs) > 0 {
		// Resync marks the bundle for the peer's verify-pipeline priority
		// lane and its chain-aware batch verification.
		e.out = append(e.out, engine.Unicast(from, &types.Bundle{Messages: msgs, Resync: true}))
	}
	if len(msgs) > 0 || deferred {
		e.repliedAt[from] = reply{at: now, covers: math.MaxUint64}
	}
}
