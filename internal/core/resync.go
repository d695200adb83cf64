package core

import (
	"fmt"
	"time"

	"icc/internal/crypto/hash"
	"icc/internal/engine"
	"icc/internal/types"
)

// Resynchronisation layer. The ICC protocol as written is quiescent:
// every artifact is broadcast exactly once, which suffices under the
// paper's eventual-delivery assumption (§1) but deadlocks the moment a
// message is genuinely lost — a TCP partition black-holes frames, a
// crashed-and-recovered process has a hole in its pool, a chaos wrapper
// drops packets. The protocol's only built-in redundancy is one round
// deep (a round-k proposal bundle carries the round-(k−1) notarization),
// so any deeper loss wedges the party, and with it potentially the whole
// cluster.
//
// The mechanism here restores liveness without touching safety (all
// retransmitted artifacts carry their original signatures and re-enter
// pools through the same verification paths):
//
//   - Stall detection: whenever the engine's round has not changed for
//     ResyncInterval, it sends every peer a Status (its round and
//     finalization frontier) bundled with the artifacts of its current
//     round — blocks, authenticators, notarization/finalization shares,
//     its own beacon shares, the previous round's notarized block, and
//     its latest finalization. Two halves of a healed partition unwedge
//     each other this way within one interval.
//
//   - Catch-up: a party receiving a Status from a peer that is more than
//     one round behind answers with a batch of up to resyncBatch (128) rounds
//     of notarized blocks (block + notarization + this party's own
//     beacon share per round) plus its latest finalization. The laggard
//     replays these through the ordinary clauses — a notarization in the
//     pool finishes a round instantly — and repeats its Status while it
//     remains behind, closing any gap batch by batch. Responses are
//     rate-limited per requesting peer to one per ResyncInterval.
//     Assembly is split (catchup.go): pool artifacts and cached beacon
//     shares go out inline; share rounds missing from the own-share
//     cache are enqueued to a CatchupProvider that signs them off the
//     engine loop and unicasts them separately (or, with no provider,
//     signed synchronously — the deterministic simnet/harness path).
//
// Everything travels as unicast bundles rather than broadcasts so that
// content-addressed dissemination layers (gossip's seen-set) cannot
// deduplicate the retransmission away.

// touchResync records protocol progress: the stall timer restarts.
func (e *Engine) touchResync(now time.Duration) {
	if e.cfg.ResyncInterval > 0 {
		e.resyncAt = now + e.cfg.ResyncInterval
	}
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
	if e.cfg.ResyncInterval <= 0 || now < e.resyncAt {
		return
	}
	e.resyncAt = now + e.cfg.ResyncInterval
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
	msgs := []types.Message{&types.Status{Round: e.round, Finalized: fin, Seq: e.statusSeq}}
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
	// The previous round's notarized block, for peers one round behind.
	if h, ok := e.pool.NotarizedInRound(e.round - 1); ok {
		if b := e.pool.Block(h); b != nil {
			msgs = append(msgs, &types.BlockMsg{Block: b})
		}
		if nz := e.pool.Notarization(h); nz != nil {
			msgs = append(msgs, nz)
		}
	}
	// Everything we hold for the current round.
	for _, h := range e.pool.BlocksInRound(e.round) {
		if b := e.pool.Block(h); b != nil {
			msgs = append(msgs, &types.BlockMsg{Block: b})
		}
		if a := e.pool.Authenticator(h); a != nil {
			msgs = append(msgs, a)
		}
		if nz := e.pool.Notarization(h); nz != nil {
			msgs = append(msgs, nz)
		}
		e.pool.ForEachNotarShareMessage(h, func(ns *types.NotarizationShare) {
			msgs = append(msgs, ns)
		})
		e.pool.ForEachFinalShareMessage(h, func(fs *types.FinalizationShare) {
			msgs = append(msgs, fs)
		})
	}
	// Our finalization frontier, so laggards learn what is settled.
	if e.lastFinalHash != (hash.Digest{}) {
		if f := e.pool.Finalization(e.lastFinalHash); f != nil {
			msgs = append(msgs, f)
		}
	}
	// Resync marks the bundle for the receivers' verify-pipeline
	// priority lane: stall re-broadcasts are recovery traffic and must
	// not queue behind the live firehose.
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

// handleStatus answers a lagging peer's Status with a catch-up batch.
// Peers stuck behind our prune horizon get the latest certified
// checkpoint instead (checkpointing.go) — the artifacts they need are
// gone from the pool. The heavy lifting lives in the Catchup component
// (catchup.go): the engine clause only assembles the cheap inline
// bundle; uncached beacon-share signing is deferred to the configured
// CatchupProvider.
func (e *Engine) handleStatus(from types.PartyID, st *types.Status, now time.Duration) {
	if e.maybeServeCheckpoint(from, st, now) {
		return
	}
	if bundle := e.catchup.Respond(e.pool, from, st, e.round, e.lastFinalHash, now); bundle != nil {
		e.out = append(e.out, engine.Unicast(from, bundle))
	}
}
