package core

import (
	"time"

	"icc/internal/engine"
	"icc/internal/types"
)

// Delegated payloads: getPayload(B_p) answered with every party's
// commands, not only the proposer's (DESIGN.md §19).
//
// Fig. 1 leaves the payload to the application, and a per-party command
// queue answers it with "what this party holds", so a command admitted at
// party P waits until the beacon ranks P first: n rounds on average. The
// wait is not inherent. At the end of every turn P hands each party that
// may cut the next block the commands of P's it lacks — one stream, each
// command sent to each such party once:
//
//   - round k's rank-0 party, while its block has not arrived, until
//     Δntry(0): the latest any honest party's measured cut can fall (a
//     sender cannot know the leader's); a forward that lands after the
//     cut is held for the leader's next payload;
//   - round k's rank-1 party, from the standard Δprop(0)+Δbnd (the
//     rank-0 block is overdue: its proposer may be silent) until rank 1's
//     own cut at Δprop(1), while no rank-0 block has arrived;
//   - Leader(k+1), once P knows it and holds a round-k block, leaving out
//     what that block's chain carries.
//
// The receiver holds what it was sent until it is committed and draws it
// into its own payloads after its own commands. Nothing binds a forward
// to a parent: the receiver's payload source admits a client's command
// only when the client's previous one is committed, in the chain it
// extends, or earlier in the same payload (statemachine.Queue.GetPayload),
// so a lost or late forward delays its client's later commands and never
// lets them overtake it.
//
// Notarization, finalization, the beacon and the WAL never see a
// forward: it is unsigned, unlogged and never sent during replay, and a
// receiver holds at most one payload's worth per sender. A Byzantine
// sender can at most fill part of a block with commands of its choosing,
// which a Byzantine leader can do with a whole block.

// stream is the end of every turn: it forwards to each party that may cut
// the next block (above) the commands it has not been sent yet. The
// forwards go ahead of the turn's other outputs, so one leaves before a
// share that may let its addressee finish the round and cut.
func (e *Engine) stream(now time.Duration) {
	if e.delegate == nil {
		return
	}
	e.delegate.Settle(func(from types.PartyID, merged, expired int) {
		e.noteOffer(from, merged, OfferMerged, now)
		e.noteOffer(from, expired, OfferExpired, now)
	})
	if e.replaying || !e.inRound || e.round <= e.finalSeen {
		return // nothing to forward in replay, or in rounds the cluster has finalized
	}
	var fwd []engine.Output
	send := func(to types.PartyID, parent *types.Block) {
		if to == e.cfg.Self {
			return
		}
		payload, cmds := e.delegate.Forward(to, parent, e.pool.Block)
		if cmds == 0 {
			return
		}
		fwd = append(fwd, engine.Unicast(to, &types.PayloadOffer{Round: e.round, Payload: payload}))
		e.noteOffer(to, cmds, OfferSent, now)
	}
	cs := e.candidates()
	if rank0 := len(cs) > 0 && cs[0].rank == 0; !rank0 {
		parentHash, _ := e.pool.NotarizedInRound(e.round - 1)
		parent := e.pool.Block(parentHash)
		if now < e.t0+e.dntry(0) {
			send(e.perm[0], parent)
		}
		if len(e.perm) > 1 && now >= e.overdueAt() && now < e.t0+e.dprop(1) {
			send(e.perm[1], parent)
		}
	}
	if len(cs) > 0 {
		if next, ok := e.cfg.Beacon.Leader(e.round + 1); ok {
			send(next, e.pool.Block(cs[0].h))
		}
	}
	if len(fwd) > 0 {
		e.out = append(fwd, e.out...)
	}
}

// overdueAt is when round k's rank-0 block is overdue, Δbnd after the
// standard Δprop(0): from then until Δprop(1) the stream also feeds rank 1.
func (e *Engine) overdueAt() time.Duration { return e.t0 + e.dprop(0) + e.cfg.DeltaBound }

// holdOffer hands a received forward to the payload source, which keeps
// it for this party's payloads until committed. A forward from no other
// party of this cluster, or longer than a payload, is refused whole and
// counts as one command.
func (e *Engine) holdOffer(from types.PartyID, o *types.PayloadOffer, now time.Duration) {
	if e.delegate == nil {
		return
	}
	if from < 0 || int(from) >= e.cfg.Keys.N || from == e.cfg.Self || len(o.Payload) > e.maxPayload {
		e.noteOffer(from, 1, OfferRefused, now)
		return
	}
	held, refused := e.delegate.Hold(from, o.Payload)
	e.noteOffer(from, held, OfferHeld, now)
	e.noteOffer(from, refused, OfferRefused, now)
}

func (e *Engine) noteOffer(peer types.PartyID, cmds int, outcome string, now time.Duration) {
	if cmds > 0 && e.cfg.Hooks.OnPayloadOffer != nil {
		e.cfg.Hooks.OnPayloadOffer(peer, e.round, cmds, outcome, now)
	}
}
