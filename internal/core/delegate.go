package core

import (
	"bytes"
	"time"

	"icc/internal/crypto/hash"
	"icc/internal/engine"
	"icc/internal/types"
)

// Delegated payloads: getPayload(B_p) answered by every party, for the
// party that will propose.
//
// Fig. 1 leaves the payload to the application, and a per-party command
// queue answers it with "what this party holds", so a command admitted at
// party P waits until the beacon ranks P first: n rounds on average. The
// wait is not inherent. Once round k has a block B that P would share next
// and a notarization share for B has reached P, P knows, in the normal
// case, who leads round k+1 (precomputeBeacon), and that leader will most
// likely propose on B once B's notarization completes. So P computes the
// payload it would itself propose on B and sends it to that leader: on
// that first share from another party if P still waits out Δntry for B
// (it may see B notarized, and leave the round, before its own timer
// fires), else just ahead of its own share. The leader merges what arrived
// by the time it cuts its block, Δprop(0) = ε/2 after it entered round k+1
// (types.StandardDelays). A command then rides the next block, whoever
// cuts it.
//
// That early offer is cut about ε before the leader's cut, and a command
// admitted in between would wait a whole extra round. So once in round
// k+1, halfway to the leader's cut (Δprop(0)/2 after entering the round),
// P cuts getPayload on the block it finished round k on again and sends
// the leader the new cut if it holds something the earlier one did not:
// the refresh. The leader keeps the latest offer per sender, so the
// refresh takes the early offer's place; if it arrives after the cut, the
// early offer has already been merged. P refreshes only on the parent of
// its earlier round-(k+1) offers, so a refresh never evicts an offer cut
// on the block the leader may build on in favour of one it may not.
//
// Two rules keep this to a change of payload content and nothing else:
//
//  1. An offer is exactly getPayload(k+1, B): what an honest P would put
//     in a block of its own on B.
//  2. The leader uses an offer only when it proposes on that same B. A
//     payload cut against another chain may omit a command that is in
//     that chain but not in this one, and a replica applying a client's
//     later command before the omitted one would skip the earlier one
//     for good (per-client sequence watermark).
//
// Neither rule asks that P has shared B itself: an offer cut on another
// party's share is still getPayload on B, and one on a block P ends up not
// sharing is dropped by rule 2 at a leader that builds on another, while P
// offers again on the block it does share.
//
// Notarization, finalization, the beacon and the WAL never see an offer:
// it is unsigned, unlogged, kept only until its round has passed (one per
// sender, at most types.MaxPayloadBytes each) and never cut or sent during
// replay. A Byzantine sender can at most fill part of one block with
// commands of its choosing, which a Byzantine leader can do with a whole
// block today.

// offerPayload runs for the block b (hash h, current round) this party
// shares next: when another party's notarization share for b reaches it
// while it still waits out Δntry, or else where it casts its own. It is
// rule 1 above, at most once per block. Nothing is sent when the next
// leader is not known yet (never Reveal for it: that is precomputeBeacon's
// call, at a time of its choosing), when it is this party, or when there
// is nothing to propose; a later call tries again.
func (e *Engine) offerPayload(b *types.Block, h hash.Digest, now time.Duration) {
	if _, done := e.offered[h]; e.delegate == nil || done {
		return
	}
	next := e.round + 1
	leader, ok := e.cfg.Beacon.Leader(next)
	if !ok || leader == e.cfg.Self {
		return
	}
	payload := e.delegate.GetPayload(next, b, e.pool.Block)
	if len(payload) == 0 {
		return
	}
	e.offered[h] = payload
	e.sendOffer(leader, &types.PayloadOffer{Round: next, ParentHash: h, Payload: payload}, now)
}

// refreshOffer is the refresh of round k's offer, at refreshAt: this
// party's getPayload(k, B) again, for B the round-(k−1) block it finished
// on, sent to Leader(k) unless it is empty, equal to the offer already
// sent on B, or some round-k offer went out on another parent. One cut
// per round, sent or not.
func (e *Engine) refreshOffer(now time.Duration) {
	if !e.refreshPending() || now < e.refreshAt() {
		return
	}
	e.refreshed = true
	k := e.round
	parent, ok := e.pool.NotarizedInRound(k - 1)
	if !ok {
		return
	}
	for h := range e.offeredK {
		if h != parent {
			return
		}
	}
	payload := e.delegate.GetPayload(k, e.pool.Block(parent), e.pool.Block)
	if len(payload) == 0 || bytes.Equal(payload, e.offeredK[parent]) {
		return
	}
	e.sendOffer(e.perm[0], &types.PayloadOffer{Round: k, ParentHash: parent, Payload: payload}, now)
}

// refreshPending reports whether round k's refresh is still to come: not
// for the round's leader, never during replay, and not at all with
// Δprop(0) = 0, where the leader cuts its block on entering the round.
func (e *Engine) refreshPending() bool {
	return e.delegate != nil && e.inRound && !e.refreshed && !e.replaying &&
		e.perm[0] != e.cfg.Self && e.dprop(0) > 0
}

// refreshAt is the refresh instant: halfway between entering the round
// and the leader's cut.
func (e *Engine) refreshAt() time.Duration { return e.t0 + e.dprop(0)/2 }

func (e *Engine) sendOffer(leader types.PartyID, o *types.PayloadOffer, now time.Duration) {
	e.out = append(e.out, engine.Unicast(leader, o))
	e.noteOffer(leader, o.Round, len(o.Payload), OfferSent, now)
}

// acceptOffer keeps a received offer until this party proposes in its
// round: the latest one per sender, so a sender holds one slot however
// much it sends, and the one it replaces is reported superseded.
func (e *Engine) acceptOffer(from types.PartyID, o *types.PayloadOffer, now time.Duration) {
	if e.delegate == nil {
		return
	}
	switch {
	case from < 0 || int(from) >= len(e.offers) || from == e.cfg.Self,
		len(o.Payload) > e.maxPayload:
		e.noteOffer(from, o.Round, len(o.Payload), OfferRefused, now)
	case o.Round < e.round || (o.Round == e.round && e.proposed):
		e.noteOffer(from, o.Round, len(o.Payload), OfferLate, now)
	default:
		if old := e.offers[from]; old != nil {
			e.noteOffer(from, old.Round, len(old.Payload), OfferSuperseded, now)
		}
		e.offers[from] = o
	}
}

// delegatedFor returns the payloads offered for a round-k proposal on the
// block parent names — rule 2 above — starting with a sender that rotates
// with the round. Offers for round k cut against another block are
// reported and dropped.
func (e *Engine) delegatedFor(k types.Round, parent hash.Digest, now time.Duration) [][]byte {
	var delegated [][]byte
	n := len(e.offers)
	for i := 0; i < n; i++ {
		from := types.PartyID((uint64(k) + uint64(i)) % uint64(n))
		o := e.offers[from]
		if o == nil || o.Round != k {
			continue
		}
		e.offers[from] = nil
		if o.ParentHash != parent {
			e.noteOffer(from, k, len(o.Payload), OfferParentMismatch, now)
			continue
		}
		delegated = append(delegated, o.Payload)
		e.noteOffer(from, k, len(o.Payload), OfferMerged, now)
	}
	return delegated
}

// dropOffers forgets, as expired, the offers for rounds up to k, which is
// finished: those a sender addressed to a round this party did not
// propose in.
func (e *Engine) dropOffers(k types.Round, now time.Duration) {
	for i, o := range e.offers {
		if o != nil && o.Round <= k {
			e.offers[i] = nil
			e.noteOffer(types.PartyID(i), o.Round, len(o.Payload), OfferExpired, now)
		}
	}
}

func (e *Engine) noteOffer(peer types.PartyID, k types.Round, payloadBytes int, outcome string, now time.Duration) {
	if e.cfg.Hooks.OnPayloadOffer != nil {
		e.cfg.Hooks.OnPayloadOffer(peer, k, payloadBytes, outcome, now)
	}
}
