package core

import (
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
// wait is not inherent. When P casts its notarization share for a round-k
// block B it already knows, in the normal case, who leads round k+1
// (precomputeBeacon), and that leader will most likely propose on B. So P
// computes the payload it would itself propose on B and sends it to that
// leader, ahead of the share; the leader merges what arrived in time into
// its own payload. A command then rides the next block, whoever cuts it.
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
// Notarization, finalization, the beacon and the WAL never see an offer:
// it is unsigned, unlogged, kept only until its round has passed (one per
// sender, at most MaxPayload bytes each) and never sent during replay. A
// Byzantine sender can at most fill part of one block with commands of
// its choosing, which a Byzantine leader can do with a whole block today.

// offerPayload runs where the notarization share for b (hash h, current
// round) is cast: rule 1 above. Nothing is sent when the next leader is
// not known yet (never Reveal for it: that is precomputeBeacon's call, at
// a time of its choosing), when it is this party, or when there is
// nothing to propose.
func (e *Engine) offerPayload(b *types.Block, h hash.Digest, now time.Duration) {
	if e.delegate == nil {
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
	e.out = append(e.out, engine.Unicast(leader, &types.PayloadOffer{Round: next, ParentHash: h, Payload: payload}))
	e.noteOffer(leader, next, len(payload), OfferSent, now)
}

// acceptOffer keeps a received offer until this party proposes in its
// round: the latest one per sender, so a sender holds one slot however
// much it sends.
func (e *Engine) acceptOffer(from types.PartyID, o *types.PayloadOffer, now time.Duration) {
	if e.delegate == nil {
		return
	}
	switch {
	case from < 0 || int(from) >= len(e.offers) || from == e.cfg.Self,
		e.cfg.MaxPayload > 0 && len(o.Payload) > e.cfg.MaxPayload:
		e.noteOffer(from, o.Round, len(o.Payload), OfferRefused, now)
	case o.Round < e.round || (o.Round == e.round && e.proposed):
		e.noteOffer(from, o.Round, len(o.Payload), OfferLate, now)
	default:
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

// dropOffers forgets the offers for rounds up to k, which is finished:
// those a sender addressed to a round this party did not propose in.
func (e *Engine) dropOffers(k types.Round) {
	for i, o := range e.offers {
		if o != nil && o.Round <= k {
			e.offers[i] = nil
		}
	}
}

func (e *Engine) noteOffer(peer types.PartyID, k types.Round, payloadBytes int, outcome string, now time.Duration) {
	if e.cfg.Hooks.OnPayloadOffer != nil {
		e.cfg.Hooks.OnPayloadOffer(peer, k, payloadBytes, outcome, now)
	}
}
