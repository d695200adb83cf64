package core

import (
	"time"

	"icc/internal/types"
)

// BackfillRequest names the beacon-share work a catch-up response could
// not answer from the own-share cache: sign this party's shares for the
// listed rounds and unicast them to Peer.
type BackfillRequest struct {
	Peer   types.PartyID
	Rounds []types.Round
}

// CatchupProvider completes catch-up bundles outside the engine clauses.
// EnqueueBackfill must never block: it returns false when the request is
// dropped (queue full, duplicate in flight, provider shut down), in
// which case the laggard simply re-asks at its next Status interval.
// The production implementation is internal/backfill's worker pool; the
// simnet/harness path leaves it nil and the engine signs synchronously,
// keeping single-threaded simulations deterministic.
type CatchupProvider interface {
	EnqueueBackfill(req BackfillRequest) bool
}

// catchupBatch is handleStatus's answer to a peer whose Status reports
// round st.Round, behind ours: up to resyncBatch rounds of notarized
// blocks from st.Round on, each with its authenticator and notarization,
// and this party's beacon share for every round the peer has not
// finalized, up to and including ours. Shares missing from the own-share
// cache go to the CatchupProvider, which signs them off the engine loop
// and unicasts them itself; deferred reports that it took some.
func (e *Engine) catchupBatch(from types.PartyID, st *types.Status, now time.Duration) (msgs []types.Message, deferred bool) {
	end := e.round
	if limit := st.Round + resyncBatch; end > limit {
		end = limit
	}
	var rounds []types.Round
	inlineShares := 0
	for k := st.Round; k <= end; k++ {
		// Our own beacon share for k lets the laggard accumulate the
		// t+1 distinct shares it needs to re-enter the round (every
		// responding peer contributes one). Rounds the laggard has
		// already finalized need no share: it traversed their beacons.
		if k > st.Finalized {
			if sh, ok := e.cfg.Beacon.CachedShareForRound(k); ok {
				msgs = append(msgs, sh)
				inlineShares++
			} else if e.cfg.Catchup != nil {
				rounds = append(rounds, k)
			} else if sh, err := e.cfg.Beacon.ShareForRound(k); err == nil {
				// Synchronous fallback: deterministic single-threaded
				// paths (simnet, harness) sign inline.
				msgs = append(msgs, sh)
				inlineShares++
			}
		}
		if k == end {
			break // shares only for the boundary round
		}
		h, ok := e.pool.NotarizedInRound(k)
		if !ok {
			continue // pruned or unknown; the laggard will re-ask
		}
		if b := e.pool.Block(h); b != nil {
			msgs = append(msgs, &types.BlockMsg{Block: b})
		}
		// The authenticator makes the block admissible (IsValid requires
		// IsAuthentic); without it the notarization is inert.
		if a := e.pool.Authenticator(h); a != nil {
			msgs = append(msgs, a)
		}
		if nz := e.pool.Notarization(h); nz != nil {
			msgs = append(msgs, nz)
		}
	}
	// A dropped request is not retried inline — the engine must not sign
	// — and not re-deferred either: the laggard's next Status re-derives
	// the still-missing rounds.
	if len(rounds) > 0 && !e.cfg.Catchup.EnqueueBackfill(BackfillRequest{Peer: from, Rounds: rounds}) {
		rounds = nil
	}
	if e.cfg.Hooks.OnBackfill != nil {
		e.cfg.Hooks.OnBackfill(from, inlineShares, len(rounds), now)
	}
	return msgs, len(rounds) > 0
}
