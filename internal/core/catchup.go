package core

import (
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/hash"
	"icc/internal/pool"
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

// Catchup answers lagging peers' Status messages with batches of
// notarized rounds. It owns the per-peer rate limiter and the split
// between the cheap inline response (pool artifacts + cached beacon
// shares) and the expensive deferred part (threshold signing of uncached
// shares), so the engine loop never performs EC scalar multiplication on
// behalf of a laggard when a provider is wired.
type Catchup struct {
	beacon   beacon.Source
	interval time.Duration
	provider CatchupProvider
	hook     func(peer types.PartyID, inline, deferred int, now time.Duration)

	// repliedAt rate-limits responses per requesting peer: a Byzantine
	// party repeating Status must not turn us into a bandwidth amplifier.
	repliedAt map[types.PartyID]time.Duration
}

// newCatchup wires the component from an engine config (already
// defaulted), replying to one peer at most once per interval.
func newCatchup(cfg Config, interval time.Duration) *Catchup {
	return &Catchup{
		beacon:    cfg.Beacon,
		interval:  interval,
		provider:  cfg.Catchup,
		hook:      cfg.Hooks.OnBackfill,
		repliedAt: make(map[types.PartyID]time.Duration),
	}
}

// allowReply charges the per-peer rate limiter for a reply outside
// Respond's own accounting (the checkpoint-serving path). It returns
// false when the peer already used its reply slot this interval.
func (c *Catchup) allowReply(from types.PartyID, now time.Duration) bool {
	if last, ok := c.repliedAt[from]; ok && now < last+c.interval {
		return false
	}
	c.repliedAt[from] = now
	return true
}

// Respond builds the inline portion of a catch-up response for a peer
// whose Status reports round st.Round while we are at `round`, reading
// artifacts from p and deferring uncached beacon-share signing to the
// provider. It returns nil when no reply is due (peer close enough,
// rate-limited, or nothing to send).
func (c *Catchup) Respond(p *pool.Pool, from types.PartyID, st *types.Status, round types.Round, lastFinal hash.Digest, now time.Duration) *types.Bundle {
	// Peers at most one round behind are healed by ordinary traffic and
	// by the stall bundle itself; only answer real gaps.
	if st.Round+1 >= round {
		return nil
	}
	if last, ok := c.repliedAt[from]; ok && now < last+c.interval {
		return nil
	}

	end := round
	if limit := st.Round + resyncBatch; end > limit {
		end = limit
	}
	var msgs []types.Message
	var deferred []types.Round
	inlineShares := 0
	for k := st.Round; k <= end; k++ {
		// Our own beacon share for k lets the laggard accumulate the
		// t+1 distinct shares it needs to re-enter the round (every
		// responding peer contributes one). Rounds the laggard has
		// already finalized need no share: it traversed their beacons.
		if k > st.Finalized {
			if sh, ok := c.beacon.CachedShareForRound(k); ok {
				msgs = append(msgs, sh)
				inlineShares++
			} else if c.provider != nil {
				deferred = append(deferred, k)
			} else if sh, err := c.beacon.ShareForRound(k); err == nil {
				// Synchronous fallback: deterministic single-threaded
				// paths (simnet, harness) sign inline as before.
				msgs = append(msgs, sh)
				inlineShares++
			}
		}
		if k == end {
			break // shares only for the boundary round
		}
		h, ok := p.NotarizedInRound(k)
		if !ok {
			continue // pruned or unknown; the laggard will re-ask
		}
		if b := p.Block(h); b != nil {
			msgs = append(msgs, &types.BlockMsg{Block: b})
		}
		// The authenticator makes the block admissible (IsValid requires
		// IsAuthentic); without it the notarization is inert.
		if a := p.Authenticator(h); a != nil {
			msgs = append(msgs, a)
		}
		if nz := p.Notarization(h); nz != nil {
			msgs = append(msgs, nz)
		}
	}
	if lastFinal != (hash.Digest{}) {
		if f := p.Finalization(lastFinal); f != nil {
			msgs = append(msgs, f)
		}
	}
	if len(deferred) > 0 {
		// Dropped requests are not retried inline — the engine must not
		// sign — and not re-deferred either: the laggard's next Status
		// re-derives the still-missing rounds.
		if !c.provider.EnqueueBackfill(BackfillRequest{Peer: from, Rounds: deferred}) {
			deferred = nil
		}
	}
	if c.hook != nil {
		c.hook(from, inlineShares, len(deferred), now)
	}
	// Charge the rate limiter only when the peer actually gets
	// something — a bundle now or a backfill unicast shortly. A peer
	// whose gap is fully pruned from our pool must not burn its one
	// reply per interval on an empty answer; some other responder may
	// still hold those rounds, and our turn should stay open for when
	// we can contribute.
	if len(msgs) == 0 && len(deferred) == 0 {
		return nil
	}
	c.repliedAt[from] = now
	if len(msgs) == 0 {
		return nil
	}
	// Resync marks the bundle for the laggard's verify-pipeline
	// priority lane and its chain-aware batch verification.
	return &types.Bundle{Messages: msgs, Resync: true}
}
