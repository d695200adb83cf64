package core

import (
	"slices"
	"time"

	"icc/internal/types"
)

// The leader's measured cut (DESIGN.md §2). Fig. 1 lets the rank-0 party
// propose at any Δprop(0) with 2Δbnd + Δprop(0) ≤ Δntry(1), and it cuts
// its block as late as the block can still reach a quorum by their
// Δntry(0): at Δntry(0) − m, where m is how late the other parties' own
// rank-0 blocks reached this party after their cuts.
//
// Each block carries the offset at which its proposer cut it
// (types.Block.Cut), so a round-k rank-0 block of party L that becomes
// valid here at now, in round k, gives the sample
// lag[L] = (now − t0) − B.Cut, clamped to [0, Δntry(0)]: transit plus the
// difference of the two round entries, never L's timer. A block already
// valid on entry counts 0. Each other party has a slot: the second
// largest of its latest lagWindow samples; a slot with none holds the
// standard margin Δntry(0) − Δprop(0) (ε/4, times the adaptive
// multiplier), so a fresh party cuts where types.StandardDelays does and
// a silent proposer's slot stays there.
//
// m is the (n−t−1)-th smallest of the n − 1 slots: with its own share,
// the leader needs n−t−1 others to receive its block in time. With at
// most t slots Byzantine, m lies between the honest (n−2t−1)-th smallest
// slot and the largest honest one, so a proposer that lies about its Cut
// or holds its block back cannot move an honest cut outside the range
// the honest slots span: a slot reads only its own party's blocks.
// Safety reads no time; liveness asks only that Δprop(0) ≤ Δntry(0),
// which the clamp keeps (§4, §16).

// lagWindow is how many of a party's latest samples its slot keeps. One
// sample is one draw of a delay: the quorum rank of n − 1 such draws
// falls below the same rank of the next round's n − 1 deliveries about
// half the time, and then the block misses a quorum's Δntry(0) and the
// round waits for it (EXPERIMENTS.md E36: 36 % late shares, and fewer
// blocks/s than the fixed 3ε/4 over 5–10 ms links). The second largest
// of eight is near the eighth decile of the party's lag and forgets one
// outlier; the largest cut so early that p50 lost more (E36).
const lagWindow = 8

// lagSlot is one other party's latest lag samples, a ring.
type lagSlot struct {
	recent [lagWindow]time.Duration
	taken  int // samples taken in all
}

func (s *lagSlot) add(lag time.Duration) {
	s.recent[s.taken%lagWindow] = lag
	s.taken++
}

// noteLag takes this round's lag sample from cs, the round's valid
// blocks by rank, once a rank-0 block is among them.
func (e *Engine) noteLag(cs []candidate, now time.Duration) {
	if e.lagTaken || len(cs) == 0 || cs[0].rank != 0 {
		return
	}
	e.lagTaken = true
	b := e.pool.Block(cs[0].h)
	if b.Proposer == e.cfg.Self {
		return
	}
	ntry, elapsed := e.dntry(0), now-e.t0
	lag := ntry // written so that no claimed Cut overflows
	switch {
	case b.Cut >= elapsed:
		lag = 0
	case b.Cut > elapsed-ntry:
		lag = elapsed - b.Cut
	}
	e.lag[b.Proposer].add(lag)
	if e.cfg.Hooks.OnBlockLag != nil {
		e.cfg.Hooks.OnBlockLag(e.round, b.Proposer, lag, now)
	}
}

// Lags returns every other party's slot as the cut reads it, indexed by
// party: the second largest of its latest lagWindow samples (the only
// one while it has one), or the standard margin while it has none. This
// party's own entry is −1.
func (e *Engine) Lags() []time.Duration {
	fallback := e.dntry(0) - e.dprop(0)
	out := make([]time.Duration, len(e.lag))
	for p, s := range e.lag {
		switch {
		case types.PartyID(p) == e.cfg.Self:
			out[p] = -1
		case s.taken > 0:
			recent := s.recent // a copy: the ring keeps its order
			held := recent[:min(s.taken, lagWindow)]
			slices.Sort(held)
			out[p] = held[max(len(held)-2, 0)]
		default:
			out[p] = fallback
		}
	}
	return out
}

// margin is m: the (n−t−1)-th smallest of the other parties' slots.
func (e *Engine) margin() time.Duration {
	slots := slices.DeleteFunc(e.Lags(), func(d time.Duration) bool { return d < 0 })
	q := e.cfg.Keys.N - types.MaxFaults(e.cfg.Keys.N) - 1
	if q < 1 {
		return e.dntry(0) - e.dprop(0) // a party alone: nobody to reach
	}
	slices.Sort(slots)
	return slots[q-1]
}

// propDelay is the Δprop(r) this party proposes at: for rank 0 the
// measured cut clamp(Δntry(0) − m, 0, Δntry(0)), kept strictly below
// Δprop(1); otherwise, and under SetProposalDelay, Δprop(r).
func (e *Engine) propDelay(r types.Rank) time.Duration {
	if r != 0 || e.fixedCut {
		return e.dprop(r)
	}
	ntry := e.dntry(0)
	cut := min(max(ntry-e.margin(), 0), ntry)
	if next := e.dprop(1); cut >= next && next > 0 {
		cut = next - 1
	}
	return cut
}
