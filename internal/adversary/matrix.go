package adversary

import (
	"icc/internal/beacon"
	"time"

	"icc/internal/clock"
	"icc/internal/core"
	"icc/internal/engine"
	"icc/internal/types"
)

// TimedFilter is a now-aware Filter: Transform additionally sees the
// current protocol time and may postpone outputs via Delay instead of
// dropping or passing them. Held outputs are released the next time the
// engine is driven at or after their due time, and NextWake accounts for
// them so a host that honours the engine contract always drives the
// wrapper in time. It is the chassis for the time-dependent behaviours
// of the adversary matrix (threshold withholding with a rejoin time,
// colluding share delays).
type TimedFilter struct {
	Inner     engine.Engine
	Transform func(o engine.Output, now time.Duration) []engine.Output

	held []timedOutput
}

type timedOutput struct {
	at  time.Duration
	out engine.Output
}

// Delay schedules o for release at time at (a Transform callback helper).
func (f *TimedFilter) Delay(at time.Duration, o engine.Output) {
	f.held = append(f.held, timedOutput{at: at, out: o})
}

// release returns the held outputs due by now, keeping the rest.
func (f *TimedFilter) release(now time.Duration) []engine.Output {
	var ready []engine.Output
	rest := f.held[:0]
	for _, h := range f.held {
		if h.at <= now {
			ready = append(ready, h.out)
		} else {
			rest = append(rest, h)
		}
	}
	f.held = rest
	return ready
}

func (f *TimedFilter) apply(outs []engine.Output, now time.Duration) []engine.Output {
	res := f.release(now)
	for _, o := range outs {
		res = append(res, f.Transform(o, now)...)
	}
	return res
}

// ID implements engine.Engine.
func (f *TimedFilter) ID() types.PartyID { return f.Inner.ID() }

// Init implements engine.Engine.
func (f *TimedFilter) Init(now time.Duration) []engine.Output {
	return f.apply(f.Inner.Init(now), now)
}

// HandleMessage implements engine.Engine.
func (f *TimedFilter) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	return f.apply(f.Inner.HandleMessage(from, m, now), now)
}

// Tick implements engine.Engine.
func (f *TimedFilter) Tick(now time.Duration) []engine.Output {
	return f.apply(f.Inner.Tick(now), now)
}

// NextWake implements engine.Engine: the earlier of the inner engine's
// wake and the earliest held output's due time.
// Beacon implements engine.Beaconed for the wrapped engine.
func (f *TimedFilter) Beacon() beacon.Source { return engine.BeaconOf(f.Inner) }

func (f *TimedFilter) NextWake(now time.Duration) (time.Duration, bool) {
	at, ok := f.Inner.NextWake(now)
	for _, h := range f.held {
		if !ok || h.at < at {
			at, ok = h.at, true
		}
	}
	return at, ok
}

// CurrentRound implements engine.Engine.
func (f *TimedFilter) CurrentRound() types.Round { return f.Inner.CurrentRound() }

var _ engine.Engine = (*TimedFilter)(nil)

// WithholdOptions selects which of the party's own signature shares a
// ShareWithholder suppresses, and for how long.
type WithholdOptions struct {
	// Notar withholds the party's own notarization shares — starving the
	// n−t notarization quorum when enough parties do it together.
	Notar bool
	// Final withholds the party's own finalization shares — the quorum
	// pinned exactly at the n−t threshold boundary: t withholders leave
	// the quorum intact, t+1 stall finalization while notarization (and
	// hence chain growth) continues.
	Final bool
	// Until, if positive, is when the party rejoins and shares normally
	// again. Zero withholds for the whole run.
	Until time.Duration
}

// NewShareWithholder wraps an honest engine so its own signature shares
// never leave the process while withholding is active. Everything else —
// proposals, relayed artifacts, other parties' shares — flows untouched,
// so the party looks alive and merely "unlucky". Two side channels are
// closed along with the direct one, because either would silently defeat
// the threshold-boundary experiments:
//
//   - shares the inner engine packs into resync Bundles or gossip
//     ShareBundles (an answer to a peer's Status carries pool contents);
//   - combined certificates of the withheld kind. The engine inserts its
//     own broadcasts into its own pool regardless of what leaves the
//     process, so a withholder whose pool holds n−t−1 honest shares plus
//     its own still assembles a certificate locally — and broadcasting
//     that certificate publishes the withheld share's contribution in
//     aggregate form. (Honest parties can re-derive any certificate that
//     is legitimately reachable without this party's share.)
//
// Note the rejoin semantics: shares produced while withholding are
// dropped, not queued, so after Until the quorum recovers through new
// rounds (finalizing any later round commits the whole stalled prefix,
// Fig. 2), not through delivery of the old shares.
func NewShareWithholder(inner engine.Engine, o WithholdOptions) engine.Engine {
	self := inner.ID()
	active := func(now time.Duration) bool { return o.Until <= 0 || now < o.Until }
	dropMsg := func(m types.Message) bool {
		switch s := m.(type) {
		case *types.NotarizationShare:
			return o.Notar && s.Signer == self
		case *types.FinalizationShare:
			return o.Final && s.Signer == self
		case *types.Notarization:
			return o.Notar
		case *types.Finalization:
			return o.Final
		}
		return false
	}
	return &TimedFilter{
		Inner: inner,
		Transform: func(out engine.Output, now time.Duration) []engine.Output {
			if !active(now) {
				return []engine.Output{out}
			}
			switch m := out.Msg.(type) {
			case *types.Bundle:
				kept := make([]types.Message, 0, len(m.Messages))
				for _, sub := range m.Messages {
					if !dropMsg(sub) {
						kept = append(kept, sub)
					}
				}
				if len(kept) != len(m.Messages) {
					if len(kept) == 0 {
						return nil
					}
					out.Msg = &types.Bundle{Messages: kept, Resync: m.Resync}
				}
			case *types.ShareBundle:
				out.Msg = stripShareBundle(m, self, o)
			default:
				if dropMsg(out.Msg) {
					return nil
				}
			}
			return []engine.Output{out}
		},
	}
}

// stripShareBundle removes self's own shares from the withheld sections
// of a gossip share bundle, leaving relayed shares intact.
func stripShareBundle(b *types.ShareBundle, self types.PartyID, o WithholdOptions) *types.ShareBundle {
	strip := func(groups []types.ShareGroup, enabled bool) []types.ShareGroup {
		if !enabled {
			return groups
		}
		res := make([]types.ShareGroup, 0, len(groups))
		for i := range groups {
			g := groups[i]
			signers := make([]types.PartyID, 0, len(g.Signers))
			sigs := make([][]byte, 0, len(g.Sigs))
			for j, s := range g.Signers {
				if s == self {
					continue
				}
				signers = append(signers, s)
				sigs = append(sigs, g.Sigs[j])
			}
			if len(signers) == 0 {
				continue
			}
			g.Signers, g.Sigs = signers, sigs
			res = append(res, g)
		}
		return res
	}
	return &types.ShareBundle{
		Notar:  strip(b.Notar, o.Notar),
		Final:  strip(b.Final, o.Final),
		Beacon: b.Beacon,
	}
}

// ClockSkew wraps an engine whose local clock runs Skew ahead of (or,
// negative, behind) protocol time: every timestamp the host passes in is
// shifted through clock.Skewed before the inner engine sees it, and wake
// requests are converted back to host time. The party is not Byzantine —
// it follows the protocol faithfully against a wrong clock — but its
// Δprop/Δntry windows open early or late, the failure mode the paper's
// loosely-synchronised-clocks assumption (§1) admits in practice.
type ClockSkew struct {
	Inner engine.Engine
	Skew  time.Duration
}

// NewClockSkew wraps inner with a constant clock offset.
func NewClockSkew(inner engine.Engine, skew time.Duration) *ClockSkew {
	return &ClockSkew{Inner: inner, Skew: skew}
}

// local converts host time to the party's skewed local time.
func (c *ClockSkew) local(now time.Duration) time.Duration {
	return clock.Skewed{Inner: clock.At(now), Offset: c.Skew}.Now()
}

// ID implements engine.Engine.
func (c *ClockSkew) ID() types.PartyID { return c.Inner.ID() }

// Init implements engine.Engine.
func (c *ClockSkew) Init(now time.Duration) []engine.Output {
	return c.Inner.Init(c.local(now))
}

// HandleMessage implements engine.Engine.
func (c *ClockSkew) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	return c.Inner.HandleMessage(from, m, c.local(now))
}

// Tick implements engine.Engine.
func (c *ClockSkew) Tick(now time.Duration) []engine.Output {
	return c.Inner.Tick(c.local(now))
}

// NextWake implements engine.Engine: the inner engine answers in its own
// timebase, so the wake is shifted back into host time (clamped to now —
// a behind-clock party whose window already opened wakes immediately).
// Beacon implements engine.Beaconed for the wrapped engine.
func (c *ClockSkew) Beacon() beacon.Source { return engine.BeaconOf(c.Inner) }

func (c *ClockSkew) NextWake(now time.Duration) (time.Duration, bool) {
	at, ok := c.Inner.NextWake(c.local(now))
	if !ok {
		return 0, false
	}
	at -= c.Skew
	if at < now {
		at = now
	}
	return at, true
}

// CurrentRound implements engine.Engine.
func (c *ClockSkew) CurrentRound() types.Round { return c.Inner.CurrentRound() }

var _ engine.Engine = (*ClockSkew)(nil)

// Collusion is the shared membership roster of a colluding cartel; every
// RankAbuser holds the same instance so each member can recognise the
// others' artifacts. Membership is fixed at construction (the static
// adversary of the paper's model), so reads are safe from any party.
type Collusion struct {
	members map[types.PartyID]bool
}

// NewCollusion returns a cartel with the given members.
func NewCollusion(members ...types.PartyID) *Collusion {
	m := make(map[types.PartyID]bool, len(members))
	for _, p := range members {
		m[p] = true
	}
	return &Collusion{members: m}
}

// Member reports whether p belongs to the cartel.
func (c *Collusion) Member(p types.PartyID) bool { return c != nil && c.members[p] }

// NewRankAbuser wraps an honest engine in a cartel's rank-permutation
// abuse: the member proposes nothing when the beacon ranks it leader
// (forcing honest parties down the Δntry fallback ladder every round a
// member leads), votes promptly for cartel proposals, and sits on its
// own notarization shares for honest proposals for shareDelay before
// releasing them. The combination maximises the rounds where a cartel
// rank wins the fallback race without ever producing a conspicuously
// invalid artifact — the "consistent failure" end of §3.1's taxonomy
// applied to the rank permutation.
func NewRankAbuser(inner *core.Engine, coll *Collusion, shareDelay time.Duration) engine.Engine {
	self := inner.ID()
	tf := &TimedFilter{Inner: inner}
	tf.Transform = func(o engine.Output, now time.Duration) []engine.Output {
		if _, _, own := isOwnProposal(self, o); own {
			return nil
		}
		if s, ok := o.Msg.(*types.NotarizationShare); ok &&
			s.Signer == self && !coll.Member(s.Proposer) && shareDelay > 0 {
			tf.Delay(now+shareDelay, o)
			return nil
		}
		return []engine.Output{o}
	}
	return tf
}
