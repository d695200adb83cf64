package harness

import (
	"time"

	"icc/internal/beacon"
	"icc/internal/core"
	"icc/internal/engine"
	"icc/internal/types"
)

// statusLieEvery is how often a StatusLiar sends every other party a
// Status.
const statusLieEvery = time.Millisecond

// statusLiar runs the protocol honestly but sends every other party a
// bare Status every statusLieEvery, lying in turn: its own round with an
// empty Have (asking for the whole round), round 1 with nothing
// finalized (asking for a full catch-up batch), a round a thousand
// ahead, and its own round with a Have naming everything it holds and a
// finalization frontier a thousand ahead (asking for nothing, so no
// answer charges the limiter, while each one makes the peer compare the
// Have against its round); every one carries the same Seq. Each honest
// party's per-peer limiter must hold its answers to one an interval.
type statusLiar struct {
	engine.Engine
	core *core.Engine
	n    int
	next time.Duration
	lies uint64
}

// Beacon implements engine.Beaconed for the wrapped engine.
func (l *statusLiar) Beacon() beacon.Source { return engine.BeaconOf(l.Engine) }

func (l *statusLiar) lie(now time.Duration) []engine.Output {
	if now < l.next {
		return nil
	}
	l.next = now + statusLieEvery
	l.lies++
	st := &types.Status{Round: l.CurrentRound(), Seq: 1}
	switch l.lies % 4 {
	case 1:
		st.Round = 1
	case 2:
		st.Round += 1000
	case 3:
		st = l.core.Status()
		st.Finalized, st.Seq = st.Round+1000, 1
	}
	var outs []engine.Output
	for p := 0; p < l.n; p++ {
		if to := types.PartyID(p); to != l.ID() {
			outs = append(outs, engine.Unicast(to, st))
		}
	}
	return outs
}

func (l *statusLiar) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	return append(l.Engine.HandleMessage(from, m, now), l.lie(now)...)
}

func (l *statusLiar) Tick(now time.Duration) []engine.Output {
	return append(l.Engine.Tick(now), l.lie(now)...)
}

func (l *statusLiar) NextWake(now time.Duration) (time.Duration, bool) {
	at, ok := l.Engine.NextWake(now)
	if due := max(l.next, now+1); !ok || due < at {
		return due, true
	}
	return at, ok
}
