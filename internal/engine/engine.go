// Package engine defines the contract between a consensus engine (the
// per-party protocol state machine) and the runtimes that host it — the
// discrete-event simulator, the in-process runtime, and the TCP runtime.
//
// Engines are written in an event-driven style: the host delivers
// messages and timer ticks, and the engine returns the messages it wants
// transmitted. Engines insert their own broadcasts into their own pools
// internally (each party's pool holds messages "received from all
// parties (including itself)", paper §3.1), so hosts never loop a
// party's output back to itself.
package engine

import (
	"time"

	"icc/internal/types"
)

// Output is one transmission requested by an engine.
type Output struct {
	// To is the destination when Broadcast is false, and the one party
	// left out when Broadcast and Except are both set.
	To        types.PartyID
	Broadcast bool
	// Except narrows a broadcast to every other party but To. It is a
	// flag of its own because the zero PartyID is a real party.
	Except bool
	Msg    types.Message
}

// Broadcast wraps a message for transmission to all other parties.
func Broadcast(m types.Message) Output { return Output{Broadcast: true, Msg: m} }

// BroadcastExcept wraps a message for transmission to all other parties
// but one, which is known to hold it already. Hosts that send to each
// party directly honour the exception; a dissemination layer that turns
// broadcasts into something else may treat it as a plain broadcast.
func BroadcastExcept(skip types.PartyID, m types.Message) Output {
	return Output{To: skip, Broadcast: true, Except: true, Msg: m}
}

// Skips reports whether a broadcast output leaves party p out.
func (o Output) Skips(p types.PartyID) bool { return o.Except && o.To == p }

// Unicast wraps a message for transmission to a single party. The core
// ICC0/ICC1 protocols only ever broadcast (paper §3.1); unicast exists
// for the gossip pull path, the ICC2 fragment distribution, and for
// Byzantine engines that equivocate by sending different messages to
// different parties.
func Unicast(to types.PartyID, m types.Message) Output {
	return Output{To: to, Msg: m}
}

// Engine is a single party's protocol state machine.
type Engine interface {
	// ID returns the party this engine speaks for.
	ID() types.PartyID

	// Init is called once before any other method, at protocol start.
	Init(now time.Duration) []Output

	// HandleMessage delivers one received message.
	HandleMessage(from types.PartyID, m types.Message, now time.Duration) []Output

	// Tick re-evaluates time-dependent conditions (the Δprop/Δntry
	// clauses of Fig. 1).
	Tick(now time.Duration) []Output

	// NextWake returns the earliest future time at which a time
	// condition could newly become true, if any. Hosts call Tick no
	// later than that time.
	NextWake(now time.Duration) (time.Duration, bool)

	// CurrentRound reports the round the engine is working on, for
	// metrics attribution.
	CurrentRound() types.Round
}
