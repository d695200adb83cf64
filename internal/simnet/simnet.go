// Package simnet is a deterministic discrete-event network simulator for
// consensus engines. It is the substrate on which every experiment of
// DESIGN.md §3 runs: virtual time advances from event to event, so tens
// of thousands of protocol rounds with realistic WAN delays execute in
// seconds of real time, and runs are exactly reproducible from a seed.
package simnet

import (
	"container/heap"
	"math/rand"
	"time"

	"icc/internal/engine"
	"icc/internal/metrics"
	"icc/internal/types"
)

// event is one scheduled action.
type event struct {
	at  time.Duration
	seq uint64 // tie-breaker: FIFO among simultaneous events
	fn  func()
}

// eventQueue is a min-heap ordered by (at, seq).
type eventQueue []*event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *eventQueue) Push(x interface{}) { *q = append(*q, x.(*event)) }
func (q *eventQueue) Pop() interface{} {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// node hosts one engine inside the simulator.
type node struct {
	eng         engine.Engine
	honest      bool
	wakeSeq     uint64 // invalidates stale scheduled ticks
	crashed     bool
	partitioned bool
	// queued holds deliveries that arrived while partitioned; they drain
	// on Heal (the paper's "every message ... will eventually be
	// delivered" assumption, §1).
	queued []func()
}

// TraceEvent is one observable step of a simulation: a message delivery
// into an engine or a timer tick firing. The stream of TraceEvents is a
// pure function of (seed, topology, delay model, engine code), so two
// runs with identical configuration produce identical streams — the
// property the adversary campaign's failure-replay machinery checks
// byte-for-byte.
type TraceEvent struct {
	At    time.Duration // virtual time of the step
	Step  uint64        // 1-based ordinal among traced steps
	Kind  string        // "deliver" or "tick"
	Party types.PartyID // acting (receiving/ticking) party
	From  types.PartyID // sender, for deliveries
	Msg   types.Kind    // message kind, for deliveries
	Size  int           // marshalled message size, for deliveries
}

// Options configures a Network.
type Options struct {
	Seed     int64
	Delay    DelayModel
	Recorder *metrics.Recorder // optional
	// Trace, if non-nil, observes every delivery and tick as it executes
	// (after crash/partition gating, immediately before the engine call).
	Trace func(TraceEvent)
}

// Network is a simulated network of consensus engines.
type Network struct {
	rng   *rand.Rand
	delay DelayModel
	rec   *metrics.Recorder
	trace func(TraceEvent)
	steps uint64

	queue eventQueue
	seq   uint64
	now   time.Duration

	nodes []*node
}

// New creates an empty simulated network.
func New(opts Options) *Network {
	if opts.Delay == nil {
		opts.Delay = Fixed{D: 10 * time.Millisecond}
	}
	return &Network{
		rng:   rand.New(rand.NewSource(opts.Seed)),
		delay: opts.Delay,
		rec:   opts.Recorder,
		trace: opts.Trace,
	}
}

// AddNode registers an engine. honest controls whether its sends count
// toward the honest-party message-complexity metric (paper §1 counts
// messages sent by honest parties). Nodes must be added in PartyID order
// starting from 0.
func (nw *Network) AddNode(eng engine.Engine, honest bool) {
	if int(eng.ID()) != len(nw.nodes) {
		panic("simnet: nodes must be added in PartyID order")
	}
	nw.nodes = append(nw.nodes, &node{eng: eng, honest: honest})
}

// Now returns the current simulated time.
func (nw *Network) Now() time.Duration { return nw.now }

// schedule queues fn at time at (clamped to now).
func (nw *Network) schedule(at time.Duration, fn func()) {
	if at < nw.now {
		at = nw.now
	}
	nw.seq++
	heap.Push(&nw.queue, &event{at: at, seq: nw.seq, fn: fn})
}

// Start initialises every engine. Call once before Run/Step.
func (nw *Network) Start() {
	for _, nd := range nw.nodes {
		outs := nd.eng.Init(nw.now)
		nw.dispatch(nd, outs)
		nw.rearm(nd)
	}
}

// Crash marks a node as crashed: it stops receiving and ticking. Used by
// fault-injection experiments (Table 1 scenario 3).
func (nw *Network) Crash(p types.PartyID) {
	nw.nodes[p].crashed = true
	nw.nodes[p].wakeSeq++
}

// Restore brings a crashed node back (it will resume on its next tick or
// message).
func (nw *Network) Restore(p types.PartyID) {
	nd := nw.nodes[p]
	nd.crashed = false
	nw.rearm(nd)
}

// Partition cuts a node off: messages addressed to it queue instead of
// being delivered, and its timers stop. Unlike Crash, nothing is lost —
// the partial-synchrony model's eventual delivery (§1) resumes on Heal.
// (The node's own sends are unaffected; a fully isolated node simply has
// nothing new to say.)
func (nw *Network) Partition(p types.PartyID) {
	nd := nw.nodes[p]
	nd.partitioned = true
	nd.wakeSeq++
}

// Heal reconnects a partitioned node and delivers everything that queued
// while it was away, in arrival order.
func (nw *Network) Heal(p types.PartyID) {
	nd := nw.nodes[p]
	if !nd.partitioned {
		return
	}
	nd.partitioned = false
	backlog := nd.queued
	nd.queued = nil
	for _, fn := range backlog {
		fn()
	}
	nw.rearm(nd)
}

// dispatch transmits the outputs of a node.
func (nw *Network) dispatch(nd *node, outs []engine.Output) {
	for _, out := range outs {
		raw := types.Marshal(out.Msg)
		size := len(raw)
		round := nd.eng.CurrentRound()
		if out.Broadcast {
			recipients := 0
			for _, other := range nw.nodes {
				if other == nd || out.Skips(other.eng.ID()) {
					continue
				}
				recipients++
				nw.deliver(nd, other, out.Msg, size)
			}
			if nw.rec != nil && nd.honest {
				nw.rec.Send(nd.eng.ID(), round, recipients, size)
			}
		} else {
			if int(out.To) < 0 || int(out.To) >= len(nw.nodes) || out.To == nd.eng.ID() {
				continue
			}
			nw.deliver(nd, nw.nodes[out.To], out.Msg, size)
			if nw.rec != nil && nd.honest {
				nw.rec.Send(nd.eng.ID(), round, 1, size)
			}
		}
	}
}

// deliver schedules one message for delivery.
func (nw *Network) deliver(from, to *node, msg types.Message, size int) {
	if aware, ok := nw.delay.(nowAware); ok {
		aware.SetNow(nw.now)
	}
	d, deliverIt := nw.delay.Sample(nw.rng, from.eng.ID(), to.eng.ID(), size)
	if !deliverIt {
		return
	}
	sender := from.eng.ID()
	var apply func()
	apply = func() {
		if to.crashed {
			return
		}
		if to.partitioned {
			to.queued = append(to.queued, apply)
			return
		}
		if nw.trace != nil {
			nw.steps++
			nw.trace(TraceEvent{
				At: nw.now, Step: nw.steps, Kind: "deliver",
				Party: to.eng.ID(), From: sender, Msg: msg.Kind(), Size: size,
			})
		}
		outs := to.eng.HandleMessage(sender, msg, nw.now)
		nw.dispatch(to, outs)
		nw.rearm(to)
	}
	nw.schedule(nw.now+d, apply)
}

// rearm schedules the node's next timer tick per NextWake.
func (nw *Network) rearm(nd *node) {
	if nd.crashed || nd.partitioned {
		return
	}
	at, ok := nd.eng.NextWake(nw.now)
	if !ok {
		return
	}
	nd.wakeSeq++
	mySeq := nd.wakeSeq
	nw.schedule(at, func() {
		if nd.crashed || nd.partitioned || nd.wakeSeq != mySeq {
			return
		}
		if nw.trace != nil {
			nw.steps++
			nw.trace(TraceEvent{At: nw.now, Step: nw.steps, Kind: "tick", Party: nd.eng.ID()})
		}
		outs := nd.eng.Tick(nw.now)
		nw.dispatch(nd, outs)
		nw.rearm(nd)
	})
}

// Step executes the next event. It returns false when no events remain.
func (nw *Network) Step() bool {
	if nw.queue.Len() == 0 {
		return false
	}
	e := heap.Pop(&nw.queue).(*event)
	nw.now = e.at
	e.fn()
	return true
}

// Run executes events until the queue drains or simulated time exceeds
// `until`. It returns the final simulated time.
func (nw *Network) Run(until time.Duration) time.Duration {
	for nw.queue.Len() > 0 && nw.queue[0].at <= until {
		nw.Step()
	}
	if nw.now < until {
		nw.now = until
	}
	return nw.now
}

// RunUntil executes events until pred returns true or simulated time
// exceeds `limit`. It reports whether pred was satisfied.
func (nw *Network) RunUntil(pred func() bool, limit time.Duration) bool {
	for !pred() {
		if nw.queue.Len() == 0 || nw.queue[0].at > limit {
			return false
		}
		nw.Step()
	}
	return true
}
