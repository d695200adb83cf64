package harness

// The safety test of delegated payloads (core/delegate.go, DESIGN.md §19):
// a client's forwarded commands commit in Seq order, whichever blocks the
// leaders build on and in whatever order the forwards arrive.

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"icc/internal/adversary"
	"icc/internal/beacon"
	"icc/internal/core"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/simnet"
	"icc/internal/statemachine"
	"icc/internal/types"
)

// feeder submits one command of its party's own client to the party's
// queue for every interval of virtual time that has passed, until stop.
type feeder struct {
	engine.Engine
	q      *statemachine.Queue
	client uint64
	every  time.Duration
	stop   time.Duration
	sent   uint64
}

func feederKey(client, seq uint64) string { return fmt.Sprintf("c%d/%d", client, seq) }

func (f *feeder) feed(now time.Duration) {
	if now > f.stop {
		now = f.stop
	}
	for time.Duration(f.sent)*f.every <= now {
		f.sent++
		value := make([]byte, 8)
		binary.BigEndian.PutUint64(value, f.sent)
		if err := f.q.TrySubmit(statemachine.Command{
			Client: f.client, Seq: f.sent, Op: statemachine.OpSet, Key: feederKey(f.client, f.sent), Value: value,
		}); err != nil {
			panic(err) // an unbounded queue refuses nothing the feeder sends
		}
	}
}

func (f *feeder) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	f.feed(now)
	return f.Engine.HandleMessage(from, m, now)
}

func (f *feeder) Tick(now time.Duration) []engine.Output {
	f.feed(now)
	return f.Engine.Tick(now)
}

// shareWatch records, from one party's outputs, the blocks it
// notarization-shared, by round.
type shareWatch struct {
	engine.Engine
	shared map[types.Round]map[hash.Digest]bool
}

func (w *shareWatch) Init(now time.Duration) []engine.Output { return w.see(w.Engine.Init(now)) }

func (w *shareWatch) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	return w.see(w.Engine.HandleMessage(from, m, now))
}

func (w *shareWatch) Tick(now time.Duration) []engine.Output { return w.see(w.Engine.Tick(now)) }

func (w *shareWatch) see(outs []engine.Output) []engine.Output {
	for _, o := range outs {
		if m, ok := o.Msg.(*types.NotarizationShare); ok && m.Signer == w.ID() {
			if w.shared[m.Round] == nil {
				w.shared[m.Round] = make(map[hash.Digest]bool)
			}
			w.shared[m.Round][m.BlockHash] = true
		}
	}
	return outs
}

// forkedRounds counts the rounds in which the parties' notarization
// shares went to more than one block.
func forkedRounds(ws []*shareWatch) int {
	blocks := make(map[types.Round]map[hash.Digest]bool)
	for _, w := range ws {
		for k, hs := range w.shared {
			if blocks[k] == nil {
				blocks[k] = make(map[hash.Digest]bool)
			}
			for h := range hs {
				blocks[k][h] = true
			}
		}
	}
	forked := 0
	for _, hs := range blocks {
		if len(hs) > 1 {
			forked++
		}
	}
	return forked
}

// delayOwnProposals holds a party's own block proposals back by d: with d
// just under Δntry(1), a round it leads has two blocks, and which of them
// a party sees notarized first is up to the links.
func delayOwnProposals(inner *core.Engine, d time.Duration) engine.Engine {
	self := inner.ID()
	tf := &adversary.TimedFilter{Inner: inner}
	tf.Transform = func(o engine.Output, now time.Duration) []engine.Output {
		if b, ok := o.Msg.(*types.Bundle); ok && len(b.Messages) > 0 {
			if bm, ok := b.Messages[0].(*types.BlockMsg); ok && bm.Block.Proposer == self {
				tf.Delay(now+d, o)
				return nil
			}
		}
		return []engine.Output{o}
	}
	return tf
}

// TestDelegatedPayloadsKeepSeqOrderAcrossForkedRounds drives four parties,
// each with a steady stream of commands from a client of its own, through
// rounds in which the leader's block arrives about when the rank-1 block
// is due to be notarization-shared, over links whose delays reorder
// messages. A party then forwards a command to a leader as "in the chain"
// of a block that leader does not build on, or its forwards overtake one
// another, and the leader holds a client's later command without the
// earlier one. Committing the later one first would make every replica's
// per-client watermark skip the earlier one for good: an acknowledged
// write nobody can read. The Seq rule (statemachine.Queue.GetPayload)
// holds the later command back until the earlier one is committed or in
// the chain; the commands then ride in order.
//
// Mutation check: with the Seq rule's test in Queue.GetPayload removed
// this test fails (writes missing on every party).
func TestDelegatedPayloadsKeepSeqOrderAcrossForkedRounds(t *testing.T) {
	const (
		n          = 4
		slow       = 3
		deltaBound = 100 * time.Millisecond
		epsilon    = 50 * time.Millisecond
		every      = 10 * time.Millisecond
		load       = 30 * time.Second
	)
	pub, privs, err := keys.Deal(rand.New(rand.NewSource(11)), n)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Options{Seed: 11, Delay: simnet.Uniform{Min: time.Millisecond, Max: 30 * time.Millisecond}})
	prop, ntry := types.StandardDelays(deltaBound, epsilon)
	outcomes := make(map[string]int)
	kvs := make([]*statemachine.KV, n)
	feeders := make([]*feeder, n)
	watches := make([]*shareWatch, n)
	for i := 0; i < n; i++ {
		pid := types.PartyID(i)
		q, kv := statemachine.NewQueue(), statemachine.NewKV()
		kvs[i] = kv
		inner := core.NewEngine(core.Config{
			Self: pid, Keys: pub, Priv: privs[i],
			Beacon:     beacon.NewSimulated(n, pid, pub.GenesisSeed),
			DeltaBound: deltaBound, Epsilon: epsilon,
			Payload: q,
			Hooks: core.Hooks{
				OnCommit: func(b *types.Block, _ time.Duration) {
					if err := kv.Apply(b.Payload); err != nil {
						t.Errorf("party %d: committed payload of round %d does not decode: %v", pid, b.Round, err)
					}
					q.MarkCommitted(b.Payload)
				},
				OnPayloadOffer: func(_ types.PartyID, _ types.Round, cmds int, outcome string, _ time.Duration) {
					outcomes[outcome] += cmds
				},
			},
		})
		var eng engine.Engine = inner
		if i == slow {
			// The leader's block is cut at Δprop(0) and held back so that it
			// lands 1–30 ms after Δntry(1) − 10 ms = 240 ms, about when the
			// rank-1 block is due to be shared, so parties may share
			// different blocks of the round.
			eng = delayOwnProposals(inner, ntry(1)-prop(0)-10*time.Millisecond)
		}
		watches[i] = &shareWatch{Engine: eng, shared: make(map[types.Round]map[hash.Digest]bool)}
		feeders[i] = &feeder{Engine: watches[i], q: q, client: uint64(i + 1), every: every, stop: load}
		net.AddNode(feeders[i], true)
	}
	net.Start()
	drained := func() bool {
		if net.Now() < load {
			return false
		}
		for _, f := range feeders {
			if f.q.Len() > 0 {
				return false
			}
		}
		return true
	}
	if !net.RunUntil(drained, 10*time.Minute) {
		t.Fatal("the queues did not drain: some command was never committed")
	}
	net.Run(net.Now() + 3*time.Second) // every party commits what the fastest has

	forked := forkedRounds(watches)
	if outcomes[core.OfferMerged] == 0 || forked == 0 {
		t.Errorf("the run did not exercise the stream across forked rounds: %d forked rounds, outcomes %v", forked, outcomes)
	}
	t.Logf("forwarded-command outcomes: %v; forked rounds: %d", outcomes, forked)
	var total int
	for _, f := range feeders {
		total += int(f.sent)
	}
	for p, kv := range kvs {
		if kv.StateHash() != kvs[0].StateHash() {
			t.Errorf("party %d ends in a state different from party 0's", p)
		}
		if kv.Len() != total {
			t.Errorf("party %d holds %d of the %d committed writes", p, kv.Len(), total)
		}
		for _, f := range feeders {
			if got := kv.AppliedSeq(f.client); got != f.sent {
				t.Errorf("party %d applied client %d up to seq %d of %d", p, f.client, got, f.sent)
			}
			missing := 0
			for seq := uint64(1); seq <= f.sent; seq++ {
				if _, ok := kv.Get(feederKey(f.client, seq)); !ok {
					missing++
				}
			}
			if missing > 0 {
				t.Errorf("party %d: %d committed writes of client %d are not readable", p, missing, f.client)
			}
		}
	}
}
