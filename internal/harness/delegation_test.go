package harness

// The safety test of delegated payloads (core/delegate.go, DESIGN.md §19):
// a payload offer is cut against one parent and may be used on no other.

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

// offerWatch records, from one party's outputs, the parents it sent early
// payload offers on and the blocks it notarization-shared, by round, and
// the refreshes it sent.
type offerWatch struct {
	engine.Engine
	offeredOn map[types.Round][]hash.Digest        // round k → parents of its early offers for k+1, in order
	shared    map[types.Round]map[hash.Digest]bool // round k → blocks it shared
	refreshes map[*types.PayloadOffer]bool         // offers for the round the party was in
	incoming  *types.PayloadOffer                  // the offer being handed to the party, if any
}

func newOfferWatch(inner engine.Engine) *offerWatch {
	return &offerWatch{
		Engine:    inner,
		offeredOn: make(map[types.Round][]hash.Digest),
		shared:    make(map[types.Round]map[hash.Digest]bool),
		refreshes: make(map[*types.PayloadOffer]bool),
	}
}

func (w *offerWatch) Init(now time.Duration) []engine.Output {
	return w.see(w.CurrentRound(), w.Engine.Init(now))
}

func (w *offerWatch) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	w.incoming, _ = m.(*types.PayloadOffer)
	defer func() { w.incoming = nil }()
	return w.see(w.CurrentRound(), w.Engine.HandleMessage(from, m, now))
}

func (w *offerWatch) Tick(now time.Duration) []engine.Output {
	return w.see(w.CurrentRound(), w.Engine.Tick(now))
}

// see files the outputs of one call that began in round before. An early
// offer for round k leaves during round k−1, a refresh during round k and
// never in the call that enters k (it waits Δprop(0)/2 > 0), so an offer
// for a round at or below before is a refresh.
func (w *offerWatch) see(before types.Round, outs []engine.Output) []engine.Output {
	for _, o := range outs {
		switch m := o.Msg.(type) {
		case *types.PayloadOffer:
			if m.Round <= before {
				w.refreshes[m] = true
				continue
			}
			w.offeredOn[m.Round-1] = append(w.offeredOn[m.Round-1], m.ParentHash)
		case *types.NotarizationShare:
			if m.Signer == w.ID() {
				if w.shared[m.Round] == nil {
					w.shared[m.Round] = make(map[hash.Digest]bool)
				}
				w.shared[m.Round][m.BlockHash] = true
			}
		}
	}
	return outs
}

// reoffers counts the rounds in which the party offered early on a block
// it never shared, then shared another block and offered on that one.
func (w *offerWatch) reoffers() int {
	count := 0
	for k, parents := range w.offeredOn {
		early := false
		for _, p := range parents {
			if !w.shared[k][p] {
				early = true
			} else if early {
				count++
				break
			}
		}
	}
	return count
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
// is due to be notarization-shared. In such a round the rank-1 proposer's
// own block carries commands the leader's block lacks, and the offer it
// cuts over its own block for the next leader therefore starts at a later
// sequence number. If the next leader builds on the other block, using
// that offer would commit the later commands first and every replica's
// per-client watermark would skip the earlier ones for good: an
// acknowledged write nobody can read. The proposer must drop the offer
// (parent_mismatch); the commands then ride a later block in order.
//
// Mutation check: with the ParentHash test in core.delegatedFor removed
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
	outcomes := make(map[string]int)
	refreshesLate := 0
	kvs := make([]*statemachine.KV, n)
	feeders := make([]*feeder, n)
	watches := make([]*offerWatch, n)
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
				OnPayloadOffer: func(peer types.PartyID, _ types.Round, _ int, outcome string, _ time.Duration) {
					outcomes[outcome]++
					if in := watches[pid].incoming; outcome == core.OfferLate && in != nil && watches[peer].refreshes[in] {
						refreshesLate++
					}
				},
			},
		})
		var eng engine.Engine = inner
		if i == slow {
			// Δprop(0) = ε/2 = 25 ms, Δntry(1) = 250 ms: the leader's block
			// is cut 25 ms into the round and lands between 241 and 270 ms,
			// so that a party that entered the round late may see another
			// party's share for the rank-1 block, offer on it early, and
			// then share the leader's.
			eng = delayOwnProposals(inner, 215*time.Millisecond)
		}
		watches[i] = newOfferWatch(eng)
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

	if outcomes[core.OfferMerged] == 0 || outcomes[core.OfferParentMismatch] == 0 {
		t.Errorf("the run did not exercise both paths: offer outcomes %v", outcomes)
	}
	// A party that offered early on one block of a forked round and then
	// shared the other re-offers on the other: the offer the next leader
	// may merge is the one cut against the block it builds on.
	reoffers := 0
	for _, w := range watches {
		reoffers += w.reoffers()
	}
	if reoffers == 0 {
		t.Error("no party offered early on one block of a round and then shared, and re-offered on, another")
	}
	refreshes := 0
	for _, w := range watches {
		refreshes += len(w.refreshes)
	}
	t.Logf("offer outcomes: %v; rounds with a re-offer: %d; refreshes sent: %d, late: %d", outcomes, reoffers, refreshes, refreshesLate)
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
