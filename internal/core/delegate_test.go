package core

// Tests for delegated payloads (delegate.go): what a Byzantine sender can
// do to the party it sends offers to, and that nothing of the mechanism
// runs during WAL replay. The ordering argument (an offer is used on the
// parent it was cut against and on no other) is tested across forked
// rounds in internal/harness/delegation_test.go.

import (
	"bytes"
	"crypto/rand"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/simnet"
	"icc/internal/statemachine"
	"icc/internal/types"
)

func kvCommand(client, seq uint64) statemachine.Command {
	return statemachine.Command{Client: client, Seq: seq, Op: statemachine.OpSet, Key: "k", Value: []byte{byte(seq)}}
}

// TestByzantineOffersAreBoundedAndHarmless feeds the round-1 leader, before
// it enters the round, everything a corrupt sender can put in an offer, and
// then lets it propose.
func TestByzantineOffersAreBoundedAndHarmless(t *testing.T) {
	const n, maxPayload = 7, 600
	queue := statemachine.NewQueue()
	outcomes := make(map[string]int)
	c := newChoreographyWith(t, n, 0, 100*time.Millisecond, func(cfg *Config) {
		cfg.Payload = queue
		cfg.MaxPayload = maxPayload
		cfg.Hooks.OnPayloadOffer = func(_ types.PartyID, _ types.Round, _ int, outcome string, _ time.Duration) {
			outcomes[outcome]++
		}
	})
	self := c.eng.ID()
	peers := c.perm[1:] // the other parties, by rank
	root := c.eng.Pool().RootHash()
	offer := func(k types.Round, parent hash.Digest, cmds ...statemachine.Command) *types.PayloadOffer {
		return &types.PayloadOffer{Round: k, ParentHash: parent, Payload: statemachine.EncodePayload(cmds)}
	}
	for s := uint64(1); s <= 2; s++ {
		if err := queue.TrySubmit(kvCommand(100, s)); err != nil {
			t.Fatal(err)
		}
	}
	c.outs = append(c.outs, c.eng.Init(0)...)

	flooder, garbler, bloater, forker, stale, honest := peers[0], peers[1], peers[2], peers[3], peers[4], peers[5]
	// A flood from one sender: only its last offer is kept.
	for i := uint64(1); i <= 200; i++ {
		c.deliver(flooder, offer(1, root, kvCommand(1, i)), 0)
	}
	c.deliver(flooder, offer(1, root, kvCommand(1, 1), kvCommand(1, 2)), 0)
	// Bytes that are no payload at all, well under the size bound.
	c.deliver(garbler, &types.PayloadOffer{Round: 1, ParentHash: root, Payload: []byte("\xff\xff\xff\xffnot commands")}, 0)
	// Above MaxPayload: refused, and the sender's earlier offer survives.
	c.deliver(bloater, offer(1, root, kvCommand(3, 1)), 0)
	c.deliver(bloater, &types.PayloadOffer{Round: 1, ParentHash: root, Payload: make([]byte, maxPayload+1)}, 0)
	// Cut against a block this party will not build on.
	c.deliver(forker, offer(1, hash.SumUint64(hash.DomainBlock, 99), kvCommand(4, 2)), 0)
	// A round long gone, a round absurdly far ahead, and senders that are
	// no party of this cluster, or the party itself.
	c.deliver(stale, offer(0, root, kvCommand(5, 1)), 0)
	c.deliver(stale, offer(1<<60, root, kvCommand(5, 2)), 0)
	c.deliver(types.PartyID(n+5), offer(1, root, kvCommand(6, 1)), 0)
	c.deliver(types.PartyID(-1), offer(1, root, kvCommand(6, 2)), 0)
	c.deliver(self, offer(1, root, kvCommand(6, 3)), 0)
	c.deliver(honest, offer(1, root, kvCommand(7, 1)), 0)

	held := 0
	for from, o := range c.eng.offers {
		if o == nil {
			continue
		}
		held++
		if len(o.Payload) > maxPayload {
			t.Errorf("an offer of %d bytes from party %d is held, MaxPayload is %d", len(o.Payload), from, maxPayload)
		}
	}
	if held > n-1 {
		t.Fatalf("%d offers held for %d possible senders", held, n-1)
	}

	c.enterRound1() // the beacon arrives: the engine enters the round and proposes
	var proposal *types.Block
	for _, o := range c.outs {
		if b, ok := o.Msg.(*types.Bundle); ok {
			if bm, ok := b.Messages[0].(*types.BlockMsg); ok && bm.Block.Proposer == self {
				proposal = bm.Block
			}
		}
	}
	if proposal == nil {
		t.Fatal("the leader did not propose")
	}
	cmds, err := statemachine.DecodePayload(proposal.Payload)
	if err != nil {
		t.Fatalf("the proposed payload does not decode: %v", err)
	}
	if len(proposal.Payload) > maxPayload {
		t.Fatalf("proposed %d payload bytes, peers refuse blocks above %d", len(proposal.Payload), maxPayload)
	}
	got := make(map[[2]uint64]int)
	for i, cm := range cmds {
		got[[2]uint64{cm.Client, cm.Seq}] = i + 1
	}
	for _, want := range [][2]uint64{{100, 1}, {100, 2}, {1, 1}, {1, 2}, {3, 1}, {7, 1}} {
		if got[want] == 0 {
			t.Errorf("command %v is missing from the proposal %v", want, got)
		}
	}
	if got[[2]uint64{100, 1}] != 1 || got[[2]uint64{100, 2}] != 2 {
		t.Errorf("the proposer's own commands do not come first: %v", got)
	}
	if got[[2]uint64{1, 1}] > got[[2]uint64{1, 2}] {
		t.Errorf("a sender's commands changed order: %v", got)
	}
	if len(cmds) != 6 {
		t.Errorf("%d commands proposed, want the 6 that were offered in good order: %v", len(cmds), got)
	}

	// After the proposal an offer for the round is late, and once the
	// round is over nothing addressed to it is held any more.
	c.deliver(honest, offer(1, root, kvCommand(7, 2)), time.Millisecond)
	c.deliver(c.perm[1], c.nshare(proposal, c.perm[1]), 2*time.Millisecond)
	c.deliver(c.perm[2], c.nshare(proposal, c.perm[2]), 3*time.Millisecond)
	c.deliver(c.perm[3], c.nshare(proposal, c.perm[3]), 3*time.Millisecond)
	c.deliver(c.perm[4], c.nshare(proposal, c.perm[4]), 3*time.Millisecond)
	if c.eng.CurrentRound() != 2 {
		t.Fatalf("round 1 did not finish: at round %d", c.eng.CurrentRound())
	}
	for from, o := range c.eng.offers {
		if o != nil && o.Round <= 1 {
			t.Errorf("an offer from party %d for round %d outlived the round", from, o.Round)
		}
	}
	want := map[string]int{OfferMerged: 4, OfferParentMismatch: 1, OfferRefused: 4, OfferLate: 2}
	for outcome, count := range want {
		if outcomes[outcome] != count {
			t.Errorf("%d offers reported %q, want %d (all: %v)", outcomes[outcome], outcome, count, outcomes)
		}
	}
}

// plainSource has no GetPayloadWith: the engine must neither send nor
// keep offers on its behalf.
type plainSource struct{}

func (plainSource) GetPayload(types.Round, *types.Block, func(hash.Digest) *types.Block) []byte {
	return []byte("own payload")
}

func TestSourceWithoutDelegationNeitherOffersNorMerges(t *testing.T) {
	fired := 0
	c := newChoreographyWith(t, 4, 0, 100*time.Millisecond, func(cfg *Config) {
		cfg.Payload = plainSource{}
		cfg.Hooks.OnPayloadOffer = func(types.PartyID, types.Round, int, string, time.Duration) { fired++ }
	})
	c.outs = append(c.outs, c.eng.Init(0)...)
	c.deliver(c.perm[1], &types.PayloadOffer{Round: 1, ParentHash: c.eng.Pool().RootHash(), Payload: []byte("x")}, 0)
	c.enterRound1()
	for _, held := range c.eng.offers {
		if held != nil {
			t.Fatal("an offer is held for a source that cannot merge it")
		}
	}
	for _, o := range c.outs {
		if _, ok := o.Msg.(*types.PayloadOffer); ok {
			t.Fatal("an offer was sent for a source that does not delegate")
		}
		if b, ok := o.Msg.(*types.Bundle); ok {
			if bm, ok := b.Messages[0].(*types.BlockMsg); ok && !bytes.Equal(bm.Block.Payload, []byte("own payload")) {
				t.Fatalf("proposed %q", bm.Block.Payload)
			}
		}
	}
	if fired != 0 {
		t.Fatalf("OnPayloadOffer fired %d times", fired)
	}
}

// offeringSource is a DelegatedPayloadSource that always has something to
// propose and counts how often it is asked.
type offeringSource struct {
	cuts, merged int
}

func (s *offeringSource) GetPayload(k types.Round, _ *types.Block, _ func(hash.Digest) *types.Block) []byte {
	s.cuts++
	return []byte{byte(k)}
}

func (s *offeringSource) GetPayloadWith(k types.Round, parent *types.Block, lookup func(hash.Digest) *types.Block, delegated [][]byte) []byte {
	s.merged += len(delegated)
	return s.GetPayload(k, parent, lookup)
}

// TestNoPayloadOfferDuringReplay runs a WAL-backed cluster whose payload
// sources delegate, checks that offers flowed and that none reached a
// log, then replays one party's log into a fresh engine: the replay asks
// the beacon for no next leader, cuts no payload, reports and queues no
// offer.
func TestNoPayloadOfferDuringReplay(t *testing.T) {
	const n = 4
	var (
		beacons []*observingSource
		sources []*offeringSource
		sent    []int
	)
	h := newDurableHarness(t, durableOptions{
		n: n, seed: 41,
		wrapBeacon: func(src beacon.Source) beacon.Source {
			o := &observingSource{Source: src}
			beacons = append(beacons, o)
			return o
		},
		conf: func(i int, cfg *Config) {
			src := &offeringSource{}
			sources = append(sources, src)
			sent = append(sent, 0)
			build := len(sent) - 1
			cfg.Epsilon = 50 * time.Millisecond // the next leader is known when shares are cast
			cfg.Payload = src
			cfg.Hooks.OnPayloadOffer = func(_ types.PartyID, _ types.Round, _ int, outcome string, _ time.Duration) {
				if outcome == OfferSent {
					sent[build]++
				}
			}
		},
	})
	h.net.Start()
	h.runUntilFinalized(t, 30, 0, 1, 2, 3)
	for i := 0; i < n; i++ {
		if sent[i] == 0 || sources[i].merged == 0 {
			t.Errorf("party %d sent %d offers and merged %d in 30 rounds: the live path was not exercised", i, sent[i], sources[i].merged)
		}
		if beacons[i].leaderAsks == 0 {
			t.Errorf("party %d never asked for the next round's leader", i)
		}
	}

	h.net.Crash(0)
	rec := h.recoverParty(t, 0)
	if rec.CurrentRound() < 10 {
		t.Fatalf("replay reached round %d only", rec.CurrentRound())
	}
	if b := beacons[n]; b.leaderAsks != 0 {
		t.Errorf("%d asks for the next leader during WAL replay", b.leaderAsks)
	}
	if s := sources[n]; s.cuts != 0 || s.merged != 0 {
		t.Errorf("replay cut %d payloads and merged %d offers", s.cuts, s.merged)
	}
	if sent[n] != 0 {
		t.Errorf("replay reported %d offers sent", sent[n])
	}
	for _, o := range rec.out {
		if _, ok := o.Msg.(*types.PayloadOffer); ok {
			t.Error("a payload offer is queued for sending after replay")
		}
	}
	if err := h.wals[0].Replay(func(m types.Message) {
		if _, ok := m.(*types.PayloadOffer); ok {
			t.Error("a payload offer was written to the WAL")
		}
	}); err != nil {
		t.Fatal(err)
	}
}

// echoWatch hosts one engine in simnet and counts the echoes it receives:
// bundles that carry a block and were not sent by its proposer.
type echoWatch struct {
	*Engine
	echoes, ownBack int
}

func (w *echoWatch) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	if b, ok := m.(*types.Bundle); ok && len(b.Messages) > 0 {
		if bm, ok := b.Messages[0].(*types.BlockMsg); ok && bm.Block.Proposer != from {
			w.echoes++
			if bm.Block.Proposer == w.ID() {
				w.ownBack++
			}
		}
	}
	return w.Engine.HandleMessage(from, m, now)
}

// TestEchoSkipsTheProposer: every party still gets every block echoed by
// every other party, except the one block per round it proposed itself.
func TestEchoSkipsTheProposer(t *testing.T) {
	const n, rounds = 4, 12
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Options{Seed: 5, Delay: simnet.Fixed{D: 10 * time.Millisecond}})
	ws := make([]*echoWatch, n)
	for i := range ws {
		ws[i] = &echoWatch{Engine: NewEngine(Config{
			Self: types.PartyID(i), Keys: pub, Priv: privs[i], DeltaBound: 100 * time.Millisecond,
			Beacon: beacon.NewSimulated(n, types.PartyID(i), pub.GenesisSeed),
		})}
		net.AddNode(ws[i], true)
	}
	net.Start()
	if !net.RunUntil(func() bool { return ws[0].FinalizedRound() >= rounds && ws[n-1].FinalizedRound() >= rounds }, time.Minute) {
		t.Fatal("no progress")
	}
	for i, w := range ws {
		if w.ownBack != 0 {
			t.Errorf("party %d was sent its own block back %d times", i, w.ownBack)
		}
		if w.echoes == 0 {
			t.Errorf("party %d received no echo at all", i)
		}
	}
}
