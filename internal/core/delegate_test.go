package core

// Tests for delegated payloads (delegate.go): where the stream sends a
// party's commands and when, what a Byzantine sender can do to the party
// it forwards to, that the outcomes add up, and that nothing of it runs
// during WAL replay. The Seq rule that keeps a client's commands in order
// without binding a forward to a parent is tested in internal/statemachine
// and across forked rounds in internal/harness/delegation_test.go.

import (
	"bytes"
	"crypto/rand"
	"strings"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/crypto/sig"
	"icc/internal/engine"
	"icc/internal/simnet"
	"icc/internal/statemachine"
	"icc/internal/types"
	"icc/internal/wal"
)

func kvCommand(client, seq uint64) statemachine.Command {
	return statemachine.Command{Client: client, Seq: seq, Op: statemachine.OpSet, Key: "k", Value: []byte{byte(seq)}}
}

func forward(cmds ...statemachine.Command) *types.PayloadOffer {
	return &types.PayloadOffer{Round: 1, Payload: statemachine.EncodePayload(cmds)}
}

// outcomeCounter returns a hook that adds the commands of each outcome up.
func outcomeCounter(outcomes map[string]int) func(types.PartyID, types.Round, int, string, time.Duration) {
	return func(_ types.PartyID, _ types.Round, cmds int, outcome string, _ time.Duration) {
		outcomes[outcome] += cmds
	}
}

// commit hands the engine every other party's notarization and
// finalization shares for b at now: round 1 finishes on b and b commits.
func (c *choreography) commit(b *types.Block, now time.Duration) {
	c.t.Helper()
	var shares []types.Message
	for _, p := range c.perm {
		if p != c.eng.ID() {
			shares = append(shares, c.nshare(b, p), c.fshare(b, p))
		}
	}
	c.deliver(c.perm[0], &types.Bundle{Messages: shares}, now)
	if c.eng.FinalizedRound() != 1 {
		c.t.Fatalf("round 1 did not commit on %s", b.Hash().Short())
	}
}

// TestByzantineOffersAreBoundedAndHarmless feeds the round-1 leader, before
// it enters the round, everything a corrupt sender can forward, and then
// lets it propose.
func TestByzantineOffersAreBoundedAndHarmless(t *testing.T) {
	const n = 7
	queue := statemachine.NewQueue()
	outcomes := make(map[string]int)
	c := newChoreographyWith(t, n, 0, 100*time.Millisecond, func(cfg *Config) {
		cfg.Payload = queue
		cfg.Hooks.OnPayloadOffer = outcomeCounter(outcomes)
		cfg.Hooks.OnCommit = func(b *types.Block, _ time.Duration) { queue.MarkCommitted(b.Payload) }
	})
	self := c.eng.ID()
	peers := c.perm[1:] // the other parties, by rank
	for s := uint64(1); s <= 2; s++ {
		if err := queue.TrySubmit(kvCommand(100, s)); err != nil {
			t.Fatal(err)
		}
	}
	c.outs = append(c.outs, c.eng.Init(0)...)

	flooder, garbler, gapper, repeater, stale, honest := peers[0], peers[1], peers[2], peers[3], peers[4], peers[5]
	// A flood from one sender: it is held up to one payload's bytes, and
	// the rest is refused.
	huge := func(seq uint64) statemachine.Command {
		return statemachine.Command{Client: 1, Seq: seq, Op: statemachine.OpSet, Key: "k", Value: make([]byte, 1<<20)}
	}
	for s := uint64(1); s <= 5; s++ {
		c.deliver(flooder, forward(huge(s)), 0)
	}
	// Bytes that are no payload at all, and bytes past any payload.
	c.deliver(garbler, &types.PayloadOffer{Round: 1, Payload: []byte("\xff\xff\xff\xffnot commands")}, 0)
	c.deliver(garbler, &types.PayloadOffer{Round: 1, Payload: make([]byte, types.MaxPayloadBytes+1)}, 0)
	// A gapped Seq: 4/1 is nowhere, so 4/2 must never ride.
	c.deliver(gapper, forward(kvCommand(4, 2)), 0)
	// The same command twice.
	c.deliver(repeater, forward(kvCommand(5, 1)), 0)
	c.deliver(repeater, forward(kvCommand(5, 1)), 0)
	// A round long gone and one absurdly far ahead: the round a forward
	// names binds nothing.
	c.deliver(stale, &types.PayloadOffer{Round: 0, Payload: statemachine.EncodePayload([]statemachine.Command{kvCommand(6, 1)})}, 0)
	c.deliver(stale, &types.PayloadOffer{Round: 1 << 60, Payload: statemachine.EncodePayload([]statemachine.Command{kvCommand(6, 2)})}, 0)
	// Senders that are no party of this cluster, or the party itself.
	c.deliver(types.PartyID(n+5), forward(kvCommand(8, 1)), 0)
	c.deliver(types.PartyID(-1), forward(kvCommand(8, 1)), 0)
	c.deliver(self, forward(kvCommand(8, 1)), 0)
	c.deliver(honest, forward(kvCommand(7, 1)), 0)
	if want := (map[string]int{OfferHeld: 3 + 1 + 1 + 2 + 1, OfferRefused: 2 + 2 + 1 + 3}); outcomes[OfferHeld] != want[OfferHeld] || outcomes[OfferRefused] != want[OfferRefused] {
		t.Fatalf("outcomes %v on arrival, want %v", outcomes, want)
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
	if len(proposal.Payload) > types.MaxPayloadBytes {
		t.Fatalf("proposed %d payload bytes, peers refuse blocks above %d", len(proposal.Payload), types.MaxPayloadBytes)
	}
	got := make(map[[2]uint64]int)
	for i, cm := range cmds {
		got[[2]uint64{cm.Client, cm.Seq}] = i + 1
	}
	for _, want := range [][2]uint64{{100, 1}, {100, 2}, {1, 1}, {1, 2}, {1, 3}, {5, 1}, {6, 1}, {6, 2}, {7, 1}} {
		if got[want] == 0 {
			t.Errorf("command %v is missing from the proposal %v", want, got)
		}
	}
	if got[[2]uint64{100, 1}] != 1 || got[[2]uint64{100, 2}] != 2 {
		t.Errorf("the proposer's own commands do not come first: %v", got)
	}
	if got[[2]uint64{1, 1}] > got[[2]uint64{1, 2}] || got[[2]uint64{1, 2}] > got[[2]uint64{1, 3}] {
		t.Errorf("a sender's commands changed order: %v", got)
	}
	if len(cmds) != 9 {
		t.Errorf("%d commands proposed, want the 9 forwarded in good order: %v", len(cmds), got)
	}
	if outcomes[OfferMerged] != 7 {
		t.Errorf("%d commands reported merged, want 7 (all: %v)", outcomes[OfferMerged], outcomes)
	}

	// Once the block commits, what it carried is no longer held: the next
	// cut holds the gapped command back still, and nothing else.
	c.commit(proposal, time.Millisecond)
	if next := queue.GetPayload(2, proposal, c.eng.Pool().Block); next != nil {
		t.Errorf("after the commit the queue still cuts %d bytes", len(next))
	}
	if outcomes[OfferExpired] != 0 {
		t.Errorf("%d merged commands reported expired as well", outcomes[OfferExpired])
	}
}

// plainSource has no Forward or Hold: the engine must neither send nor
// keep forwards on its behalf.
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
	c.deliver(c.perm[1], forward(kvCommand(1, 1)), 0)
	c.enterRound1()
	if c.eng.Wake() != nil {
		t.Error("an engine whose source does not delegate has a wake channel")
	}
	for _, o := range c.outs {
		if _, ok := o.Msg.(*types.PayloadOffer); ok {
			t.Fatal("a forward was sent for a source that does not delegate")
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

// streamBound is Δbnd of streamRound's and leaderWithOffer's engines.
const streamBound = 100 * time.Millisecond

// streamRound builds a choreography around an engine with a Queue at
// rank 2 of round 1 that is not the leader of round 2, enters round 1 at
// time 0 and hands it every party's round-2 beacon share, so that it
// knows Leader(2) from Δprop(0)/2 on (precomputeBeacon). The leader is
// read from a reference beacon, which combines R_2 at once.
func streamRound(t *testing.T, epsilon time.Duration) (*choreography, *statemachine.Queue, types.PartyID) {
	t.Helper()
	for try := 0; try < 32; try++ {
		q := statemachine.NewQueue()
		c := newChoreographyWith(t, 4, 2, streamBound, func(cfg *Config) {
			cfg.Epsilon = epsilon
			cfg.Payload = q
		})
		c.start()
		for i, b := range c.beacons {
			// Each reference beacon signs round 2 over R_1.
			for _, other := range c.beacons {
				s, err := other.ShareForRound(1)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := b.AddShare(s); err != nil {
					t.Fatal(err)
				}
			}
			if _, ok := b.Reveal(1); !ok {
				t.Fatal("reveal of round 1 failed")
			}
			if pid := types.PartyID(i); pid != c.eng.ID() {
				s, err := b.ShareForRound(2)
				if err != nil {
					t.Fatal(err)
				}
				c.deliver(pid, s, 0)
			}
		}
		ref := c.beacons[0]
		for _, b := range c.beacons[1:] {
			s, err := b.ShareForRound(2)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ref.AddShare(s); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := ref.Reveal(2); !ok {
			t.Fatal("reveal of round 2 failed")
		}
		leader, _ := ref.Leader(2)
		if leader != c.eng.ID() {
			return c, q, leader
		}
	}
	t.Fatal("the party at rank 2 led round 2 for every key set dealt")
	return nil, nil, 0
}

// forwardsTo lists, in order, the commands forwarded to party to so far.
func (c *choreography) forwardsTo(to types.PartyID) []statemachine.Command {
	c.t.Helper()
	var cmds []statemachine.Command
	for _, o := range c.outs {
		if po, ok := o.Msg.(*types.PayloadOffer); ok && !o.Broadcast && o.To == to {
			got, err := statemachine.DecodePayload(po.Payload)
			if err != nil {
				c.t.Fatalf("a forward to %d does not decode: %v", to, err)
			}
			cmds = append(cmds, got...)
		}
	}
	return cmds
}

func seqsOf(cmds []statemachine.Command) []uint64 {
	var seqs []uint64
	for _, c := range cmds {
		seqs = append(seqs, c.Seq)
	}
	return seqs
}

func (c *choreography) submit(q *statemachine.Queue, cmds ...statemachine.Command) {
	c.t.Helper()
	for _, cm := range cmds {
		if err := q.TrySubmit(cm); err != nil {
			c.t.Fatal(err)
		}
	}
}

// TestStreamFeedsRankZeroThenRankOneWhileTheLeaderIsSilent: at ε = 50 ms
// a command admitted before Δntry(0), the latest the leader's cut can
// fall, goes to rank 0 at the end of the turn, once; after it nothing more
// goes there. With no rank-0 block Δbnd after the standard Δprop(0)
// (NextWake names that instant),
// everything goes to rank 1 until its own cut at Δprop(1), and nothing
// once a rank-0 block is in.
func TestStreamFeedsRankZeroThenRankOneWhileTheLeaderIsSilent(t *testing.T) {
	const epsilon = 50 * time.Millisecond
	c, q, next := streamRound(t, epsilon)
	for try := 0; next == c.perm[1]; try++ { // rank 1 must not be Leader(2), the next target
		if try == 32 {
			t.Fatal("rank 1 led round 2 for every key set dealt")
		}
		c, q, next = streamRound(t, epsilon)
	}
	prop, ntry := types.StandardDelays(streamBound, epsilon)
	rank0, rank1 := c.perm[0], c.perm[1]
	c.submit(q, kvCommand(1, 1))
	c.tick(time.Millisecond)
	c.tick(2 * time.Millisecond)
	if got := seqsOf(c.forwardsTo(rank0)); len(got) != 1 || got[0] != 1 {
		t.Fatalf("forwarded %v to rank 0 before its cut, want command 1 once", got)
	}
	c.submit(q, kvCommand(1, 2))
	afterCut := ntry(0) + 5*time.Millisecond
	c.tick(afterCut)
	if got := seqsOf(c.forwardsTo(rank0)); len(got) != 1 {
		t.Fatalf("forwarded %v to rank 0, want nothing after Δntry(0)", got)
	}
	overdue := prop(0) + streamBound
	if at, ok := c.eng.NextWake(afterCut); !ok || at != overdue {
		t.Fatalf("next wake %v (%v), want the turn to rank 1 at %v", at, ok, overdue)
	}
	c.tick(overdue - 1)
	if got := c.forwardsTo(rank1); len(got) != 0 {
		t.Fatalf("forwarded %v to rank 1 before the rank-0 block was overdue", seqsOf(got))
	}
	c.tick(overdue)
	if got := seqsOf(c.forwardsTo(rank1)); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("forwarded %v to rank 1 once the leader was overdue, want commands 1 and 2", got)
	}
	_, bundle := c.block(0, "late")
	c.deliver(rank0, bundle, overdue+5*time.Millisecond)
	c.submit(q, kvCommand(1, 3))
	c.tick(overdue + 15*time.Millisecond)
	if got := seqsOf(c.forwardsTo(rank1)); len(got) != 2 {
		t.Fatalf("forwarded %v to rank 1 after the rank-0 block arrived", got)
	}
}

// TestStreamFeedsTheNextLeaderOnceItHoldsABlock: a command admitted after
// the leader's cut goes to Leader(2) as soon as a round-1 block is in,
// without the commands that block carries; a later admission follows on
// its own.
func TestStreamFeedsTheNextLeaderOnceItHoldsABlock(t *testing.T) {
	const epsilon = 50 * time.Millisecond
	c, q, next := streamRound(t, epsilon)
	_, ntry := types.StandardDelays(streamBound, epsilon)
	afterCut := ntry(0) + 5*time.Millisecond // Leader(2) may be round 1's rank 0, fed until Δntry(0)
	inBlock, after := kvCommand(1, 1), kvCommand(1, 2)
	c.submit(q, inBlock, after)
	c.tick(afterCut)
	if got := c.forwardsTo(next); len(got) != 0 {
		t.Fatalf("forwarded %v to Leader(2) with no round-1 block held", seqsOf(got))
	}
	b := &types.Block{Round: 1, Proposer: c.perm[0], ParentHash: c.eng.Pool().RootHash(),
		Payload: statemachine.EncodePayload([]statemachine.Command{inBlock})}
	c.deliver(c.perm[0], c.bundleOf(b), afterCut+10*time.Millisecond)
	if got := seqsOf(c.forwardsTo(next)); len(got) != 1 || got[0] != 2 {
		t.Fatalf("forwarded %v to Leader(2) on the block's arrival, want command 2 alone", got)
	}
	c.submit(q, kvCommand(1, 3))
	c.tick(afterCut + 11*time.Millisecond)
	if got := seqsOf(c.forwardsTo(next)); len(got) != 2 || got[1] != 3 {
		t.Fatalf("forwarded %v to Leader(2), want command 3 after command 2", got)
	}
}

// bundleOf signs b as its proposer's and bundles it with the signature.
func (c *choreography) bundleOf(b *types.Block) *types.Bundle {
	auth := &types.Authenticator{
		Round: b.Round, Proposer: b.Proposer, BlockHash: b.Hash(),
		Sig: sig.Sign(c.privs[b.Proposer].Auth, types.DomainAuthenticator, types.SigningBytes(b.Round, b.Proposer, b.Hash())),
	}
	return &types.Bundle{Messages: []types.Message{&types.BlockMsg{Block: b}, auth}}
}

// TestOfferLeavesWithTheShareAtZeroEpsilon: with ε = 0 the leader's block
// is shared the moment it arrives, and the forward to the next leader
// leaves in the same turn, ahead of that share: the share may be the one
// that lets the next leader finish the round and cut.
func TestOfferLeavesWithTheShareAtZeroEpsilon(t *testing.T) {
	c, q, next := streamRound(t, 0)
	c.submit(q, kvCommand(1, 1))
	c.tick(5 * time.Millisecond)
	if n := len(c.forwardsTo(next)); n != 0 {
		t.Fatalf("%d commands forwarded at ε = 0 with no block in the round", n)
	}
	b0, bundle := c.block(0, "b0")
	before := len(c.outs)
	c.deliver(c.perm[0], bundle, 10*time.Millisecond)
	offerAt, shareAt := -1, -1
	for i, o := range c.outs[before:] {
		switch m := o.Msg.(type) {
		case *types.PayloadOffer:
			if o.To == next {
				offerAt = i
			}
		case *types.NotarizationShare:
			if m.Signer == c.eng.ID() {
				shareAt = i
			}
		}
	}
	if offerAt < 0 || shareAt < 0 || offerAt > shareAt {
		t.Fatalf("on the block's arrival: forward at output %d, own share at %d; want both, the forward first", offerAt, shareAt)
	}
	c.deliver(c.perm[1], c.nshare(b0, c.perm[1]), 20*time.Millisecond)
	if n := len(c.forwardsTo(next)); n != 1 {
		t.Fatalf("%d commands forwarded to Leader(2), want 1", n)
	}
}

// leaderWithOffer builds a choreography around the leader of round 1 with
// a Queue, enters the round at time 0 and delivers a forward from the
// party ranked second at 10 ms. It returns the outcomes reported.
func leaderWithOffer(t *testing.T, epsilon time.Duration) (*choreography, map[string]int) {
	t.Helper()
	outcomes := make(map[string]int)
	c := newChoreographyWith(t, 4, 0, streamBound, func(cfg *Config) {
		cfg.Epsilon = epsilon
		cfg.Payload = statemachine.NewQueue()
		cfg.Hooks.OnPayloadOffer = outcomeCounter(outcomes)
	})
	c.start()
	c.deliver(c.perm[1], forward(kvCommand(1, 1)), 10*time.Millisecond)
	return c, outcomes
}

// TestOfferAfterEntryIsMergedAtPositiveEpsilon: with ε = 50 ms the leader
// cuts its block at Δprop(0), not on entry, so a forward that reaches it
// 10 ms into the round rides the block.
func TestOfferAfterEntryIsMergedAtPositiveEpsilon(t *testing.T) {
	const epsilon = 50 * time.Millisecond
	c, outcomes := leaderWithOffer(t, epsilon)
	prop, _ := types.StandardDelays(streamBound, epsilon)
	if n := c.proposals(); n != 0 {
		t.Fatalf("%d proposals before Δprop(0)", n)
	}
	if at, ok := c.eng.NextWake(10 * time.Millisecond); !ok || at != prop(0) {
		t.Fatalf("next wake %v (%v), want Δprop(0) = %v", at, ok, prop(0))
	}
	c.tick(prop(0))
	if n := c.proposals(); n != 1 {
		t.Fatalf("%d proposals at Δprop(0), want 1", n)
	}
	if outcomes[OfferHeld] != 1 || outcomes[OfferMerged] != 1 {
		t.Fatalf("outcomes %v; want the one command held and merged", outcomes)
	}
}

// TestLeaderProposesOnEntryAtZeroEpsilon: with ε = 0 the delays are eq. (2)
// exactly, so the leader proposes the moment it enters the round, and a
// forward 10 ms later is held for a later block.
func TestLeaderProposesOnEntryAtZeroEpsilon(t *testing.T) {
	c, outcomes := leaderWithOffer(t, 0)
	if n := c.proposals(); n != 1 {
		t.Fatalf("%d proposals on entry, want 1", n)
	}
	if outcomes[OfferHeld] != 1 || outcomes[OfferMerged] != 0 {
		t.Fatalf("outcomes %v; want the command held and not merged", outcomes)
	}
}

// TestOfferForARoundNotProposedInExpires: a command held by a party that
// never proposes it is dropped, expired, when another party's block
// commits it.
func TestOfferForARoundNotProposedInExpires(t *testing.T) {
	outcomes := make(map[string]int)
	q := statemachine.NewQueue()
	c := newChoreographyWith(t, 4, 1, 100*time.Millisecond, func(cfg *Config) {
		cfg.Payload = q
		cfg.Hooks.OnPayloadOffer = outcomeCounter(outcomes)
		cfg.Hooks.OnCommit = func(b *types.Block, _ time.Duration) { q.MarkCommitted(b.Payload) }
	})
	c.start()
	cmd := kvCommand(9, 1)
	c.deliver(c.perm[2], forward(cmd), time.Millisecond)
	b0 := &types.Block{Round: 1, Proposer: c.perm[0], ParentHash: c.eng.Pool().RootHash(),
		Payload: statemachine.EncodePayload([]statemachine.Command{cmd})}
	c.deliver(b0.Proposer, c.bundleOf(b0), 2*time.Millisecond)
	c.commit(b0, 3*time.Millisecond)
	if want := (map[string]int{OfferHeld: 1, OfferExpired: 1}); len(outcomes) != 2 || outcomes[OfferHeld] != 1 || outcomes[OfferExpired] != 1 {
		t.Fatalf("outcomes %v, want %v", outcomes, want)
	}
	if next := q.GetPayload(2, b0, c.eng.Pool().Block); next != nil {
		t.Fatal("the committed command is still held")
	}
}

// feedingEngine admits one command of its party's own client into the
// party's queue for every interval of virtual time that has passed, up
// to a count, as a gateway would.
type feedingEngine struct {
	engine.Engine
	q            *statemachine.Queue
	client       uint64
	every        time.Duration
	sent, target uint64
}

func (f *feedingEngine) feed(now time.Duration) {
	for f.sent < f.target && time.Duration(f.sent)*f.every <= now {
		f.sent++
		if err := f.q.TrySubmit(kvCommand(f.client, f.sent)); err != nil {
			panic(err)
		}
	}
}

func (f *feedingEngine) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	f.feed(now)
	return f.Engine.HandleMessage(from, m, now)
}

func (f *feedingEngine) Tick(now time.Duration) []engine.Output {
	f.feed(now)
	return f.Engine.Tick(now)
}

// TestOfferOutcomesAddUp: on a cluster that loses nothing, once every
// command is committed everywhere, every command forwarded was held or
// refused by its receiver, and every held one was merged or expired —
// so merged / held means what it says.
func TestOfferOutcomesAddUp(t *testing.T) {
	const n, commands = 4, 150
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	// Party 3's links take 20 ms, more than the ε/4 between a leader's cut
	// and its Δntry: some of its forwards land after the cut they aimed at
	// and expire, while the others' 5 ms forwards are merged.
	links := make([][]time.Duration, n)
	for i := range links {
		links[i] = make([]time.Duration, n)
		for j := range links[i] {
			links[i][j] = 5 * time.Millisecond
			if i == n-1 || j == n-1 {
				links[i][j] = 20 * time.Millisecond
			}
		}
	}
	net := simnet.New(simnet.Options{Seed: 9, Delay: &simnet.LinkMatrix{Base: links}})
	outcomes := make(map[string]int)
	kvs := make([]*statemachine.KV, n)
	for i := range kvs {
		q, kv := statemachine.NewQueue(), statemachine.NewKV()
		kvs[i] = kv
		eng := NewEngine(Config{
			Self: types.PartyID(i), Keys: pub, Priv: privs[i], DeltaBound: 100 * time.Millisecond, Epsilon: 50 * time.Millisecond,
			Beacon:  beacon.NewSimulated(n, types.PartyID(i), pub.GenesisSeed),
			Payload: q,
			Hooks: Hooks{
				OnPayloadOffer: outcomeCounter(outcomes),
				OnCommit: func(b *types.Block, _ time.Duration) {
					_ = kv.Apply(b.Payload)
					q.MarkCommitted(b.Payload)
				},
			},
		})
		net.AddNode(&feedingEngine{Engine: eng, q: q, client: uint64(i + 1), every: 7 * time.Millisecond, target: commands}, true)
	}
	net.Start()
	if !net.RunUntil(func() bool {
		for _, kv := range kvs {
			for c := uint64(1); c <= n; c++ {
				if kv.AppliedSeq(c) < commands {
					return false
				}
			}
		}
		return true
	}, time.Minute) {
		t.Fatal("not every command was committed everywhere")
	}
	net.Run(net.Now() + time.Second) // forwards still in flight land
	if outcomes[OfferSent] != outcomes[OfferHeld]+outcomes[OfferRefused] {
		t.Errorf("%d commands sent, %d held + %d refused: %v", outcomes[OfferSent], outcomes[OfferHeld], outcomes[OfferRefused], outcomes)
	}
	if outcomes[OfferHeld] != outcomes[OfferMerged]+outcomes[OfferExpired] {
		t.Errorf("%d commands held, %d merged + %d expired: %v", outcomes[OfferHeld], outcomes[OfferMerged], outcomes[OfferExpired], outcomes)
	}
	if outcomes[OfferMerged] == 0 || outcomes[OfferExpired] == 0 {
		t.Errorf("the run exercised neither merges nor expiry: %v", outcomes)
	}
	t.Logf("outcomes: %v", outcomes)
}

// countingQueue counts the engine's cuts and non-empty forwards.
type countingQueue struct {
	*statemachine.Queue
	cuts, forwards int
}

func (q *countingQueue) GetPayload(k types.Round, parent *types.Block, lookup func(hash.Digest) *types.Block) []byte {
	q.cuts++
	return q.Queue.GetPayload(k, parent, lookup)
}

func (q *countingQueue) Forward(to types.PartyID, parent *types.Block, lookup func(hash.Digest) *types.Block) ([]byte, int) {
	payload, cmds := q.Queue.Forward(to, parent, lookup)
	if cmds > 0 {
		q.forwards++
	}
	return payload, cmds
}

// TestNoPayloadOfferDuringReplay runs a WAL-backed cluster whose parties
// each admit a command of their own every round, checks that forwards flowed and were
// merged and that none reached a log, then replays one party's log into
// a fresh engine: the replay asks the beacon for no next leader, cuts no
// payload, forwards nothing and wakes for no forward.
func TestNoPayloadOfferDuringReplay(t *testing.T) {
	const n = 4
	var (
		beacons []*observingSource
		queues  []*countingQueue
	)
	outcomes := make(map[string]int)
	h := newDurableHarness(t, durableOptions{
		n: n, seed: 41,
		wrapBeacon: func(src beacon.Source) beacon.Source {
			o := &observingSource{Source: src}
			beacons = append(beacons, o)
			return o
		},
		conf: func(i int, cfg *Config) {
			q := &countingQueue{Queue: statemachine.NewQueue()}
			queues = append(queues, q)
			cfg.Epsilon = 50 * time.Millisecond // rank 0 cuts after entry
			cfg.Payload = q
			cfg.Hooks.OnPayloadOffer = outcomeCounter(outcomes)
			// A command of the party's own client every round it enters
			// (never during replay).
			cfg.Hooks.OnEnterRound = func(k types.Round, _ time.Duration) {
				_ = q.TrySubmit(kvCommand(uint64(i+1), uint64(k)))
			}
		},
	})
	h.net.Start()
	h.runUntilFinalized(t, 30, 0, 1, 2, 3)
	for i := 0; i < n; i++ {
		if queues[i].forwards == 0 {
			t.Errorf("party %d forwarded nothing in 30 rounds: the live path was not exercised", i)
		}
		if beacons[i].leaderAsks == 0 {
			t.Errorf("party %d never asked for the next round's leader", i)
		}
	}
	if outcomes[OfferMerged] == 0 {
		t.Errorf("no forwarded command was merged: %v", outcomes)
	}

	h.net.Crash(0)
	sent := outcomes[OfferSent]
	rec := h.recoverParty(t, 0)
	if rec.CurrentRound() < 10 {
		t.Fatalf("replay reached round %d only", rec.CurrentRound())
	}
	if b := beacons[n]; b.leaderAsks != 0 {
		t.Errorf("%d asks for the next leader during WAL replay", b.leaderAsks)
	}
	if q := queues[n]; q.cuts != 0 || q.forwards != 0 {
		t.Errorf("replay cut %d payloads and sent %d forwards", q.cuts, q.forwards)
	}
	if outcomes[OfferSent] != sent {
		t.Errorf("replay reported %d commands sent", outcomes[OfferSent]-sent)
	}
	for _, o := range rec.out {
		if _, ok := o.Msg.(*types.PayloadOffer); ok {
			t.Error("a forward is queued for sending after replay")
		}
	}
	if err := h.wals[0].Replay(func(m types.Message) {
		if _, ok := m.(*types.PayloadOffer); ok {
			t.Error("a forward was written to the WAL")
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

// TestPayloadBoundOnDefaultEngine: an engine configured with no bound at
// all enforces types.MaxPayloadBytes. A block one byte over it is
// rejected through OnRejectedMessage and reaches neither the pool nor the
// WAL, while a block exactly at the bound is admitted and logged; a
// forward one byte over is refused, and one at the bound is held.
func TestPayloadBoundOnDefaultEngine(t *testing.T) {
	dir := t.TempDir()
	log, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rejects := 0
	outcomes := make(map[string]int)
	c := newChoreographyWith(t, 4, 1, 100*time.Millisecond, func(cfg *Config) {
		cfg.Payload = statemachine.NewQueue()
		cfg.WAL = log
		cfg.Hooks.OnRejectedMessage = func(types.PartyID, string) { rejects++ }
		cfg.Hooks.OnPayloadOffer = outcomeCounter(outcomes)
	})
	c.start()

	over, overBundle := c.block(0, strings.Repeat("x", types.MaxPayloadBytes+1))
	c.deliver(over.Proposer, overBundle, time.Millisecond)
	if rejects != 1 {
		t.Fatalf("%d rejects for a block one byte over the payload bound, want 1", rejects)
	}
	if c.eng.Pool().Block(over.Hash()) != nil {
		t.Fatal("a block one byte over the payload bound is in the pool")
	}
	at, atBundle := c.block(2, strings.Repeat("x", types.MaxPayloadBytes))
	c.deliver(at.Proposer, atBundle, 2*time.Millisecond)
	if rejects != 1 || c.eng.Pool().Block(at.Hash()) == nil {
		t.Fatalf("a block at the payload bound was not admitted (%d rejects)", rejects)
	}

	sender := c.perm[3]
	c.deliver(sender, &types.PayloadOffer{Round: 2, Payload: make([]byte, types.MaxPayloadBytes+1)}, 3*time.Millisecond)
	if outcomes[OfferRefused] != 1 || outcomes[OfferHeld] != 0 {
		t.Fatalf("a forward one byte over the payload bound was not refused: outcomes %v", outcomes)
	}
	// One command that fills a payload exactly: 4 bytes of count, 25 of
	// fixed fields, a one-byte key, the rest value.
	full := statemachine.Command{Client: 1, Seq: 1, Op: statemachine.OpSet, Key: "k", Value: make([]byte, types.MaxPayloadBytes-30)}
	atBound := statemachine.EncodePayload([]statemachine.Command{full})
	if len(atBound) != types.MaxPayloadBytes {
		t.Fatalf("the forward at the bound is %d bytes", len(atBound))
	}
	c.deliver(sender, &types.PayloadOffer{Round: 2, Payload: atBound}, 4*time.Millisecond)
	if outcomes[OfferRefused] != 1 || outcomes[OfferHeld] != 1 {
		t.Fatalf("a forward at the payload bound was not held: outcomes %v", outcomes)
	}

	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	reopened, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	logged := make(map[hash.Digest]bool)
	if err := reopened.Replay(func(m types.Message) {
		if bm, ok := m.(*types.BlockMsg); ok {
			logged[bm.Block.Hash()] = true
		}
	}); err != nil {
		t.Fatal(err)
	}
	if logged[over.Hash()] || !logged[at.Hash()] {
		t.Fatalf("WAL holds the block over the bound: %v, the block at it: %v", logged[over.Hash()], logged[at.Hash()])
	}
}
