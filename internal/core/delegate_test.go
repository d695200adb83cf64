package core

// Tests for delegated payloads (delegate.go): what a Byzantine sender can
// do to the party it sends offers to, and that nothing of the mechanism
// runs during WAL replay. The ordering argument (an offer is used on the
// parent it was cut against and on no other) is tested across forked
// rounds in internal/harness/delegation_test.go.

import (
	"bytes"
	"crypto/rand"
	"encoding/binary"
	"strings"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/simnet"
	"icc/internal/statemachine"
	"icc/internal/types"
	"icc/internal/wal"
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
		cfg.Hooks.OnPayloadOffer = func(_ types.PartyID, _ types.Round, _ int, outcome string, _ time.Duration) {
			outcomes[outcome]++
		}
	})
	c.eng.maxPayload = maxPayload
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
	// Above maxPayload: refused, and the sender's earlier offer survives.
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
			t.Errorf("an offer of %d bytes from party %d is held, maxPayload is %d", len(o.Payload), from, maxPayload)
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
	want := map[string]int{OfferMerged: 4, OfferParentMismatch: 1, OfferRefused: 4, OfferLate: 2, OfferSuperseded: 200}
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
// propose — the round, then extra — counts how often it is asked and
// keeps what it was handed to merge.
type offeringSource struct {
	cuts, merged int
	extra        []byte
	delegated    [][]byte
}

func (s *offeringSource) GetPayload(k types.Round, _ *types.Block, _ func(hash.Digest) *types.Block) []byte {
	s.cuts++
	return append([]byte{byte(k)}, s.extra...)
}

func (s *offeringSource) GetPayloadWith(k types.Round, parent *types.Block, lookup func(hash.Digest) *types.Block, delegated [][]byte) []byte {
	s.merged += len(delegated)
	s.delegated = append(s.delegated, delegated...)
	return s.GetPayload(k, parent, lookup)
}

// offerRound builds a choreography around a delegating engine at rank 2
// of round 1 that is not the leader of round 2, enters round 1 at time 0
// and hands it every party's round-2 beacon share, so that it knows
// Leader(2) — the addressee of its offers — from then on.
func offerRound(t *testing.T, epsilon time.Duration) (*choreography, types.PartyID) {
	t.Helper()
	for try := 0; try < 32; try++ {
		c := newChoreographyWith(t, 4, 2, 100*time.Millisecond, func(cfg *Config) {
			cfg.Epsilon = epsilon
			cfg.Payload = &offeringSource{}
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
		leader, ok := c.eng.cfg.Beacon.Leader(2)
		if !ok {
			t.Fatal("the engine does not know the leader of round 2")
		}
		if leader != c.eng.ID() {
			return c, leader
		}
	}
	t.Fatal("the party at rank 2 led round 2 for every key set dealt")
	return nil, 0
}

// offersOut lists the payload offers the engine has sent so far.
func (c *choreography) offersOut() []engine.Output {
	var out []engine.Output
	for _, o := range c.outs {
		if _, ok := o.Msg.(*types.PayloadOffer); ok {
			out = append(out, o)
		}
	}
	return out
}

// offersFor lists the payload offers for round k the engine has sent so
// far.
func (c *choreography) offersFor(k types.Round) []engine.Output {
	var out []engine.Output
	for _, o := range c.offersOut() {
		if o.Msg.(*types.PayloadOffer).Round == k {
			out = append(out, o)
		}
	}
	return out
}

// checkOffer fails the test unless o is a round-2 offer to leader cut
// against parent.
func checkOffer(t *testing.T, o engine.Output, leader types.PartyID, parent *types.Block) {
	t.Helper()
	po := o.Msg.(*types.PayloadOffer)
	if o.Broadcast || o.To != leader || po.Round != 2 || po.ParentHash != parent.Hash() {
		t.Errorf("offer for round %d on %s sent to %d (broadcast %v), want round 2 on %s to the leader %d",
			po.Round, po.ParentHash.Short(), o.To, o.Broadcast, parent.Hash().Short(), leader)
	}
}

// TestOfferLeavesOnAnotherPartysShare: with ε > 0 a party still waiting
// out Δntry(0) sends its offer when another party's share for the block
// reaches it, and sends none when its own share follows.
func TestOfferLeavesOnAnotherPartysShare(t *testing.T) {
	c, leader := offerRound(t, 50*time.Millisecond) // Δntry(0) = 50 ms
	b0, bundle := c.block(0, "b0")
	c.deliver(c.perm[0], bundle, 10*time.Millisecond)
	if n := len(c.offersFor(2)); n != 0 {
		t.Fatalf("%d offers sent on the block alone, before any share for it", n)
	}
	c.deliver(c.perm[1], c.nshare(b0, c.perm[1]), 20*time.Millisecond)
	offers := c.offersFor(2)
	if len(offers) != 1 {
		t.Fatalf("%d offers sent on the first share from another party, want 1", len(offers))
	}
	checkOffer(t, offers[0], leader, b0)
	if n := len(c.sharesOf()); n != 0 {
		t.Fatalf("%d notarization shares cast before Δntry(0) expired", n)
	}
	c.deliver(c.perm[3], c.nshare(b0, c.perm[3]), 30*time.Millisecond)
	c.tick(50 * time.Millisecond)
	if n := len(c.sharesOf()); n != 1 {
		t.Fatalf("%d notarization shares cast once Δntry(0) expired, want 1", n)
	}
	if n := len(c.offersFor(2)); n != 1 {
		t.Fatalf("%d offers sent after the party's own share, want the early one only", n)
	}
}

// TestOfferLeavesWithTheShareAtZeroEpsilon: with ε = 0 the leader's block
// is shared the moment it arrives, and the offer leaves just ahead of that
// share, once.
func TestOfferLeavesWithTheShareAtZeroEpsilon(t *testing.T) {
	c, leader := offerRound(t, 0)
	b0, bundle := c.block(0, "b0")
	before := len(c.outs)
	c.deliver(c.perm[0], bundle, 10*time.Millisecond)
	offerAt, shareAt := -1, -1
	for i, o := range c.outs[before:] {
		switch m := o.Msg.(type) {
		case *types.PayloadOffer:
			offerAt = i
			checkOffer(t, o, leader, b0)
		case *types.NotarizationShare:
			if m.Signer == c.eng.ID() {
				shareAt = i
			}
		}
	}
	if offerAt < 0 || shareAt < 0 || offerAt > shareAt {
		t.Fatalf("on the block's arrival: offer at output %d, own share at %d; want both, the offer first", offerAt, shareAt)
	}
	c.deliver(c.perm[1], c.nshare(b0, c.perm[1]), 20*time.Millisecond)
	if n := len(c.offersOut()); n != 1 {
		t.Fatalf("%d offers sent, want 1", n)
	}
}

// TestOfferRepeatsOnTheBlockFinallyShared: an early offer on the rank-1
// block, drawn out by another party's share, is followed by a second one
// on the rank-0 block when that block arrives late and the party shares
// it instead.
func TestOfferRepeatsOnTheBlockFinallyShared(t *testing.T) {
	c, leader := offerRound(t, 50*time.Millisecond) // Δntry(0) = 50 ms, Δntry(1) = 250 ms
	b1, bundle1 := c.block(1, "b1")
	c.deliver(c.perm[1], bundle1, 10*time.Millisecond)
	c.deliver(c.perm[3], c.nshare(b1, c.perm[3]), 20*time.Millisecond)
	if offers := c.offersFor(2); len(offers) != 1 {
		t.Fatalf("%d offers sent on the rank-1 block's first share, want 1", len(offers))
	} else {
		checkOffer(t, offers[0], leader, b1)
	}
	b0, bundle0 := c.block(0, "b0")
	c.deliver(c.perm[0], bundle0, 100*time.Millisecond)
	shares := c.sharesOf()
	if len(shares) != 1 || shares[0].BlockHash != b0.Hash() {
		t.Fatalf("own shares %v, want one, on the rank-0 block", shares)
	}
	offers := c.offersFor(2)
	if len(offers) != 2 {
		t.Fatalf("%d offers sent, want the early one on the rank-1 block and one on the rank-0 block", len(offers))
	}
	checkOffer(t, offers[1], leader, b0)
}

// refreshAt1 is the refresh instant of round 1 at ε = 50 ms, entered at
// time 0: Δprop(0)/2 = 12.5 ms.
const refreshAt1 = 12500 * time.Microsecond

// TestOfferRefreshLeavesHalfwayToTheLeadersCut: a party that does not lead
// the round cuts its offer for the round once more at Δprop(0)/2, and not
// before; NextWake names that instant, and a passed one as due now.
func TestOfferRefreshLeavesHalfwayToTheLeadersCut(t *testing.T) {
	c, _ := offerRound(t, 50*time.Millisecond)
	if at, ok := c.eng.NextWake(time.Millisecond); !ok || at != refreshAt1 {
		t.Fatalf("next wake %v (%v), want the refresh at Δprop(0)/2 = %v", at, ok, refreshAt1)
	}
	late := refreshAt1 + time.Millisecond
	if at, ok := c.eng.NextWake(late); !ok || at != late+1 {
		t.Fatalf("next wake %v (%v) with the refresh instant passed and no refresh cut, want %v", at, ok, late+1)
	}
	c.tick(refreshAt1 - 1)
	if n := len(c.offersFor(1)); n != 0 {
		t.Fatalf("%d round-1 offers before Δprop(0)/2", n)
	}
	c.tick(refreshAt1)
	offers := c.offersFor(1)
	if len(offers) != 1 {
		t.Fatalf("%d round-1 offers at Δprop(0)/2, want 1", len(offers))
	}
	if o, po := offers[0], offers[0].Msg.(*types.PayloadOffer); o.Broadcast || o.To != c.perm[0] || po.ParentHash != c.eng.Pool().RootHash() {
		t.Fatalf("refresh on %s sent to %d (broadcast %v), want it on the root to the leader %d",
			po.ParentHash.Short(), o.To, o.Broadcast, c.perm[0])
	}
	if at, ok := c.eng.NextWake(late); ok && at <= late+1 {
		t.Fatalf("next wake %v after the refresh: the refresh is still reported due", at)
	}
	c.tick(20 * time.Millisecond)
	if n := len(c.offersFor(1)); n != 1 {
		t.Fatalf("%d round-1 offers, want the one refresh of the round", n)
	}
}

// TestNoOfferRefreshAtZeroEpsilonByTheLeaderOrInReplay: at ε = 0 the
// leader cuts its block on entering the round and nobody refreshes; the
// leader never refreshes an offer to itself, nor wakes for one; and a
// replaying engine neither wakes for a refresh nor cuts one.
func TestNoOfferRefreshAtZeroEpsilonByTheLeaderOrInReplay(t *testing.T) {
	c, _ := offerRound(t, 0)
	for _, now := range []time.Duration{time.Millisecond, refreshAt1, 100 * time.Millisecond} {
		c.tick(now)
	}
	if n := len(c.offersOut()); n != 0 {
		t.Errorf("%d offers sent at ε = 0 with no block in the round", n)
	}

	replay, _ := offerRound(t, 50*time.Millisecond)
	src := replay.eng.cfg.Payload.(*offeringSource)
	replay.eng.replaying = true
	if at, ok := replay.eng.NextWake(time.Millisecond); ok && at == refreshAt1 {
		t.Errorf("a replaying engine wakes for the refresh at %v", at)
	}
	replay.tick(refreshAt1)
	if n := len(replay.offersOut()); n != 0 || src.cuts != 0 {
		t.Errorf("a replaying engine cut %d payloads and sent %d offers", src.cuts, n)
	}

	leader := newChoreographyWith(t, 4, 0, 100*time.Millisecond, func(cfg *Config) {
		cfg.Epsilon = 50 * time.Millisecond
		cfg.Payload = &offeringSource{}
	})
	leader.start()
	if at, ok := leader.eng.NextWake(time.Millisecond); !ok || at != 25*time.Millisecond {
		t.Errorf("the leader's next wake is %v (%v), want its own cut at Δprop(0) = 25ms", at, ok)
	}
	leader.tick(refreshAt1)
	leader.tick(20 * time.Millisecond)
	if n := len(leader.offersOut()); n != 0 {
		t.Errorf("the leader sent %d offers", n)
	}
}

// notarizeRound1On hands the engine every other party's notarization share
// for b in one message at now: it finishes round 1 on b without sharing
// it, and enters round 2 (offerRound gave it R_2).
func (c *choreography) notarizeRound1On(b *types.Block, now time.Duration) {
	c.t.Helper()
	var shares []types.Message
	for _, p := range c.perm {
		if p != c.eng.ID() {
			shares = append(shares, c.nshare(b, p))
		}
	}
	c.deliver(c.perm[0], &types.Bundle{Messages: shares}, now)
	if k := c.eng.CurrentRound(); k != 2 {
		c.t.Fatalf("at round %d, want round 1 finished on %s", k, b.Hash().Short())
	}
}

// TestOfferRefreshOnlyAddsToTheOfferOnItsParent: the round-2 refresh, due
// Δprop(0)/2 after the party finished round 1 on b0, is sent when its cut
// holds more than the early offer on b0, and not when the cut is
// unchanged or when the early offer went out on another parent.
func TestOfferRefreshOnlyAddsToTheOfferOnItsParent(t *testing.T) {
	const finish = 20 * time.Millisecond
	for _, tc := range []struct {
		name        string
		earlyOnRank int  // the block whose first foreign share draws the early offer
		changed     bool // a command is admitted between the early offer and the refresh
		wantRefresh bool
	}{
		{"changed cut", 0, true, true},
		{"unchanged cut", 0, false, false},
		{"early offer on another parent", 1, true, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, leader := offerRound(t, 50*time.Millisecond)
			src := c.eng.cfg.Payload.(*offeringSource)
			b0, bundle0 := c.block(0, "b0")
			early, earlyBundle := b0, bundle0
			if tc.earlyOnRank != 0 {
				early, earlyBundle = c.block(tc.earlyOnRank, "early")
			}
			c.deliver(early.Proposer, earlyBundle, 5*time.Millisecond)
			c.deliver(c.perm[3], c.nshare(early, c.perm[3]), 6*time.Millisecond)
			if offers := c.offersFor(2); len(offers) != 1 {
				t.Fatalf("%d early round-2 offers, want 1", len(offers))
			} else {
				checkOffer(t, offers[0], leader, early)
			}
			if early != b0 {
				c.deliver(b0.Proposer, bundle0, 15*time.Millisecond)
			}
			c.notarizeRound1On(b0, finish)
			if tc.changed {
				src.extra = []byte("admitted since")
			}
			c.tick(finish + refreshAt1 - 1)
			if n := len(c.offersFor(2)); n != 1 {
				t.Fatalf("%d round-2 offers before Δprop(0)/2 into round 2, want the early one", n)
			}
			c.tick(finish + refreshAt1)
			c.tick(finish + 20*time.Millisecond)
			offers := c.offersFor(2)
			if !tc.wantRefresh {
				if len(offers) != 1 {
					t.Fatalf("%d round-2 offers, want the early one only", len(offers))
				}
				return
			}
			if len(offers) != 2 {
				t.Fatalf("%d round-2 offers, want the early one and its refresh", len(offers))
			}
			checkOffer(t, offers[1], leader, b0)
			if got := offers[1].Msg.(*types.PayloadOffer).Payload; !bytes.Equal(got, append([]byte{2}, src.extra...)) {
				t.Fatalf("refresh carries %q, want the new cut", got)
			}
		})
	}
}

// leaderWithOffer builds a choreography around the leader of round 1,
// enters the round at time 0 and delivers an offer for round 1 from the
// party ranked second at 10 ms. It returns the offer outcomes reported.
func leaderWithOffer(t *testing.T, epsilon time.Duration) (*choreography, *offeringSource, map[string]int) {
	t.Helper()
	src, outcomes := &offeringSource{}, make(map[string]int)
	c := newChoreographyWith(t, 4, 0, 100*time.Millisecond, func(cfg *Config) {
		cfg.Epsilon = epsilon
		cfg.Payload = src
		cfg.Hooks.OnPayloadOffer = func(_ types.PartyID, _ types.Round, _ int, outcome string, _ time.Duration) {
			outcomes[outcome]++
		}
	})
	c.start()
	c.deliver(c.perm[1], &types.PayloadOffer{Round: 1, ParentHash: c.eng.Pool().RootHash(), Payload: []byte("offered")}, 10*time.Millisecond)
	return c, src, outcomes
}

// TestOfferAfterEntryIsMergedAtPositiveEpsilon: with ε = 50 ms the leader
// cuts its block at Δprop(0) = 25 ms, not on entry, so an offer that
// reaches it 10 ms into the round rides the block.
func TestOfferAfterEntryIsMergedAtPositiveEpsilon(t *testing.T) {
	c, src, outcomes := leaderWithOffer(t, 50*time.Millisecond)
	if n := c.proposals(); n != 0 {
		t.Fatalf("%d proposals before Δprop(0)", n)
	}
	if at, ok := c.eng.NextWake(10 * time.Millisecond); !ok || at != 25*time.Millisecond {
		t.Fatalf("next wake %v (%v), want Δprop(0) = 25ms", at, ok)
	}
	c.tick(25 * time.Millisecond)
	if n := c.proposals(); n != 1 {
		t.Fatalf("%d proposals at Δprop(0), want 1", n)
	}
	if src.merged != 1 || outcomes[OfferMerged] != 1 || outcomes[OfferLate] != 0 {
		t.Fatalf("%d offers merged by the source, outcomes %v; want the one offer merged", src.merged, outcomes)
	}
}

// TestLeaderMergesTheRefreshInPlaceOfTheEarlyOffer: a sender's refresh
// replaces its early offer at the leader, which merges the refresh alone
// and reports the early offer superseded.
func TestLeaderMergesTheRefreshInPlaceOfTheEarlyOffer(t *testing.T) {
	c, src, outcomes := leaderWithOffer(t, 50*time.Millisecond)
	fresh := []byte("offered, and since")
	c.deliver(c.perm[1], &types.PayloadOffer{Round: 1, ParentHash: c.eng.Pool().RootHash(), Payload: fresh}, 20*time.Millisecond)
	c.tick(25 * time.Millisecond)
	if n := c.proposals(); n != 1 {
		t.Fatalf("%d proposals at Δprop(0), want 1", n)
	}
	if len(src.delegated) != 1 || !bytes.Equal(src.delegated[0], fresh) {
		t.Fatalf("merged %q, want the refresh alone", src.delegated)
	}
	if outcomes[OfferSuperseded] != 1 || outcomes[OfferMerged] != 1 {
		t.Fatalf("outcomes %v, want the early offer superseded and the refresh merged", outcomes)
	}
}

// TestOfferForARoundNotProposedInExpires: an offer held for a round that
// ends before this party proposes in it is reported expired and dropped.
func TestOfferForARoundNotProposedInExpires(t *testing.T) {
	outcomes := make(map[string]int)
	c := newChoreographyWith(t, 4, 1, 100*time.Millisecond, func(cfg *Config) {
		cfg.Payload = &offeringSource{}
		cfg.Hooks.OnPayloadOffer = func(_ types.PartyID, _ types.Round, _ int, outcome string, _ time.Duration) {
			outcomes[outcome]++
		}
	})
	c.start()
	sender := c.perm[2]
	c.deliver(sender, &types.PayloadOffer{Round: 1, ParentHash: c.eng.Pool().RootHash(), Payload: []byte("x")}, time.Millisecond)
	b0, bundle0 := c.block(0, "b0")
	c.deliver(b0.Proposer, bundle0, 2*time.Millisecond)
	c.deliver(c.perm[0], c.nshare(b0, c.perm[0]), 3*time.Millisecond)
	c.deliver(c.perm[2], c.nshare(b0, c.perm[2]), 3*time.Millisecond)
	if k := c.eng.CurrentRound(); k != 2 {
		t.Fatalf("at round %d, want round 1 finished", k)
	}
	if c.eng.offers[sender] != nil || outcomes[OfferExpired] != 1 || len(outcomes) != 1 {
		t.Fatalf("outcomes %v, want the one offer expired and no longer held", outcomes)
	}
}

// freshSource cuts a different payload every time it is asked, so every
// refresh differs from the offer before it.
type freshSource struct{ cuts uint64 }

func (s *freshSource) GetPayload(types.Round, *types.Block, func(hash.Digest) *types.Block) []byte {
	s.cuts++
	return binary.BigEndian.AppendUint64(nil, s.cuts)
}

func (s *freshSource) GetPayloadWith(k types.Round, parent *types.Block, lookup func(hash.Digest) *types.Block, _ [][]byte) []byte {
	return s.GetPayload(k, parent, lookup)
}

// TestOfferOutcomesAddUp: on a cluster that loses nothing, every offer
// sent for a round every party has finished is reported once by its
// receiver — merged, late, parent_mismatch, refused, superseded or
// expired — so late / sent means what it says.
func TestOfferOutcomesAddUp(t *testing.T) {
	const n, rounds = 4, 30
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Options{Seed: 9, Delay: simnet.Fixed{D: 10 * time.Millisecond}})
	sent := make(map[types.Round]int)
	received := make(map[types.Round]map[string]int)
	engines := make([]*Engine, n)
	for i := range engines {
		engines[i] = NewEngine(Config{
			Self: types.PartyID(i), Keys: pub, Priv: privs[i], DeltaBound: 100 * time.Millisecond, Epsilon: 50 * time.Millisecond,
			Beacon:  beacon.NewSimulated(n, types.PartyID(i), pub.GenesisSeed),
			Payload: &freshSource{},
			Hooks: Hooks{OnPayloadOffer: func(_ types.PartyID, k types.Round, _ int, outcome string, _ time.Duration) {
				if outcome == OfferSent {
					sent[k]++
					return
				}
				if received[k] == nil {
					received[k] = make(map[string]int)
				}
				received[k][outcome]++
			}},
		})
		net.AddNode(engines[i], true)
	}
	net.Start()
	if !net.RunUntil(func() bool {
		for _, e := range engines {
			if e.FinalizedRound() < rounds {
				return false
			}
		}
		return true
	}, time.Minute) {
		t.Fatal("no progress")
	}
	last := engines[0].CurrentRound()
	for _, e := range engines {
		last = min(last, e.CurrentRound())
	}
	// Offers for a round go out in that round and the one before it, and
	// take 10 ms: those for rounds two behind every party have all landed.
	last -= 3
	totals := make(map[string]int)
	for k := types.Round(1); k <= last; k++ {
		got := 0
		for outcome, count := range received[k] {
			got += count
			totals[outcome] += count
		}
		totals[OfferSent] += sent[k]
		if got != sent[k] {
			t.Errorf("round %d: %d offers sent, %d outcomes reported: %v", k, sent[k], got, received[k])
		}
	}
	if totals[OfferSuperseded] == 0 || totals[OfferMerged] == 0 {
		t.Errorf("rounds 1–%d exercised neither refreshes nor merges: %v", last, totals)
	}
	t.Logf("rounds 1–%d: %v", last, totals)
}

// TestLeaderProposesOnEntryAtZeroEpsilon: with ε = 0 the delays are eq. (2)
// exactly, so the leader proposes the moment it enters the round and the
// same offer, 10 ms later, is late.
func TestLeaderProposesOnEntryAtZeroEpsilon(t *testing.T) {
	c, src, outcomes := leaderWithOffer(t, 0)
	if n := c.proposals(); n != 1 {
		t.Fatalf("%d proposals on entry, want 1", n)
	}
	if src.merged != 0 || outcomes[OfferLate] != 1 {
		t.Fatalf("%d offers merged, outcomes %v; want the offer late", src.merged, outcomes)
	}
}

// TestNoPayloadOfferDuringReplay runs a WAL-backed cluster whose payload
// sources delegate, checks that offers flowed and that none reached a
// log, then replays one party's log into a fresh engine: the replay asks
// the beacon for no next leader, cuts no payload (neither an offer nor
// its refresh), reports and queues no offer.
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

// TestPayloadBoundOnDefaultEngine: an engine configured with no bound at
// all enforces types.MaxPayloadBytes. A block one byte over it is
// rejected through OnRejectedMessage and reaches neither the pool nor the
// WAL, while a block exactly at the bound is admitted and logged; an
// offer one byte over is refused, and one at the bound is held.
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
		cfg.Hooks.OnPayloadOffer = func(_ types.PartyID, _ types.Round, _ int, outcome string, _ time.Duration) {
			outcomes[outcome]++
		}
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
	c.deliver(sender, &types.PayloadOffer{Round: 2, ParentHash: at.Hash(), Payload: make([]byte, types.MaxPayloadBytes+1)}, 3*time.Millisecond)
	if outcomes[OfferRefused] != 1 || c.eng.offers[sender] != nil {
		t.Fatalf("an offer one byte over the payload bound was not refused: outcomes %v", outcomes)
	}
	c.deliver(sender, &types.PayloadOffer{Round: 2, ParentHash: at.Hash(), Payload: make([]byte, types.MaxPayloadBytes)}, 4*time.Millisecond)
	if outcomes[OfferRefused] != 1 || c.eng.offers[sender] == nil {
		t.Fatalf("an offer at the payload bound was not held: outcomes %v", outcomes)
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
