package rbc

import (
	"bytes"
	"testing"
	"time"

	"icc/internal/engine"
	"icc/internal/erasure"
	"icc/internal/merkle"
	"icc/internal/types"
)

// sink records deliveries and can emit a prepared output on Init.
type sink struct {
	id       types.PartyID
	initOut  []engine.Output
	received []types.Message
}

func (s *sink) ID() types.PartyID                  { return s.id }
func (s *sink) Init(time.Duration) []engine.Output { return s.initOut }
func (s *sink) HandleMessage(_ types.PartyID, m types.Message, _ time.Duration) []engine.Output {
	s.received = append(s.received, m)
	return nil
}
func (s *sink) Tick(time.Duration) []engine.Output           { return nil }
func (s *sink) NextWake(time.Duration) (time.Duration, bool) { return 0, false }
func (s *sink) CurrentRound() types.Round                    { return 1 }

func proposalBundle(self types.PartyID, payload []byte) engine.Output {
	b := &types.Block{Round: 1, Proposer: self, Payload: payload}
	auth := &types.Authenticator{Round: 1, Proposer: self, BlockHash: b.Hash(), Sig: []byte{1}}
	return engine.Broadcast(&types.Bundle{Messages: []types.Message{
		&types.BlockMsg{Block: b}, auth,
	}})
}

func TestDisperseProducesPerPartyFragments(t *testing.T) {
	const n = 7
	inner := &sink{id: 0, initOut: []engine.Output{proposalBundle(0, []byte("block payload"))}}
	r := Wrap(Config{Self: 0, N: n}, inner)
	outs := r.Init(0)

	fragments := 0
	seenIdx := map[uint16]bool{}
	var rest int
	for _, o := range outs {
		switch m := o.Msg.(type) {
		case *types.Fragment:
			fragments++
			if o.Broadcast {
				t.Fatal("initial fragments must be unicast")
			}
			if int(m.Index) != int(o.To) {
				t.Fatalf("fragment %d sent to party %d", m.Index, o.To)
			}
			seenIdx[m.Index] = true
			if m.Echo {
				t.Fatal("initial send marked as echo")
			}
		case *types.Bundle:
			rest++
			for _, sub := range m.Messages {
				if _, isBlock := sub.(*types.BlockMsg); isBlock {
					t.Fatal("full block still broadcast alongside fragments")
				}
			}
		}
	}
	if fragments != n-1 {
		t.Fatalf("%d fragments, want %d", fragments, n-1)
	}
	if rest != 1 {
		t.Fatalf("%d non-fragment bundles, want 1 (authenticator)", rest)
	}
}

// buildFragments creates the n fragments a proposer would send.
func buildFragments(t *testing.T, n int, proposer types.PartyID, payload []byte) []*types.Fragment {
	t.Helper()
	b := &types.Block{Round: 1, Proposer: proposer, Payload: payload}
	enc := types.Marshal(&types.BlockMsg{Block: b})
	k := n - 2*types.MaxFaults(n)
	code, err := erasure.NewCode(k, n)
	if err != nil {
		t.Fatal(err)
	}
	shards, err := code.Encode(enc)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := merkle.New(shards)
	if err != nil {
		t.Fatal(err)
	}
	frags := make([]*types.Fragment, n)
	for i := 0; i < n; i++ {
		proof, err := tree.Proof(i)
		if err != nil {
			t.Fatal(err)
		}
		frags[i] = &types.Fragment{
			Round: 1, Proposer: proposer, Root: tree.Root(),
			BlockLen: uint32(len(enc)), DataShards: uint16(k),
			Index: uint16(i), Sender: proposer, Data: shards[i], Proof: proof,
		}
	}
	return frags
}

func TestReceiverEchoesOwnFragmentAndReconstructs(t *testing.T) {
	const n = 7 // t=2, k=3
	inner := &sink{id: 3}
	r := Wrap(Config{Self: 3, N: n}, inner)
	frags := buildFragments(t, n, 0, []byte("the block"))

	// Receiving our own fragment triggers an echo broadcast.
	outs := r.HandleMessage(0, frags[3], 0)
	echoes := 0
	for _, o := range outs {
		f, ok := o.Msg.(*types.Fragment)
		if !ok {
			continue
		}
		if !o.Broadcast || !f.Echo || f.Index != 3 {
			t.Fatalf("bad echo: %+v", f)
		}
		echoes++
	}
	if echoes != 1 {
		t.Fatalf("%d echoes, want 1", echoes)
	}
	if len(inner.received) != 0 {
		t.Fatal("delivered before k fragments held")
	}
	// Two more fragments (echoed by other parties) reach the threshold.
	e1 := *frags[1]
	e1.Echo, e1.Sender = true, 1
	r.HandleMessage(1, &e1, 0)
	e5 := *frags[5]
	e5.Echo, e5.Sender = true, 5
	r.HandleMessage(5, &e5, 0)
	if len(inner.received) != 1 {
		t.Fatalf("inner received %d messages, want reconstructed block", len(inner.received))
	}
	bm, ok := inner.received[0].(*types.BlockMsg)
	if !ok || !bytes.Equal(bm.Block.Payload, []byte("the block")) {
		t.Fatal("reconstructed block wrong")
	}
	// A late duplicate fragment is ignored after delivery.
	if outs := r.HandleMessage(2, frags[2], 0); len(outs) != 0 {
		t.Fatal("post-delivery fragment produced output")
	}
}

func TestReconstructionWithoutOwnFragment(t *testing.T) {
	// The proposer never sends party 3 its fragment; k echoes from other
	// parties still reconstruct, and party 3 then echoes its own
	// (recomputed) fragment for totality.
	const n = 7
	inner := &sink{id: 3}
	r := Wrap(Config{Self: 3, N: n}, inner)
	frags := buildFragments(t, n, 0, []byte("withheld"))
	var echoed bool
	for _, idx := range []int{0, 1, 2} {
		e := *frags[idx]
		e.Echo, e.Sender = true, types.PartyID(idx)
		outs := r.HandleMessage(types.PartyID(idx), &e, 0)
		for _, o := range outs {
			if f, ok := o.Msg.(*types.Fragment); ok && f.Index == 3 && f.Echo {
				echoed = true
			}
		}
	}
	if len(inner.received) != 1 {
		t.Fatal("no reconstruction from k foreign echoes")
	}
	if !echoed {
		t.Fatal("party did not echo its recomputed fragment")
	}
}

func TestRejectsBadProof(t *testing.T) {
	const n = 7
	inner := &sink{id: 2}
	r := Wrap(Config{Self: 2, N: n}, inner)
	frags := buildFragments(t, n, 0, []byte("x"))
	bad := *frags[2]
	bad.Data = append([]byte{0xff}, bad.Data...)
	if outs := r.HandleMessage(0, &bad, 0); len(outs) != 0 {
		t.Fatal("tampered fragment produced output")
	}
	mismatched := *frags[2]
	mismatched.Index = 4 // proof is for index 2
	if outs := r.HandleMessage(0, &mismatched, 0); len(outs) != 0 {
		t.Fatal("index-swapped fragment accepted")
	}
}

func TestRejectsInconsistentEncoding(t *testing.T) {
	// A corrupt proposer commits to shards of one block but swaps in a
	// shard from another block with a valid proof — i.e. builds the tree
	// over inconsistent shards. Receivers must detect the re-encoding
	// mismatch and deliver nothing.
	const n = 7
	k := n - 2*types.MaxFaults(n)
	b := &types.Block{Round: 1, Proposer: 0, Payload: []byte("real")}
	enc := types.Marshal(&types.BlockMsg{Block: b})
	code, _ := erasure.NewCode(k, n)
	shards, _ := code.Encode(enc)
	// Corrupt one of the shards BEFORE building the tree: proofs verify,
	// encoding is inconsistent.
	shards[1][0] ^= 0xff
	tree, _ := merkle.New(shards)
	inner := &sink{id: 3}
	r := Wrap(Config{Self: 3, N: n}, inner)
	for _, idx := range []int{0, 1, 2} {
		proof, _ := tree.Proof(idx)
		f := &types.Fragment{
			Round: 1, Proposer: 0, Root: tree.Root(),
			BlockLen: uint32(len(enc)), DataShards: uint16(k),
			Index: uint16(idx), Sender: types.PartyID(idx), Echo: true,
			Data: shards[idx], Proof: proof,
		}
		r.HandleMessage(types.PartyID(idx), f, 0)
	}
	if len(inner.received) != 0 {
		t.Fatal("inconsistently encoded block was delivered")
	}
}

func TestNonBlockTrafficPassesThrough(t *testing.T) {
	inner := &sink{id: 1}
	r := Wrap(Config{Self: 1, N: 7}, inner)
	share := &types.BeaconShare{Round: 1, Signer: 0, Share: []byte{1}}
	r.HandleMessage(0, share, 0)
	if len(inner.received) != 1 {
		t.Fatal("non-fragment message not delivered to inner engine")
	}
}

func TestSessionCapEviction(t *testing.T) {
	const n = 7
	inner := &sink{id: 3}
	r := Wrap(Config{Self: 3, N: n, MaxSessions: 2}, inner)
	// Spam three sessions; the first should be evicted.
	for i := 0; i < 3; i++ {
		frags := buildFragments(t, n, 0, []byte{byte(i)})
		r.HandleMessage(0, frags[3], 0)
	}
	if len(r.sessions) != 2 {
		t.Fatalf("%d sessions tracked, cap is 2", len(r.sessions))
	}
}

// An echoed bundle keeps its recipients when the block body is stripped:
// what is left still skips the block's proposer. A payload offer is
// neither a fragment nor a bundle and passes both ways untouched.
func TestEchoKeepsItsExceptionAndOffersPassThrough(t *testing.T) {
	const n = 4
	b := &types.Block{Round: 1, Proposer: 2, Payload: []byte("theirs")}
	auth := &types.Authenticator{Round: 1, Proposer: 2, BlockHash: b.Hash(), Sig: []byte{1}}
	offer := &types.PayloadOffer{Round: 2, ParentHash: b.Hash(), Payload: []byte("commands")}
	inner := &sink{id: 0, initOut: []engine.Output{
		engine.BroadcastExcept(2, &types.Bundle{Messages: []types.Message{&types.BlockMsg{Block: b}, auth}}),
		engine.Unicast(3, offer),
	}}
	r := Wrap(Config{Self: 0, N: n}, inner)
	outs := r.Init(0)
	if len(outs) != 2 {
		t.Fatalf("%d outputs, want the stripped echo and the offer", len(outs))
	}
	echo := outs[0]
	if !echo.Broadcast || !echo.Skips(2) || echo.Skips(0) {
		t.Fatalf("the stripped echo lost its recipients: %+v", echo)
	}
	if bundle, ok := echo.Msg.(*types.Bundle); !ok || len(bundle.Messages) != 1 || bundle.Messages[0] != types.Message(auth) {
		t.Fatalf("the stripped echo carries %#v, want the authenticator alone", echo.Msg)
	}
	if o := outs[1]; o.Broadcast || o.To != 3 || o.Msg != types.Message(offer) {
		t.Fatalf("the offer left as %+v", o)
	}
	if outs := r.HandleMessage(1, offer, 0); len(outs) != 0 {
		t.Fatalf("a received offer produced %d outputs", len(outs))
	}
	if len(inner.received) != 1 || inner.received[0] != types.Message(offer) {
		t.Fatalf("inner engine received %v, want the offer", inner.received)
	}
}
