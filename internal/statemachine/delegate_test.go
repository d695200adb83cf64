package statemachine

import (
	"bytes"
	"fmt"
	"maps"
	"slices"
	"testing"

	"icc/internal/crypto/hash"
	"icc/internal/types"
)

func cmd(client, seq uint64) Command {
	return Command{Client: client, Seq: seq, Op: OpSet, Key: fmt.Sprintf("c%d", client), Value: []byte("v")}
}

func identsIn(t *testing.T, payload []byte) []ident {
	t.Helper()
	cmds, err := DecodePayload(payload)
	if err != nil {
		t.Fatalf("payload does not decode: %v", err)
	}
	ids := make([]ident, len(cmds))
	for i, c := range cmds {
		ids[i] = ident{c.Client, c.Seq}
	}
	return ids
}

// hold hands q the commands as one forward from party from.
func hold(t *testing.T, q *Queue, from types.PartyID, cmds ...Command) (held, refused int) {
	t.Helper()
	return q.Hold(from, EncodePayload(cmds))
}

// With nothing held, GetPayload cuts this party's own commands alone, as
// it did before forwards existed.
func TestGetPayloadWithNothingDelegatedIsGetPayload(t *testing.T) {
	q := NewQueue()
	for s := uint64(1); s <= 3; s++ {
		_ = q.TrySubmit(cmd(1, s))
	}
	parent := &types.Block{Round: 1, Payload: EncodePayload([]Command{cmd(1, 1)})}
	if got, want := q.GetPayload(2, parent, nil), EncodePayload([]Command{cmd(1, 2), cmd(1, 3)}); !bytes.Equal(got, want) {
		t.Fatalf("GetPayload %x, want this party's own commands outside the chain %x", got, want)
	}
}

// Own commands first, then each sender's held commands in arrival order;
// identities in the chain or already taken are skipped; garbage is
// refused whole and nothing forwarded counts as this party's own.
func TestGetPayloadWithMergesInOrder(t *testing.T) {
	q := NewQueue()
	_ = q.TrySubmit(cmd(1, 1))
	_ = q.TrySubmit(cmd(1, 2))
	parent := &types.Block{Round: 1, Payload: EncodePayload([]Command{cmd(2, 1)})}
	hold(t, q, 1, cmd(2, 1), cmd(2, 2), cmd(2, 3)) // 2/1 is in the chain
	if held, refused := q.Hold(2, []byte("not a payload")); held != 0 || refused != 1 {
		t.Fatalf("garbage: held %d, refused %d; want it refused as one", held, refused)
	}
	hold(t, q, 3, cmd(3, 1), cmd(1, 2), cmd(2, 3), cmd(3, 2)) // 1/2 and 2/3 already taken
	got := identsIn(t, q.GetPayload(2, parent, nil))
	want := []ident{{1, 1}, {1, 2}, {2, 2}, {2, 3}, {3, 1}, {3, 2}} // round 2 starts with sender 1 of {1, 3}
	if !slices.Equal(got, want) {
		t.Fatalf("merged batch %v, want %v", got, want)
	}
	if q.Len() != 2 {
		t.Fatalf("queue holds %d commands of its own after merging, want 2", q.Len())
	}
	if err := q.TrySubmit(cmd(3, 1)); err != nil {
		t.Fatalf("a held identity blocked this party's own admission: %v", err)
	}
}

// At the batch bounds a held command is skipped, and the Seq rule keeps
// its client's later commands out with it: they must not overtake it.
func TestGetPayloadWithStopsASenderAtTheBound(t *testing.T) {
	q := NewQueue()
	q.maxBatch = 3
	_ = q.TrySubmit(cmd(1, 1))
	hold(t, q, 2, cmd(2, 1), cmd(2, 2), cmd(2, 3))
	hold(t, q, 3, cmd(3, 1))
	got := identsIn(t, q.GetPayload(2, nil, nil))
	if want := []ident{{1, 1}, {2, 1}, {2, 2}}; !slices.Equal(got, want) {
		t.Fatalf("maxBatch: batch %v, want %v", got, want)
	}

	q = NewQueue()
	big := Command{Client: 2, Seq: 2, Op: OpSet, Key: "k", Value: make([]byte, 200)}
	q.maxBytes = payloadHeaderSize + cmd(2, 1).WireSize() + big.WireSize() - 1
	hold(t, q, 2, cmd(2, 1), big, cmd(2, 3)) // 2/3 would fit; it must wait for 2/2
	hold(t, q, 3, cmd(3, 1))
	payload := q.GetPayload(2, nil, nil)
	if len(payload) > q.maxBytes {
		t.Fatalf("payload of %d bytes exceeds maxBytes %d", len(payload), q.maxBytes)
	}
	if got, want := identsIn(t, payload), []ident{{2, 1}, {3, 1}}; !slices.Equal(got, want) {
		t.Fatalf("maxBytes: batch %v, want %v", got, want)
	}
}

// TestHeldCommandsKeepTheSeqRule: a held command goes in only behind its
// client's previous Seq — committed, in the chain, or earlier in the same
// payload, from this party or any sender — and waits while that one is
// missing.
func TestHeldCommandsKeepTheSeqRule(t *testing.T) {
	q := NewQueue()
	q.MarkCommitted(EncodePayload([]Command{cmd(1, 4)}))
	chain := &types.Block{Round: 1, Payload: EncodePayload([]Command{cmd(2, 7)})}
	_ = q.TrySubmit(cmd(3, 1)) // own, so 3/2 may follow it in the same payload
	hold(t, q, 1,
		cmd(1, 5), cmd(1, 6), // behind the committed 1/4
		cmd(2, 8),            // behind 2/7 in the chain
		cmd(3, 2),            // behind this party's own 3/1
		cmd(4, 2),            // 4/1 is nowhere: gapped
		cmd(5, 1),            // a client's first command needs nothing
		cmd(6, 3), cmd(6, 2)) // out of order: 6/2 lacks 6/1, and 6/3 comes before 6/2
	got := identsIn(t, q.GetPayload(2, chain, nil))
	want := []ident{{3, 1}, {1, 5}, {1, 6}, {2, 8}, {3, 2}, {5, 1}}
	if !slices.Equal(got, want) {
		t.Fatalf("batch %v, want %v", got, want)
	}
	// 4/1 and 6/1 arrive from another sender, drawn after sender 1: their
	// successors follow them into the same payload, in Seq order.
	hold(t, q, 2, cmd(4, 1), cmd(6, 1))
	got = identsIn(t, q.GetPayload(2, chain, nil))
	at := make(map[ident]int)
	for i, id := range got {
		at[id] = i + 1
	}
	for _, pair := range [][2]ident{{{4, 1}, {4, 2}}, {{6, 1}, {6, 2}}, {{6, 2}, {6, 3}}} {
		if at[pair[0]] == 0 || at[pair[1]] == 0 || at[pair[0]] > at[pair[1]] {
			t.Errorf("%v and %v out of order or missing in %v", pair[0], pair[1], got)
		}
	}
}

// TestHoldBoundsEachSenderToOnePayload: a sender's held commands never
// encode past one payload, nor outnumber one payload's commands; repeats
// and commands at or below the client's committed Seq are refused;
// another sender has a share of its own.
func TestHoldBoundsEachSenderToOnePayload(t *testing.T) {
	q := NewQueue()
	q.maxBytes = payloadHeaderSize + 5*cmd(1, 1).WireSize()
	q.MarkCommitted(EncodePayload([]Command{cmd(9, 3)}))
	var flood []Command
	for s := uint64(1); s <= 8; s++ {
		flood = append(flood, cmd(1, s))
	}
	if held, refused := hold(t, q, 1, flood...); held != 5 || refused != 3 {
		t.Fatalf("flood: held %d, refused %d; want 5 and 3", held, refused)
	}
	if held, refused := hold(t, q, 1, cmd(7, 1)); held != 0 || refused != 1 {
		t.Fatalf("past the share: held %d, refused %d; want it refused", held, refused)
	}
	if held, refused := hold(t, q, 2, cmd(1, 1), cmd(1, 1), cmd(9, 3), cmd(9, 2), cmd(9, 4)); held != 2 || refused != 3 {
		t.Fatalf("second sender: held %d, refused %d; want 1/1 and 9/4 held, the repeat and 9/2–9/3 refused", held, refused)
	}
	for from, s := range q.held {
		if s.bytes > q.maxBytes || s.bytes != EncodedPayloadSize(commandsOf(s)) {
			t.Errorf("sender %d holds %d bytes (encoded %d), bound %d", from, s.bytes, EncodedPayloadSize(commandsOf(s)), q.maxBytes)
		}
	}
	q = NewQueue()
	q.maxBatch = 4
	if held, refused := hold(t, q, 1, flood...); held != 4 || refused != 4 {
		t.Fatalf("flood of small commands: held %d, refused %d; want one batch's 4 held", held, refused)
	}
}

func commandsOf(s *share) []Command {
	var cmds []Command
	for _, h := range s.cmds {
		cmds = append(cmds, h.Command)
	}
	return cmds
}

// TestHeldCommandsLeaveAtCommit: MarkCommitted drops every held command
// at or below its client's new committed Seq — expired unless this party
// had merged it — and Settle reports each sender once.
func TestHeldCommandsLeaveAtCommit(t *testing.T) {
	q := NewQueue()
	hold(t, q, 1, cmd(1, 1), cmd(1, 2), cmd(1, 3))
	hold(t, q, 2, cmd(2, 1), cmd(2, 2))
	merged := identsIn(t, q.GetPayload(1, nil, nil))
	if len(merged) != 5 {
		t.Fatalf("merged %v, want all five", merged)
	}
	hold(t, q, 2, cmd(4, 1))
	// The block that commits carries 1/2 without 1/1 (its proposer lacked
	// 1/1): 1/1 can no longer apply and goes too. 4/1 was never merged.
	q.MarkCommitted(EncodePayload([]Command{cmd(1, 2), cmd(4, 1)}))
	type report struct{ merged, expired int }
	got := make(map[types.PartyID]report)
	q.Settle(func(from types.PartyID, m, e int) { got[from] = report{m, e} })
	if want := map[types.PartyID]report{1: {3, 0}, 2: {2, 1}}; !maps.Equal(got, want) {
		t.Fatalf("settled %v, want %v", got, want)
	}
	if ids := identsIn(t, q.GetPayload(2, nil, nil)); !slices.Equal(ids, []ident{{1, 3}, {2, 1}, {2, 2}}) {
		t.Fatalf("still held %v, want 1/3, 2/1 and 2/2", ids)
	}
	q.Settle(func(from types.PartyID, m, e int) {
		t.Errorf("sender %d settled twice: %d merged, %d expired", from, m, e)
	})
	q.MarkCommitted(EncodePayload([]Command{cmd(1, 3), cmd(2, 2)}))
	if len(q.held) != 0 {
		t.Fatalf("held after everything committed: %v", q.held)
	}
}

// TestRestartedLeaderMergesBehindCommitsBeforeItsRestart: a queue rebuilt
// after a restart learns the committed Seqs from the commits replayed
// into it (MarkCommitted), so a forwarded command whose predecessor
// committed before the restart, and is too deep for the chain walk,
// still rides its next payload.
func TestRestartedLeaderMergesBehindCommitsBeforeItsRestart(t *testing.T) {
	tip, lookup := deepChain(100, 1) // client 1 holds seqs 1..100
	var replay []*types.Block
	for cur := tip; cur != nil; cur = lookup(cur.ParentHash) {
		replay = append(replay, cur)
	}
	old := &types.Block{Round: 1, Payload: EncodePayload([]Command{cmd(9, 1)})} // far below the chain's depth
	q := NewQueue()
	q.MarkCommitted(old.Payload)
	for i := len(replay) - 1; i >= 0; i-- {
		q.MarkCommitted(replay[i].Payload)
	}
	hold(t, q, 2, cmd(9, 2))
	if got := identsIn(t, q.GetPayload(101, tip, lookup)); !slices.Equal(got, []ident{{9, 2}}) {
		t.Fatalf("restarted leader cut %v, want 9/2 behind the replayed commit of 9/1", got)
	}
	fresh := NewQueue()
	hold(t, fresh, 2, cmd(9, 2))
	if fresh.GetPayload(101, tip, lookup) != nil {
		t.Fatal("a queue that saw no commit of 9/1 merged 9/2")
	}
}

// TestForwardSendsEachCommandOncePerParty: Forward hands a party the
// pending commands it was not handed yet, in order; those the chain
// carries count as sent; a committed command is forgotten.
func TestForwardSendsEachCommandOncePerParty(t *testing.T) {
	q := NewQueue()
	for s := uint64(1); s <= 3; s++ {
		_ = q.TrySubmit(cmd(1, s))
	}
	parent := &types.Block{Round: 1, Payload: EncodePayload([]Command{cmd(1, 1)})}
	payload, n := q.Forward(5, parent, nil)
	if got := identsIn(t, payload); n != 2 || !slices.Equal(got, []ident{{1, 2}, {1, 3}}) {
		t.Fatalf("first forward %v (%d), want 1/2 and 1/3", got, n)
	}
	if payload, n := q.Forward(5, nil, nil); n != 0 || payload != nil {
		t.Fatalf("second forward to the same party carries %d commands", n)
	}
	_ = q.TrySubmit(cmd(1, 4))
	if got, n := q.Forward(5, parent, nil); n != 1 || !slices.Equal(identsIn(t, got), []ident{{1, 4}}) {
		t.Fatalf("forward after an admission %v, want 1/4 alone", identsIn(t, got))
	}
	if got, n := q.Forward(6, nil, nil); n != 4 || len(identsIn(t, got)) != 4 {
		t.Fatalf("another party got %d commands, want all four", n)
	}
	q.MarkCommitted(EncodePayload([]Command{cmd(1, 1), cmd(1, 2), cmd(1, 3), cmd(1, 4)}))
	if len(q.sentTo) != 0 {
		t.Fatalf("forward records outlive their commands: %v", q.sentTo)
	}
}

// TestAdmissionWakes: each admission leaves one signal in the one-slot
// wake channel, and a full slot does not block the next admission.
func TestAdmissionWakes(t *testing.T) {
	q := NewQueue()
	select {
	case <-q.Wake():
		t.Fatal("wake before any admission")
	default:
	}
	_ = q.TrySubmit(cmd(1, 1))
	_ = q.TrySubmit(cmd(1, 2))
	select {
	case <-q.Wake():
	default:
		t.Fatal("no wake after an admission")
	}
	select {
	case <-q.Wake():
		t.Fatal("two wakes queued in a one-slot channel")
	default:
	}
}

// deepChain builds depth blocks of perBlock commands each and returns the
// tip with a lookup over all of them.
func deepChain(depth, perBlock int) (*types.Block, func(hash.Digest) *types.Block) {
	blocks := make(map[hash.Digest]*types.Block)
	parent := types.RootBlock()
	seq := uint64(0)
	for k := 1; k <= depth; k++ {
		cmds := make([]Command, perBlock)
		for i := range cmds {
			seq++
			cmds[i] = Command{Client: uint64(i + 1), Seq: seq, Op: OpSet, Key: "bench/key", Value: make([]byte, 64)}
		}
		b := &types.Block{Round: types.Round(k), Proposer: types.PartyID(k % 4), ParentHash: parent.Hash(), Payload: EncodePayload(cmds)}
		blocks[b.Hash()] = b
		parent = b
	}
	return parent, func(h hash.Digest) *types.Block { return blocks[h] }
}

func TestChainIdentsMemoIsBoundedAndExact(t *testing.T) {
	tip, lookup := deepChain(200, 4)
	var chain []*types.Block // newest first
	for cur := tip; cur != nil && !cur.IsRoot(); cur = lookup(cur.ParentHash) {
		chain = append(chain, cur)
	}
	q := NewQueue()
	// Walk from every tip in turn, as a growing chain makes a party do.
	for i := len(chain) - 1; i >= 0; i-- {
		q.chainIdents(chain[i], lookup)
		if len(q.chain) > q.dedupDepth {
			t.Fatalf("memo holds %d blocks at round %d, bound is dedupDepth = %d", len(q.chain), chain[i].Round, q.dedupDepth)
		}
	}
	got, want := q.chainIdents(tip, lookup), NewQueue().chainIdents(tip, lookup)
	if len(want) != q.dedupDepth*4 {
		t.Fatalf("fresh walk found %d identities, want %d", len(want), q.dedupDepth*4)
	}
	if len(got) != len(want) {
		t.Fatalf("memoized walk found %d identities, fresh walk %d", len(got), len(want))
	}
	for id := range want {
		if _, ok := got[id]; !ok {
			t.Fatalf("memoized walk lost %v", id)
		}
	}
}

// BenchmarkGetPayloadDeepChain is one payload cut on a chain deeper than
// dedupDepth, as every party now makes once per round: each cut walks
// one block further than the last.
func BenchmarkGetPayloadDeepChain(b *testing.B) {
	tip, lookup := deepChain(256, 10)
	var chain []*types.Block
	for cur := tip; cur != nil && !cur.IsRoot(); cur = lookup(cur.ParentHash) {
		chain = append(chain, cur)
	}
	q := NewQueue()
	for s := uint64(1); s <= 10; s++ {
		_ = q.TrySubmit(Command{Client: 99, Seq: s, Op: OpSet, Key: "bench/key", Value: make([]byte, 64)})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Tips 128 deep to the newest, oldest first, over and over.
		parent := chain[127-i%128]
		sinkPayload = q.GetPayload(parent.Round+1, parent, lookup)
	}
}

var sinkPayload []byte
