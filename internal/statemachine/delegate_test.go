package statemachine

import (
	"bytes"
	"fmt"
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

func TestGetPayloadWithNothingDelegatedIsGetPayload(t *testing.T) {
	q := NewQueue()
	for s := uint64(1); s <= 3; s++ {
		_ = q.TrySubmit(cmd(1, s))
	}
	parent := &types.Block{Round: 1, Payload: EncodePayload([]Command{cmd(1, 1)})}
	if a, b := q.GetPayload(2, parent, nil), q.GetPayloadWith(2, parent, nil, nil); !bytes.Equal(a, b) {
		t.Fatalf("GetPayload %x, GetPayloadWith(nil) %x", a, b)
	}
}

// Own commands first, then each sender's in its own order; identities in
// the chain or already taken are skipped; garbage contributes nothing and
// nothing foreign is stored.
func TestGetPayloadWithMergesInOrder(t *testing.T) {
	q := NewQueue()
	_ = q.TrySubmit(cmd(1, 1))
	_ = q.TrySubmit(cmd(1, 2))
	parent := &types.Block{Round: 1, Payload: EncodePayload([]Command{cmd(2, 1)})}
	delegated := [][]byte{
		EncodePayload([]Command{cmd(2, 1), cmd(2, 2), cmd(2, 3)}), // 2/1 is in the chain
		[]byte("not a payload"),
		EncodePayload([]Command{cmd(3, 1), cmd(1, 2), cmd(2, 3), cmd(3, 2)}), // 1/2 and 2/3 already taken
	}
	got := identsIn(t, q.GetPayloadWith(2, parent, nil, delegated))
	want := []ident{{1, 1}, {1, 2}, {2, 2}, {2, 3}, {3, 1}, {3, 2}}
	if !slices.Equal(got, want) {
		t.Fatalf("merged batch %v, want %v", got, want)
	}
	if q.Len() != 2 {
		t.Fatalf("queue holds %d commands after merging, want its own 2", q.Len())
	}
	if err := q.TrySubmit(cmd(3, 1)); err != nil {
		t.Fatalf("a delegated identity blocked this party's own admission: %v", err)
	}
}

// A sender is stopped, not skipped past, at its first command that does
// not fit: a later command of the same client must not overtake it.
func TestGetPayloadWithStopsASenderAtTheBound(t *testing.T) {
	q := NewQueue()
	q.MaxBatch = 3
	_ = q.TrySubmit(cmd(1, 1))
	delegated := [][]byte{
		EncodePayload([]Command{cmd(2, 1), cmd(2, 2), cmd(2, 3)}),
		EncodePayload([]Command{cmd(3, 1)}),
	}
	got := identsIn(t, q.GetPayloadWith(1, nil, nil, delegated))
	if want := []ident{{1, 1}, {2, 1}, {2, 2}}; !slices.Equal(got, want) {
		t.Fatalf("MaxBatch: batch %v, want %v", got, want)
	}

	q = NewQueue()
	big := Command{Client: 2, Seq: 2, Op: OpSet, Key: "k", Value: make([]byte, 200)}
	q.MaxBytes = payloadHeaderSize + cmd(2, 1).WireSize() + big.WireSize() - 1
	delegated = [][]byte{
		EncodePayload([]Command{cmd(2, 1), big, cmd(2, 3)}), // 2/3 would fit; it must wait for 2/2
		EncodePayload([]Command{cmd(3, 1)}),
	}
	payload := q.GetPayloadWith(1, nil, nil, delegated)
	if len(payload) > q.MaxBytes {
		t.Fatalf("payload of %d bytes exceeds MaxBytes %d", len(payload), q.MaxBytes)
	}
	if got, want := identsIn(t, payload), []ident{{2, 1}, {3, 1}}; !slices.Equal(got, want) {
		t.Fatalf("MaxBytes: batch %v, want %v", got, want)
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
		if len(q.chain) > q.DedupDepth {
			t.Fatalf("memo holds %d blocks at round %d, bound is DedupDepth = %d", len(q.chain), chain[i].Round, q.DedupDepth)
		}
	}
	got, want := q.chainIdents(tip, lookup), NewQueue().chainIdents(tip, lookup)
	if len(want) != q.DedupDepth*4 {
		t.Fatalf("fresh walk found %d identities, want %d", len(want), q.DedupDepth*4)
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
// DedupDepth, as every party now makes once per round: each cut walks
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
