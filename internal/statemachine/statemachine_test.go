package statemachine

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"
	"time"

	"icc/internal/crypto/hash"
	"icc/internal/types"
)

func TestPayloadRoundTrip(t *testing.T) {
	cmds := []Command{
		{Client: 1, Seq: 1, Op: OpSet, Key: "a", Value: []byte("1")},
		{Client: 2, Seq: 9, Op: OpDelete, Key: "b"},
		{Client: 1, Seq: 2, Op: OpAppend, Key: "a", Value: []byte("23")},
	}
	got, err := DecodePayload(EncodePayload(cmds))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(cmds) {
		t.Fatalf("got %d commands", len(got))
	}
	for i := range cmds {
		if got[i].Client != cmds[i].Client || got[i].Seq != cmds[i].Seq ||
			got[i].Op != cmds[i].Op || got[i].Key != cmds[i].Key ||
			!bytes.Equal(got[i].Value, cmds[i].Value) {
			t.Fatalf("command %d mismatch", i)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := DecodePayload([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage accepted")
	}
	enc := EncodePayload([]Command{{Client: 1, Seq: 1, Op: OpSet, Key: "k"}})
	if _, err := DecodePayload(enc[:len(enc)-1]); err == nil {
		t.Fatal("truncated accepted")
	}
	if _, err := DecodePayload(append(enc, 0)); err == nil {
		t.Fatal("trailing accepted")
	}
	if cmds, err := DecodePayload(nil); err != nil || cmds != nil {
		t.Fatal("empty payload should decode to no commands")
	}
}

func TestQuickPayloadRoundTrip(t *testing.T) {
	f := func(client, seq uint64, key string, value []byte) bool {
		in := []Command{{Client: client, Seq: seq, Op: OpSet, Key: key, Value: value}}
		out, err := DecodePayload(EncodePayload(in))
		if err != nil || len(out) != 1 {
			return false
		}
		return out[0].Client == client && out[0].Seq == seq && out[0].Key == key && bytes.Equal(out[0].Value, value)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestKVApplyAndState(t *testing.T) {
	kv := NewKV()
	if err := kv.Apply(EncodePayload([]Command{
		{Client: 1, Seq: 1, Op: OpSet, Key: "x", Value: []byte("1")},
		{Client: 1, Seq: 2, Op: OpAppend, Key: "x", Value: []byte("2")},
		{Client: 2, Seq: 1, Op: OpSet, Key: "y", Value: []byte("z")},
	})); err != nil {
		t.Fatal(err)
	}
	if v, _ := kv.Get("x"); !bytes.Equal(v, []byte("12")) {
		t.Fatalf("x = %q", v)
	}
	if err := kv.Apply(EncodePayload([]Command{{Client: 2, Seq: 2, Op: OpDelete, Key: "y"}})); err != nil {
		t.Fatal(err)
	}
	if _, ok := kv.Get("y"); ok {
		t.Fatal("y not deleted")
	}
	if kv.Len() != 1 || kv.AppliedOps() != 4 {
		t.Fatalf("len=%d ops=%d", kv.Len(), kv.AppliedOps())
	}
}

func TestKVExactlyOnce(t *testing.T) {
	kv := NewKV()
	p := EncodePayload([]Command{{Client: 1, Seq: 1, Op: OpAppend, Key: "k", Value: []byte("x")}})
	if err := kv.Apply(p); err != nil {
		t.Fatal(err)
	}
	if err := kv.Apply(p); err != nil {
		t.Fatal(err) // duplicate payload: commands skipped
	}
	if v, _ := kv.Get("k"); !bytes.Equal(v, []byte("x")) {
		t.Fatalf("duplicate applied: k = %q", v)
	}
}

func TestKVStateHashDeterministic(t *testing.T) {
	a, b := NewKV(), NewKV()
	// Same commands in different payload groupings.
	c1 := Command{Client: 1, Seq: 1, Op: OpSet, Key: "a", Value: []byte("1")}
	c2 := Command{Client: 1, Seq: 2, Op: OpSet, Key: "b", Value: []byte("2")}
	if err := a.Apply(EncodePayload([]Command{c1, c2})); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(EncodePayload([]Command{c1})); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(EncodePayload([]Command{c2})); err != nil {
		t.Fatal(err)
	}
	if a.StateHash() != b.StateHash() {
		t.Fatal("same command sequence, different state hashes")
	}
	if err := b.Apply(EncodePayload([]Command{{Client: 9, Seq: 1, Op: OpSet, Key: "c", Value: []byte("3")}})); err != nil {
		t.Fatal(err)
	}
	if a.StateHash() == b.StateHash() {
		t.Fatal("different states, same hash")
	}
}

func TestQueueSubmitDedup(t *testing.T) {
	q := NewQueue()
	if err := q.TrySubmit(Command{Client: 1, Seq: 1, Op: OpSet, Key: "k"}); err != nil {
		t.Fatalf("first submit rejected: %v", err)
	}
	if err := q.TrySubmit(Command{Client: 1, Seq: 1, Op: OpSet, Key: "k"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate submit: err = %v, want ErrDuplicate", err)
	}
	if q.Len() != 1 {
		t.Fatalf("len = %d", q.Len())
	}
}

func TestQueueGetPayloadBatchesAndSkipsChain(t *testing.T) {
	q := NewQueue()
	for i := uint64(1); i <= 5; i++ {
		if err := q.TrySubmit(Command{Client: 7, Seq: i, Op: OpSet, Key: "k", Value: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	// Build a parent block whose payload already contains seq 1 and 2.
	parentPayload := EncodePayload([]Command{
		{Client: 7, Seq: 1, Op: OpSet, Key: "k", Value: []byte{1}},
		{Client: 7, Seq: 2, Op: OpSet, Key: "k", Value: []byte{2}},
	})
	parent := &types.Block{Round: 3, Proposer: 0, Payload: parentPayload}
	payload := q.GetPayload(4, parent, func(hash.Digest) *types.Block { return nil })
	cmds, err := DecodePayload(payload)
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 3 {
		t.Fatalf("batched %d commands, want 3 (chain dedup)", len(cmds))
	}
	for _, c := range cmds {
		if c.Seq <= 2 {
			t.Fatalf("seq %d re-proposed despite being in chain", c.Seq)
		}
	}
}

func TestQueueGetPayloadWalksAncestors(t *testing.T) {
	q := NewQueue()
	if err := q.TrySubmit(Command{Client: 1, Seq: 1, Op: OpSet, Key: "a"}); err != nil {
		t.Fatal(err)
	}
	grand := &types.Block{Round: 1, Proposer: 0,
		Payload: EncodePayload([]Command{{Client: 1, Seq: 1, Op: OpSet, Key: "a"}})}
	parent := &types.Block{Round: 2, Proposer: 1, ParentHash: grand.Hash()}
	lookup := func(h hash.Digest) *types.Block {
		if h == grand.Hash() {
			return grand
		}
		return nil
	}
	if p := q.GetPayload(3, parent, lookup); p != nil {
		t.Fatal("command in grandparent was re-proposed")
	}
}

func TestQueueMarkCommitted(t *testing.T) {
	q := NewQueue()
	if err := q.TrySubmit(Command{Client: 1, Seq: 1, Op: OpSet, Key: "a"}); err != nil {
		t.Fatal(err)
	}
	if err := q.TrySubmit(Command{Client: 1, Seq: 2, Op: OpSet, Key: "b"}); err != nil {
		t.Fatal(err)
	}
	q.MarkCommitted(EncodePayload([]Command{{Client: 1, Seq: 1, Op: OpSet, Key: "a"}}))
	if q.Len() != 1 {
		t.Fatalf("len = %d after commit", q.Len())
	}
	// The identity is freed: resubmitting the committed command works
	// (the KV layer's watermark still dedups it).
	if err := q.TrySubmit(Command{Client: 1, Seq: 1, Op: OpSet, Key: "a"}); err != nil {
		t.Fatalf("resubmit after commit rejected: %v", err)
	}
}

func TestQueueEmptyPayloadIsNil(t *testing.T) {
	q := NewQueue()
	if p := q.GetPayload(1, types.RootBlock(), nil); p != nil {
		t.Fatal("empty queue produced a payload")
	}
}

func TestQueueMaxBatch(t *testing.T) {
	q := NewQueue()
	q.maxBatch = 3
	for i := uint64(1); i <= 10; i++ {
		if err := q.TrySubmit(Command{Client: 1, Seq: i, Op: OpSet, Key: "k"}); err != nil {
			t.Fatal(err)
		}
	}
	cmds, err := DecodePayload(q.GetPayload(1, types.RootBlock(), nil))
	if err != nil {
		t.Fatal(err)
	}
	if len(cmds) != 3 {
		t.Fatalf("batch size %d, want 3", len(cmds))
	}
}

func TestQueueConcurrentSubmit(t *testing.T) {
	q := NewQueue()
	done := make(chan struct{})
	for g := 0; g < 4; g++ {
		g := g
		go func() {
			defer func() { done <- struct{}{} }()
			for i := uint64(1); i <= 100; i++ {
				_ = q.TrySubmit(Command{Client: uint64(g), Seq: i, Op: OpSet, Key: "k"})
			}
		}()
	}
	timeout := time.After(5 * time.Second)
	for g := 0; g < 4; g++ {
		select {
		case <-done:
		case <-timeout:
			t.Fatal("deadlock")
		}
	}
	if q.Len() != 400 {
		t.Fatalf("len = %d, want 400", q.Len())
	}
}

func TestKVSnapshotRestore(t *testing.T) {
	kv := NewKV()
	if err := kv.Apply(EncodePayload([]Command{
		{Client: 1, Seq: 1, Op: OpSet, Key: "a", Value: []byte("1")},
		{Client: 2, Seq: 5, Op: OpSet, Key: "b", Value: []byte("2")},
		{Client: 1, Seq: 2, Op: OpAppend, Key: "a", Value: []byte("x")},
	})); err != nil {
		t.Fatal(err)
	}
	snap := kv.Snapshot()
	restored, err := RestoreKV(snap)
	if err != nil {
		t.Fatal(err)
	}
	if restored.StateHash() != kv.StateHash() {
		t.Fatal("restored state hash differs")
	}
	if restored.AppliedOps() != kv.AppliedOps() {
		t.Fatal("ops counter lost")
	}
	// Watermarks survive: a replayed old command is still deduplicated.
	if err := restored.Apply(EncodePayload([]Command{
		{Client: 2, Seq: 4, Op: OpSet, Key: "b", Value: []byte("stale")},
	})); err != nil {
		t.Fatal(err)
	}
	if v, _ := restored.Get("b"); string(v) != "2" {
		t.Fatal("stale command applied after restore — watermark lost")
	}
	// New commands continue to apply.
	if err := restored.Apply(EncodePayload([]Command{
		{Client: 2, Seq: 6, Op: OpSet, Key: "c", Value: []byte("3")},
	})); err != nil {
		t.Fatal(err)
	}
	if _, ok := restored.Get("c"); !ok {
		t.Fatal("new command rejected after restore")
	}
}

func TestKVSnapshotDeterministic(t *testing.T) {
	a, b := NewKV(), NewKV()
	cmds := []Command{
		{Client: 1, Seq: 1, Op: OpSet, Key: "x", Value: []byte("1")},
		{Client: 3, Seq: 1, Op: OpSet, Key: "y", Value: []byte("2")},
	}
	// Same commands, different payload groupings.
	if err := a.Apply(EncodePayload(cmds)); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(EncodePayload(cmds[:1])); err != nil {
		t.Fatal(err)
	}
	if err := b.Apply(EncodePayload(cmds[1:])); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Fatal("equivalent states produced different snapshots")
	}
}

func TestRestoreRejectsGarbage(t *testing.T) {
	if _, err := RestoreKV([]byte{1, 2, 3}); err == nil {
		t.Fatal("garbage snapshot accepted")
	}
	kv := NewKV()
	_ = kv.Apply(EncodePayload([]Command{{Client: 1, Seq: 1, Op: OpSet, Key: "k", Value: []byte("v")}}))
	snap := kv.Snapshot()
	if _, err := RestoreKV(snap[:len(snap)-1]); err == nil {
		t.Fatal("truncated snapshot accepted")
	}
	if _, err := RestoreKV(append(snap, 0)); err == nil {
		t.Fatal("oversized snapshot accepted")
	}
}
