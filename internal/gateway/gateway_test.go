package gateway

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"icc/internal/obs"
	"icc/internal/statemachine"
	"icc/internal/types"
)

// harness is a gateway over a real queue+KV, driven by hand: commit(r)
// plays the role of the consensus OnCommit hook — drain the queue into
// a payload, apply it, mark it committed, then ObserveCommit. That is
// exactly the ordering the facade and iccnode use.
type harness struct {
	q  *statemachine.Queue
	kv *statemachine.KV
	gw *Gateway
}

func newHarness(t *testing.T, o Options) *harness {
	t.Helper()
	h := &harness{q: statemachine.NewQueue(), kv: statemachine.NewKV()}
	h.gw = New(h.q, h.kv, o)
	h.gw.Start()
	t.Cleanup(h.gw.Stop)
	return h
}

// commit finalizes everything currently pending as round r.
func (h *harness) commit(r uint64) {
	payload := h.q.GetPayload(0, nil, nil)
	h.kv.Apply(payload)
	h.q.MarkCommitted(payload)
	h.gw.ObserveCommit(r, payload)
}

func cmd(client, seq uint64, key string) statemachine.Command {
	return statemachine.Command{Client: client, Seq: seq, Op: statemachine.OpSet, Key: key, Value: []byte("v")}
}

func TestAckOnlyAtFinality(t *testing.T) {
	h := newHarness(t, Options{})
	ctx := context.Background()

	r, err := h.gw.Submit(ctx, cmd(1, 1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	// Admission must NOT resolve the receipt.
	select {
	case <-r.Done():
		t.Fatal("receipt resolved at admission — ack precedes finality")
	case <-time.After(20 * time.Millisecond):
	}

	// A finalized round that does not carry the command advances the
	// commit index but leaves the receipt pending.
	h.gw.ObserveCommit(1, nil)
	select {
	case <-r.Done():
		t.Fatal("receipt resolved by an unrelated finalized round")
	case <-time.After(20 * time.Millisecond):
	}
	if got := h.gw.AppliedIndex(); got != 1 {
		t.Fatalf("AppliedIndex = %d after empty round 1, want 1", got)
	}

	// Finalizing the round that carries the command resolves it with that
	// round as the commit index.
	h.commit(2)
	ack, err := r.Wait(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if ack.CommitIndex != 2 {
		t.Fatalf("CommitIndex = %d, want 2", ack.CommitIndex)
	}
	if v, ok := h.kv.Get("a"); !ok || string(v) != "v" {
		t.Fatalf("acked write not in finalized state: %q %v", v, ok)
	}
}

func TestSubmitBackpressure(t *testing.T) {
	h := newHarness(t, Options{MaxBacklog: 2})
	ctx := context.Background()
	for i := uint64(1); i <= 2; i++ {
		if _, err := h.gw.Submit(ctx, cmd(1, i, "k")); err != nil {
			t.Fatalf("submit %d within backlog: %v", i, err)
		}
	}
	if _, err := h.gw.Submit(ctx, cmd(1, 3, "k")); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("over-backlog submit = %v, want ErrBacklogFull", err)
	}
	if got := h.gw.Backlog(); got != 2 {
		t.Fatalf("Backlog = %d, want 2", got)
	}
	// Draining the backlog reopens admission.
	h.commit(1)
	if _, err := h.gw.Submit(ctx, cmd(1, 3, "k")); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

func TestSubmitTypedErrors(t *testing.T) {
	h := newHarness(t, Options{})
	ctx := context.Background()

	if _, err := h.gw.Submit(ctx, cmd(7, 1, "dup")); err != nil {
		t.Fatal(err)
	}
	// Pending duplicate.
	if _, err := h.gw.Submit(ctx, cmd(7, 1, "dup")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("pending duplicate = %v, want ErrDuplicate", err)
	}
	h.commit(1)
	// Finalized duplicate — caught via the resolved ring / applied seq.
	if _, err := h.gw.Submit(ctx, cmd(7, 1, "dup")); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("finalized duplicate = %v, want ErrDuplicate", err)
	}
	// Oversized command can never fit a payload.
	big := statemachine.Command{Client: 8, Seq: 1, Op: statemachine.OpSet, Key: "big",
		Value: make([]byte, types.MaxPayloadBytes)}
	if _, err := h.gw.Submit(ctx, big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized submit = %v, want ErrTooLarge", err)
	}
	// Cancelled context fails before touching the queue.
	cancelled, cancel := context.WithCancel(ctx)
	cancel()
	if _, err := h.gw.Submit(cancelled, cmd(9, 1, "x")); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled submit = %v, want context.Canceled", err)
	}
}

func TestNotRunningBeforeStartAndAfterStop(t *testing.T) {
	q, kv := statemachine.NewQueue(), statemachine.NewKV()
	gw := New(q, kv, Options{})
	ctx := context.Background()

	if _, err := gw.Submit(ctx, cmd(1, 1, "a")); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("submit before Start = %v, want ErrNotRunning", err)
	}
	if _, err := gw.Read(ctx, "a", 0); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("read before Start = %v, want ErrNotRunning", err)
	}

	gw.Start()
	r, err := gw.Submit(ctx, cmd(1, 1, "a"))
	if err != nil {
		t.Fatal(err)
	}
	gw.Stop()
	// Stop resolves in-flight receipts with ErrNotRunning instead of
	// leaving their waiters hanging.
	if _, err := r.Wait(ctx); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("in-flight receipt after Stop = %v, want ErrNotRunning", err)
	}
	if _, err := gw.Submit(ctx, cmd(1, 2, "a")); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("submit after Stop = %v, want ErrNotRunning", err)
	}
	gw.Start() // Start after Stop stays off
	if _, err := gw.Submit(ctx, cmd(1, 3, "a")); !errors.Is(err, ErrNotRunning) {
		t.Fatalf("submit after Stop+Start = %v, want ErrNotRunning", err)
	}
}

func TestReadWaitsForToken(t *testing.T) {
	h := newHarness(t, Options{})
	ctx := context.Background()

	// Token 0 reads immediately.
	if res, err := h.gw.Read(ctx, "a", 0); err != nil || res.Found {
		t.Fatalf("zero-token read = %+v, %v", res, err)
	}

	// A read with a future token blocks until the index reaches it.
	readDone := make(chan ReadResult, 1)
	go func() {
		res, err := h.gw.Read(ctx, "a", 3)
		if err != nil {
			t.Errorf("gated read: %v", err)
		}
		readDone <- res
	}()
	select {
	case <-readDone:
		t.Fatal("read with token 3 returned before the index reached 3")
	case <-time.After(20 * time.Millisecond):
	}

	if _, err := h.gw.Submit(ctx, cmd(1, 1, "a")); err != nil {
		t.Fatal(err)
	}
	h.gw.ObserveCommit(2, nil) // index 2 < 3: still gated
	select {
	case <-readDone:
		t.Fatal("read released at index 2 with token 3")
	case <-time.After(20 * time.Millisecond):
	}
	h.commit(3) // applies the write, then releases the reader
	select {
	case res := <-readDone:
		if !res.Found || string(res.Value) != "v" || res.Index != 3 {
			t.Fatalf("released read = %+v, want found v at index 3", res)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("read never released after index reached the token")
	}

	// Context expiry unblocks a read whose token never arrives.
	short, cancel := context.WithTimeout(ctx, 30*time.Millisecond)
	defer cancel()
	if _, err := h.gw.Read(short, "a", 99); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("expired gated read = %v, want DeadlineExceeded", err)
	}
}

func TestLookup(t *testing.T) {
	h := newHarness(t, Options{})
	ctx := context.Background()

	if _, _, ok := h.gw.Lookup(5, 1); ok {
		t.Fatal("Lookup found an unknown identity")
	}
	r, err := h.gw.Submit(ctx, cmd(5, 1, "k"))
	if err != nil {
		t.Fatal(err)
	}
	if got, _, ok := h.gw.Lookup(5, 1); !ok || got != r {
		t.Fatal("Lookup did not return the pending receipt")
	}
	h.commit(4)
	if r2, idx, ok := h.gw.Lookup(5, 1); !ok || r2 != nil || idx != 4 {
		t.Fatalf("Lookup after finality = (%v, %d, %v), want (nil, 4, true)", r2, idx, ok)
	}
}

func TestConcurrentSubmitAndCommit(t *testing.T) {
	reg := obs.NewRegistry()
	h := newHarness(t, Options{Registry: reg})
	ctx := context.Background()

	const clients, perClient = 8, 50
	var wg sync.WaitGroup
	receipts := make(chan *Receipt, clients*perClient)
	for c := 1; c <= clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for s := uint64(1); s <= perClient; s++ {
				r, err := h.gw.Submit(ctx, cmd(uint64(c), s, fmt.Sprintf("c%d", c)))
				if err != nil {
					t.Errorf("client %d seq %d: %v", c, s, err)
					return
				}
				receipts <- r
			}
		}()
	}
	// Committer races the submitters.
	stop := make(chan struct{})
	var committerWg sync.WaitGroup
	committerWg.Add(1)
	go func() {
		defer committerWg.Done()
		round := uint64(0)
		for {
			select {
			case <-stop:
				round++
				h.commit(round) // final sweep
				return
			default:
				round++
				h.commit(round)
			}
		}
	}()
	wg.Wait()
	close(stop)
	committerWg.Wait()
	close(receipts)

	waitCtx, cancel := context.WithTimeout(ctx, 10*time.Second)
	defer cancel()
	n := 0
	for r := range receipts {
		if _, err := r.Wait(waitCtx); err != nil {
			t.Fatalf("receipt (%d,%d): %v", r.Client, r.Seq, err)
		}
		n++
	}
	if n != clients*perClient {
		t.Fatalf("resolved %d receipts, want %d", n, clients*perClient)
	}
	snap := reg.Snapshot()
	if got := snap.Get("icc_gateway_acked_total"); got != float64(n) {
		t.Fatalf("icc_gateway_acked_total = %v, want %d", got, n)
	}
	if snap.Get("icc_gateway_commit_latency_seconds_count") != float64(n) {
		t.Fatal("ack latency histogram count mismatch")
	}
}

func TestResolvedRingEviction(t *testing.T) {
	h := newHarness(t, Options{})
	// Fill well past resolvedCap through direct ObserveCommit payloads.
	for i := 0; i < 3; i++ {
		cmds := make([]statemachine.Command, resolvedCap/2)
		for j := range cmds {
			cmds[j] = cmd(uint64(100+i), uint64(j+1), "k")
		}
		payload := statemachine.EncodePayload(cmds)
		h.kv.Apply(payload)
		h.gw.ObserveCommit(uint64(i+1), payload)
	}
	h.gw.mu.Lock()
	size, order := len(h.gw.resolved), len(h.gw.order)
	h.gw.mu.Unlock()
	if size > resolvedCap || order > resolvedCap {
		t.Fatalf("resolved ring grew unbounded: map=%d order=%d cap=%d", size, order, resolvedCap)
	}
}
