package statemachine

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"

	"icc/internal/types"
)

func TestQueueTrySubmitTypedErrors(t *testing.T) {
	q := NewQueue()
	q.MaxPending = 2

	if err := q.TrySubmit(Command{Client: 1, Seq: 1, Op: OpSet, Key: "k"}); err != nil {
		t.Fatalf("fresh submit: %v", err)
	}
	if err := q.TrySubmit(Command{Client: 1, Seq: 1, Op: OpSet, Key: "k"}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate = %v, want ErrDuplicate", err)
	}
	// ErrTooLarge wins over ErrBacklogFull: the command could never be
	// proposed no matter how empty the queue is.
	big := Command{Client: 2, Seq: 1, Op: OpSet, Key: "k", Value: make([]byte, types.MaxPayloadBytes)}
	if err := q.TrySubmit(big); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("oversized = %v, want ErrTooLarge", err)
	}
	if err := q.TrySubmit(Command{Client: 3, Seq: 1, Op: OpSet, Key: "k"}); err != nil {
		t.Fatalf("second submit: %v", err)
	}
	if err := q.TrySubmit(Command{Client: 4, Seq: 1, Op: OpSet, Key: "k"}); !errors.Is(err, ErrBacklogFull) {
		t.Fatalf("over MaxPending = %v, want ErrBacklogFull", err)
	}
	// Draining reopens admission.
	q.MarkCommitted(EncodePayload([]Command{{Client: 1, Seq: 1, Op: OpSet, Key: "k"}}))
	if err := q.TrySubmit(Command{Client: 4, Seq: 1, Op: OpSet, Key: "k"}); err != nil {
		t.Fatalf("submit after drain: %v", err)
	}
}

// TestQueueConcurrentSubmitAndMarkCommitted races admission against what
// the event loop does with the queue — forward to a party, hold what one
// forwarded, cut a payload, settle, commit (GetPayload → MarkCommitted) —
// the exact interleaving a live replica runs. Run with -race.
func TestQueueConcurrentSubmitAndMarkCommitted(t *testing.T) {
	q := NewQueue()
	const producers, perProducer = 4, 200

	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := uint64(1); i <= perProducer; i++ {
				for {
					err := q.TrySubmit(Command{Client: uint64(p + 1), Seq: i, Op: OpSet, Key: "k"})
					if err == nil || errors.Is(err, ErrDuplicate) {
						break
					}
					if !errors.Is(err, ErrBacklogFull) {
						t.Errorf("producer %d: %v", p, err)
						return
					}
				}
			}
		}()
	}
	// Committer drains concurrently.
	stop := make(chan struct{})
	var committerWg sync.WaitGroup
	committed := make(map[ident]struct{})
	committerWg.Add(1)
	go func() {
		defer committerWg.Done()
		for {
			select {
			case <-q.Wake():
			default:
			}
			if fwd, n := q.Forward(1, nil, nil); n > 0 {
				q.Hold(2, fwd)
			}
			payload := q.GetPayload(0, nil, nil)
			q.Settle(func(types.PartyID, int, int) {})
			q.MarkCommitted(payload)
			if cmds, err := DecodePayload(payload); err == nil {
				for _, c := range cmds {
					id := ident{c.Client, c.Seq}
					if _, dup := committed[id]; dup {
						t.Errorf("(%d,%d) committed twice", c.Client, c.Seq)
					}
					committed[id] = struct{}{}
				}
			}
			select {
			case <-stop:
				if q.Len() == 0 {
					return
				}
			default:
			}
		}
	}()
	wg.Wait()
	close(stop)
	committerWg.Wait()
	if len(committed) != producers*perProducer {
		t.Fatalf("committed %d identities, want %d", len(committed), producers*perProducer)
	}
}

// TestPerClientSeqOrderPreserved: GetPayload stops (never skips) at the
// byte bound, so a client's seqs always commit in order even when a
// batch boundary splits them.
func TestPerClientSeqOrderPreserved(t *testing.T) {
	q := NewQueue()
	// Size the bound so roughly half the commands fit per batch.
	cmd := func(seq uint64) Command {
		return Command{Client: 9, Seq: seq, Op: OpAppend, Key: "log", Value: []byte(fmt.Sprintf("%03d.", seq))}
	}
	const total = 20
	q.maxBytes = payloadHeaderSize + 10*cmd(1).WireSize() + 1
	for i := uint64(1); i <= total; i++ {
		if err := q.TrySubmit(cmd(i)); err != nil {
			t.Fatal(err)
		}
	}
	kv := NewKV()
	var want bytes.Buffer
	next := uint64(1)
	for batches := 0; q.Len() > 0; batches++ {
		if batches > total {
			t.Fatal("queue never drained")
		}
		payload := q.GetPayload(0, nil, nil)
		if len(payload) > q.maxBytes {
			t.Fatalf("payload %d bytes exceeds maxBytes %d", len(payload), q.maxBytes)
		}
		cmds, err := DecodePayload(payload)
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range cmds {
			if c.Seq != next {
				t.Fatalf("client 9 committed seq %d before %d — order broken at a batch boundary", c.Seq, next)
			}
			want.WriteString(fmt.Sprintf("%03d.", next))
			next++
		}
		if err := kv.Apply(payload); err != nil {
			t.Fatal(err)
		}
		q.MarkCommitted(payload)
	}
	if v, _ := kv.Get("log"); !bytes.Equal(v, want.Bytes()) {
		t.Fatalf("applied log %q, want %q", v, want.Bytes())
	}
}

// TestChainDedupAfterRequeue: a command that committed, was freed by
// MarkCommitted, and got resubmitted must still be suppressed by the
// chain-context walk — otherwise a client retry would double-apply.
func TestChainDedupAfterRequeue(t *testing.T) {
	q := NewQueue()
	c := Command{Client: 5, Seq: 3, Op: OpSet, Key: "k", Value: []byte("v")}
	if err := q.TrySubmit(c); err != nil {
		t.Fatal(err)
	}
	payload := q.GetPayload(0, nil, nil)
	q.MarkCommitted(payload)
	// Retry after commit: admission accepts (the queue forgot the
	// identity) — proposal must not.
	if err := q.TrySubmit(c); err != nil {
		t.Fatalf("resubmit after commit: %v", err)
	}
	parent := &types.Block{Round: 1, Proposer: 0, Payload: payload}
	if p := q.GetPayload(2, parent, nil); p != nil {
		t.Fatal("committed command re-proposed on top of the chain that contains it")
	}
}

func TestEncodePayloadExactSizing(t *testing.T) {
	cases := [][]Command{
		nil,
		{{Client: 1, Seq: 1, Op: OpSet, Key: "", Value: nil}},
		{{Client: 1, Seq: 1, Op: OpSet, Key: "k", Value: []byte("v")},
			{Client: 2, Seq: 7, Op: OpDelete, Key: "longer-key-here"},
			{Client: 3, Seq: 9, Op: OpAppend, Key: "x", Value: make([]byte, 1000)}},
	}
	for i, cmds := range cases {
		if len(cmds) == 0 {
			continue
		}
		enc := EncodePayload(cmds)
		if got, want := len(enc), EncodedPayloadSize(cmds); got != want {
			t.Fatalf("case %d: encoded %d bytes, EncodedPayloadSize says %d", i, got, want)
		}
		sum := payloadHeaderSize
		for _, c := range cmds {
			sum += c.WireSize()
		}
		if len(enc) != sum {
			t.Fatalf("case %d: encoded %d bytes, WireSize sum says %d", i, len(enc), sum)
		}
	}
}

func TestDecodeRejectsOversizedPayload(t *testing.T) {
	if _, err := DecodePayload(make([]byte, types.MaxPayloadBytes+1)); err == nil {
		t.Fatal("payload over MaxPayloadBytes accepted")
	}
}
