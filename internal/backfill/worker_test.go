package backfill

import (
	"sync"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/core"
	"icc/internal/obs"
	"icc/internal/transport"
	"icc/internal/types"
)

// gatedSigner wraps a signer so tests can hold requests in flight.
type gatedSigner struct {
	inner   ShareSigner
	started chan struct{} // one receive per ShareForRound entry
	gate    chan struct{} // each ShareForRound waits for one token
}

func newGatedSigner(inner ShareSigner) *gatedSigner {
	return &gatedSigner{inner: inner, started: make(chan struct{}, 64), gate: make(chan struct{})}
}

func (g *gatedSigner) ShareForRound(k types.Round) (*types.BeaconShare, error) {
	g.started <- struct{}{}
	<-g.gate
	return g.inner.ShareForRound(k)
}

// simBeacon returns a simulated beacon that can sign rounds 1..rounds.
func simBeacon(t *testing.T, rounds int) *beacon.Simulated {
	t.Helper()
	s := beacon.NewSimulated(4, 0, []byte("genesis"))
	for k := 1; k <= rounds; k++ {
		for p := types.PartyID(0); p < 4; p++ {
			sh, err := beacon.NewSimulated(4, p, []byte("genesis")).ShareForRound(1)
			if err != nil {
				t.Fatal(err)
			}
			sh.Round = types.Round(k)
			if _, err := s.AddShare(sh); err != nil {
				t.Fatal(err)
			}
		}
		if _, ok := s.Reveal(types.Round(k)); !ok {
			t.Fatalf("reveal round %d failed", k)
		}
	}
	return s
}

func recvBundle(t *testing.T, ep transport.Endpoint) *types.Bundle {
	t.Helper()
	select {
	case env := <-ep.Inbox():
		b, ok := env.Msg.(*types.Bundle)
		if !ok {
			t.Fatalf("received %T, want *types.Bundle", env.Msg)
		}
		return b
	case <-time.After(5 * time.Second):
		t.Fatal("no bundle delivered")
		return nil
	}
}

func TestWorkerSignsAndDelivers(t *testing.T) {
	hub := transport.NewInproc(2)
	reg := obs.NewRegistry()
	w := New(simBeacon(t, 5), hub.Endpoint(0), Options{Registry: reg})
	defer w.Close()

	if !w.EnqueueBackfill(core.BackfillRequest{Peer: 1, Rounds: []types.Round{1, 2, 3}}) {
		t.Fatal("enqueue refused")
	}
	b := recvBundle(t, hub.Endpoint(1))
	if len(b.Messages) != 3 {
		t.Fatalf("bundle carries %d messages, want 3", len(b.Messages))
	}
	for i, m := range b.Messages {
		sh, ok := m.(*types.BeaconShare)
		if !ok {
			t.Fatalf("message %d is %T, want *types.BeaconShare", i, m)
		}
		if sh.Round != types.Round(i+1) || sh.Signer != 0 {
			t.Fatalf("message %d: round %d signer %d", i, sh.Round, sh.Signer)
		}
	}
}

func TestWorkerSkipsUnsignableRounds(t *testing.T) {
	hub := transport.NewInproc(2)
	s := simBeacon(t, 5)
	s.Prune(3) // rounds 1,2 now ErrPruned
	w := New(s, hub.Endpoint(0), Options{})
	defer w.Close()

	// Rounds 1,2 pruned; round 99 unsignable (R_98 unknown); 3,4 fine.
	if !w.EnqueueBackfill(core.BackfillRequest{Peer: 1, Rounds: []types.Round{1, 2, 3, 4, 99}}) {
		t.Fatal("enqueue refused")
	}
	b := recvBundle(t, hub.Endpoint(1))
	if len(b.Messages) != 2 {
		t.Fatalf("bundle carries %d messages, want 2 (pruned/unsignable skipped)", len(b.Messages))
	}
}

func TestWorkerDedupesPerPeer(t *testing.T) {
	hub := transport.NewInproc(2)
	g := newGatedSigner(simBeacon(t, 5))
	w := New(g, hub.Endpoint(0), Options{})
	defer w.Close()

	if !w.EnqueueBackfill(core.BackfillRequest{Peer: 1, Rounds: []types.Round{1}}) {
		t.Fatal("first enqueue refused")
	}
	<-g.started // the request is now in flight inside ShareForRound
	if w.EnqueueBackfill(core.BackfillRequest{Peer: 1, Rounds: []types.Round{2}}) {
		t.Fatal("duplicate in-flight request accepted")
	}
	g.gate <- struct{}{} // release the signer
	recvBundle(t, hub.Endpoint(1))
	// After completion the peer may ask again.
	deadline := time.Now().Add(5 * time.Second)
	for !w.EnqueueBackfill(core.BackfillRequest{Peer: 1, Rounds: []types.Round{2}}) {
		if time.Now().After(deadline) {
			t.Fatal("post-completion request still refused")
		}
		time.Sleep(time.Millisecond)
	}
	g.gate <- struct{}{}
	recvBundle(t, hub.Endpoint(1))
}

func TestWorkerDropsWhenQueueFull(t *testing.T) {
	hub := transport.NewInproc(8)
	g := newGatedSigner(simBeacon(t, 5))
	w := New(g, hub.Endpoint(0), Options{workers: 1, queueSize: 1})
	defer func() {
		close(g.gate) // unblock everything for Close
		w.Close()
	}()

	// First request occupies the single worker…
	if !w.EnqueueBackfill(core.BackfillRequest{Peer: 1, Rounds: []types.Round{1}}) {
		t.Fatal("first enqueue refused")
	}
	<-g.started
	// …second fills the queue…
	if !w.EnqueueBackfill(core.BackfillRequest{Peer: 2, Rounds: []types.Round{1}}) {
		t.Fatal("second enqueue refused")
	}
	// …third (distinct peer, so not the dedupe path) must drop.
	if w.EnqueueBackfill(core.BackfillRequest{Peer: 3, Rounds: []types.Round{1}}) {
		t.Fatal("enqueue accepted beyond queue capacity")
	}
}

func TestWorkerCloseRefusesAndUnblocks(t *testing.T) {
	hub := transport.NewInproc(2)
	w := New(simBeacon(t, 5), hub.Endpoint(0), Options{workers: 2})
	w.Close()
	w.Close() // idempotent
	if w.EnqueueBackfill(core.BackfillRequest{Peer: 1, Rounds: []types.Round{1}}) {
		t.Fatal("enqueue accepted after Close")
	}
}

func TestWorkerConcurrentEnqueue(t *testing.T) {
	hub := transport.NewInproc(8)
	w := New(simBeacon(t, 8), hub.Endpoint(0), Options{workers: 2})
	defer w.Close()

	var wg sync.WaitGroup
	for p := types.PartyID(1); p < 8; p++ {
		wg.Add(1)
		go func(p types.PartyID) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				w.EnqueueBackfill(core.BackfillRequest{Peer: p, Rounds: []types.Round{1, 2, 3}})
			}
		}(p)
	}
	wg.Wait()
	// Every peer got at least one bundle (the first enqueue per peer
	// cannot have been refused: queue 64 ≫ 7 peers).
	for p := types.PartyID(1); p < 8; p++ {
		recvBundle(t, hub.Endpoint(p))
	}
}
