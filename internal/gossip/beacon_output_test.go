package gossip

import (
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/thresig"
	"icc/internal/engine"
	"icc/internal/types"
)

// feedingSink mimics the real engine's beacon handling: every delivered
// beacon share is fed into the party's beacon source, the way the
// consensus engine does before checking for quorum, and the source is
// the one the wrapper finds through engine.BeaconOf.
type feedingSink struct {
	sink
	src beacon.Source
}

func (s *feedingSink) Beacon() beacon.Source { return s.src }

func (s *feedingSink) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	if bs, ok := m.(*types.BeaconShare); ok {
		s.src.AddShare(bs)
	}
	return s.sink.HandleMessage(from, m, now)
}

func beaconShare(k types.Round, signer types.PartyID) *types.BeaconShare {
	return &types.BeaconShare{Round: k, Signer: signer, Share: make([]byte, thresig.SigShareLen)}
}

// recoveredOutput drives an independent Simulated source to quorum for
// round k and returns the verifiable encoded output.
func recoveredOutput(t *testing.T, n int, k types.Round, seed []byte) []byte {
	t.Helper()
	remote := beacon.NewSimulated(n, 1, seed)
	for r := types.Round(1); r <= k; r++ {
		for i := 0; i < types.BeaconQuorum(n); i++ {
			remote.AddShare(beaconShare(r, types.PartyID(i)))
		}
		if _, ok := remote.Reveal(r); !ok {
			t.Fatalf("remote beacon not recoverable at round %d", r)
		}
	}
	out, ok := remote.EncodeOutput(k)
	if !ok {
		t.Fatalf("no encodable output for round %d", k)
	}
	return out
}

func countKind[T types.Message](outs []engine.Output) int {
	n := 0
	for _, o := range outs {
		if _, ok := o.Msg.(T); ok {
			n++
		}
	}
	return n
}

func TestBeaconOutputInstalledAndRelayed(t *testing.T) {
	seed := []byte("genesis")
	src := beacon.NewSimulated(7, 0, seed)
	inner := &feedingSink{sink: sink{id: 0}, src: src}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1}, inner)

	out := recoveredOutput(t, 7, 1, seed)
	outs := g.HandleMessage(g.Peers()[0], &types.BeaconOutput{Round: 1, Output: out}, 0)
	if !src.Have(1) {
		t.Fatal("verified output not installed")
	}
	if got := countKind[*types.BeaconOutput](outs); got != len(g.Peers())-1 {
		t.Fatalf("output relayed to %d peers, want %d", got, len(g.Peers())-1)
	}
	// The output is consumed by the gossip layer, never delivered inward.
	if len(inner.received) != 0 {
		t.Fatalf("inner engine received %d messages, want 0", len(inner.received))
	}
	// Duplicate copy: dropped entirely.
	if outs := g.HandleMessage(g.Peers()[1], &types.BeaconOutput{Round: 1, Output: out}, 0); len(outs) != 0 {
		t.Fatal("duplicate output re-relayed")
	}
	// A round-1 share arriving after the output: delivered (the inner
	// engine may still want it) but no longer relayed — the one output
	// supersedes the share flood.
	outs = g.HandleMessage(g.Peers()[0], beaconShare(1, 5), 0)
	if len(inner.received) != 1 {
		t.Fatal("share after output not delivered to inner engine")
	}
	if got := countKind[*types.BeaconShare](outs); got != 0 {
		t.Fatalf("share relayed %d times after the round's output was known", got)
	}
}

func TestBeaconOutputForgedRejectedThenRetried(t *testing.T) {
	seed := []byte("genesis")
	src := beacon.NewSimulated(7, 0, seed)
	inner := &feedingSink{sink: sink{id: 0}, src: src}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1}, inner)

	forged := make([]byte, 32)
	if outs := g.HandleMessage(g.Peers()[0], &types.BeaconOutput{Round: 1, Output: forged}, 0); len(outs) != 0 {
		t.Fatal("forged output relayed")
	}
	if src.Have(1) {
		t.Fatal("forged output installed")
	}

	// An output from a round ahead of us fails verification (R_1 is not
	// known yet) but must not be poisoned: the identical bytes succeed
	// once we catch up.
	out2 := recoveredOutput(t, 7, 2, seed)
	if outs := g.HandleMessage(g.Peers()[0], &types.BeaconOutput{Round: 2, Output: out2}, 0); len(outs) != 0 || src.Have(2) {
		t.Fatal("unverifiable ahead-of-us output accepted")
	}
	out1 := recoveredOutput(t, 7, 1, seed)
	g.HandleMessage(g.Peers()[0], &types.BeaconOutput{Round: 1, Output: out1}, 0)
	if outs := g.HandleMessage(g.Peers()[1], &types.BeaconOutput{Round: 2, Output: out2}, 0); len(outs) == 0 || !src.Have(2) {
		t.Fatal("retried output rejected after catch-up")
	}
}

func TestBeaconOutputEmittedOnLocalRecovery(t *testing.T) {
	seed := []byte("genesis")
	src := beacon.NewSimulated(7, 0, seed)
	inner := &feedingSink{sink: sink{id: 0}, src: src}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1}, inner)

	q := types.BeaconQuorum(7)
	var emitted int
	for i := 0; i < q; i++ {
		outs := g.HandleMessage(g.Peers()[0], beaconShare(1, types.PartyID(i+1)), 0)
		emitted += countKind[*types.BeaconOutput](outs)
	}
	if emitted != len(g.Peers()) {
		t.Fatalf("quorum crossing emitted %d outputs, want one per peer (%d)", emitted, len(g.Peers()))
	}
	if !src.Have(1) {
		t.Fatal("local recovery did not reveal the round")
	}
	// Further shares for the round: delivered, no relay, no re-emission.
	outs := g.HandleMessage(g.Peers()[0], beaconShare(1, types.PartyID(q+2)), 0)
	if countKind[*types.BeaconOutput](outs) != 0 || countKind[*types.BeaconShare](outs) != 0 {
		t.Fatal("post-recovery share still relayed or output re-emitted")
	}
}

func TestAdaptiveBatchWindow(t *testing.T) {
	const window = 10 * time.Millisecond
	inner := &sink{id: 0}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1, ShareBatchWindow: window, AdaptiveBatch: true}, inner)
	// relayed counts the share copies sent, bare or bundled.
	relayed := func(outs []engine.Output) (n int) {
		for _, o := range outs {
			switch v := o.Msg.(type) {
			case *types.BeaconShare:
				n++
			case *types.ShareBundle:
				n += v.Shares()
			}
		}
		return n
	}
	// The neighbours this party speaks to about a share get it with the
	// flush; the rest after the listening time, unless they spoke first.
	speaksTo := func(s *types.BeaconShare) (n int) {
		for pi := range g.Peers() {
			if pi > 0 && g.speaks(pi, g.describe(s, types.RefOf(s), nil)) {
				n++
			}
		}
		return n
	}

	// An isolated share on an idle party goes out immediately — no
	// window latency.
	first := beaconShare(1, 2)
	sentShares := relayed(g.HandleMessage(g.Peers()[0], first, 0))
	if want := speaksTo(first); sentShares != want || want == 0 {
		t.Fatalf("idle share relayed to %d peers, want immediate fanout %d", sentShares, want)
	}
	// A share close on its heels sees the party busy: batched.
	if got := relayed(g.HandleMessage(g.Peers()[0], beaconShare(1, 3), time.Millisecond)); got != 0 {
		t.Fatalf("burst share relayed immediately (%d frames)", got)
	}
	if got := relayed(g.HandleMessage(g.Peers()[0], beaconShare(1, 4), 2*time.Millisecond)); got != 0 {
		t.Fatal("burst share relayed immediately")
	}
	// The batch timer must be armed while shares are pending.
	wake, ok := g.NextWake(2 * time.Millisecond)
	if !ok || wake != time.Millisecond+window {
		t.Fatalf("NextWake = %v, %v; want flush at %v", wake, ok, time.Millisecond+window)
	}
	// The window close flushes the batch.
	got := relayed(g.Tick(wake))
	if got == 0 {
		t.Fatal("window close flushed nothing")
	}
	sentShares += got
	// What was held back for silent speakers follows; every neighbour but
	// the source has then been sent all three shares, and with nothing
	// pending no timer is armed (the adaptive mode's whole point — an idle
	// party wakes for nothing).
	for wake, ok = g.NextWake(wake); ok; wake, ok = g.NextWake(wake) {
		sentShares += relayed(g.Tick(wake))
	}
	if want := 3 * (len(g.Peers()) - 1); sentShares != want {
		t.Fatalf("%d share copies sent once the listening time had passed, want %d", sentShares, want)
	}
	// After a long idle stretch the next share is immediate again.
	next := beaconShare(2, 2)
	if got, want := relayed(g.HandleMessage(g.Peers()[0], next, 100*time.Millisecond)), speaksTo(next); got != want || want == 0 {
		t.Fatalf("post-idle share relayed to %d peers, want immediate fanout %d", got, want)
	}
}

func TestFixedBatchWindowStillDelays(t *testing.T) {
	// Without AdaptiveBatch the first share waits for the window — the
	// pre-existing behaviour the adaptive mode improves on.
	inner := &sink{id: 0}
	g := mustNew(t, Config{Self: 0, N: 7, Fanout: 3, Seed: 1, ShareBatchWindow: 10 * time.Millisecond}, inner)
	outs := g.HandleMessage(g.Peers()[0], beaconShare(1, 2), 0)
	if got := countKind[*types.BeaconShare](outs); got != 0 {
		t.Fatalf("fixed-window share relayed immediately (%d frames)", got)
	}
	if _, ok := g.NextWake(0); !ok {
		t.Fatal("fixed window armed no flush timer")
	}
}
