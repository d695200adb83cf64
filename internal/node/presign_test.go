package node_test

import (
	"math/rand"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/core"
	"icc/internal/crypto/keys"
	"icc/internal/node"
	"icc/internal/simnet"
	"icc/internal/types"
)

// cacheWatch is a simulated beacon that records, per round, whether the
// last request for this party's own share found it already signed.
type cacheWatch struct {
	*beacon.Simulated
	cached map[types.Round]bool
}

func (w *cacheWatch) ShareForRound(k types.Round) (*types.BeaconShare, error) {
	_, w.cached[k] = w.Simulated.CachedShareForRound(k)
	return w.Simulated.ShareForRound(k)
}

// TestICC1EntriesFindTheNextShareSigned: under the ICC1 overlay with a
// beacon whose output is verifiable, the overlay reveals R_{k+1} itself
// from the share that completes the quorum, to forward the output. The
// engine must still pre-sign its share of R_{k+2} during round k, so that
// entering round k+1 costs a cache lookup: nine entries in ten at least
// (the first round's cannot be).
func TestICC1EntriesFindTheNextShareSigned(t *testing.T) {
	const n = 13
	pub, privs, err := keys.Deal(rand.New(rand.NewSource(5)), n)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Options{Seed: 5, Delay: simnet.Uniform{Min: 75 * time.Microsecond, Max: 300 * time.Microsecond}})
	entries, signed := 0, 0
	engines := make([]*core.Engine, n)
	for i := 0; i < n; i++ {
		pid := types.PartyID(i)
		w := &cacheWatch{Simulated: beacon.NewSimulated(n, pid, pub.GenesisSeed), cached: make(map[types.Round]bool)}
		inner, eng, err := node.Stack(core.Config{
			Self: pid, Keys: pub, Priv: privs[i], Beacon: w,
			DeltaBound: 100 * time.Millisecond, Epsilon: 50 * time.Millisecond,
			Hooks: core.Hooks{OnEnterRound: func(k types.Round, _ time.Duration) {
				entries++
				if w.cached[k+1] {
					signed++
				}
			}},
		}, nil, node.ICC1, node.Overlay{Seed: 42}, true)
		if err != nil {
			t.Fatal(err)
		}
		engines[i] = inner
		net.AddNode(eng, true)
	}
	net.Start()
	if !net.RunUntil(func() bool { return engines[0].FinalizedRound() >= 30 }, time.Minute) {
		t.Fatalf("party 0 committed only %d rounds", engines[0].FinalizedRound())
	}
	t.Logf("%d of %d round entries found their next share signed", signed, entries)
	if signed*10 < entries*9 {
		t.Fatalf("%d of %d round entries found their next share signed; want nine in ten", signed, entries)
	}
}
