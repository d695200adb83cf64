package core

import (
	"crypto/rand"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/keys"
	"icc/internal/metrics"
	"icc/internal/oracle"
	"icc/internal/simnet"
	"icc/internal/types"
)

// harness bundles a simulated cluster of ICC0 engines.
type harness struct {
	pub     *keys.Public
	privs   []keys.Private
	net     *simnet.Network
	engines []*Engine
	rec     *metrics.Recorder
	log     *oracle.Log
}

type harnessOptions struct {
	n          int
	seed       int64
	delay      simnet.DelayModel
	deltaBound time.Duration
	epsilon    time.Duration
	simBeacon  bool
	payload    PayloadSource
	adaptive   bool
}

func newHarness(t testing.TB, opts harnessOptions) *harness {
	t.Helper()
	if opts.delay == nil {
		opts.delay = simnet.Fixed{D: 10 * time.Millisecond}
	}
	if opts.deltaBound == 0 {
		opts.deltaBound = 100 * time.Millisecond
	}
	pub, privs, err := keys.Deal(rand.Reader, opts.n)
	if err != nil {
		t.Fatal(err)
	}
	h := &harness{
		pub:   pub,
		privs: privs,
		rec:   metrics.NewRecorder(opts.n),
		log:   oracle.NewLog(opts.n),
	}
	h.net = simnet.New(simnet.Options{Seed: opts.seed, Delay: opts.delay, Recorder: h.rec})
	for i := 0; i < opts.n; i++ {
		i := i
		cfg := Config{
			Self:       types.PartyID(i),
			Keys:       pub,
			Priv:       privs[i],
			DeltaBound: opts.deltaBound,
			Epsilon:    opts.epsilon,
			Payload:    opts.payload,
			Adaptive:   opts.adaptive,
			Hooks: Hooks{
				OnCommit: func(b *types.Block, now time.Duration) {
					h.log.Commit(types.PartyID(i), b, now)
					h.rec.Commit(b.Round, len(b.Payload), now)
				},
				OnPropose: func(k types.Round, now time.Duration) {
					h.rec.Propose(k, now)
				},
				OnFinishRound: func(k types.Round, now time.Duration) {
					h.rec.FinishRound(k, now)
				},
			},
		}
		if opts.simBeacon {
			cfg.Beacon = beacon.NewSimulated(opts.n, types.PartyID(i), pub.GenesisSeed)
		}
		eng := NewEngine(cfg)
		h.engines = append(h.engines, eng)
		h.net.AddNode(eng, true)
	}
	return h
}

// TestFourPartiesCommit: four honest parties commit, agree, and each
// commits one chain.
func TestFourPartiesCommit(t *testing.T) {
	h := newHarness(t, harnessOptions{n: 4, seed: 1})
	h.net.Start()
	ok := h.net.RunUntil(func() bool {
		for p := range h.engines {
			if h.log.Len(types.PartyID(p)) < 5 {
				return false
			}
		}
		return true
	}, 30*time.Second)
	if !ok {
		for p, e := range h.engines {
			t.Logf("party %d committed %d blocks, round %d", p, h.log.Len(types.PartyID(p)), e.CurrentRound())
		}
		t.Fatal("parties did not commit 5 blocks within 30s of simulated time")
	}
	if err := oracle.Judge(h.log, oracle.Expect{Holds: oracle.Safety}); err != nil {
		t.Fatal(err)
	}
}

func TestCommittedBlocksFormChain(t *testing.T) {
	h := newHarness(t, harnessOptions{n: 4, seed: 2})
	h.net.Start()
	if !h.net.RunUntil(func() bool { return h.log.Len(0) >= 4 }, 30*time.Second) {
		t.Fatal("no progress")
	}
	seq := h.log.Commits(0)
	for i := 1; i < len(seq); i++ {
		if seq[i].Parent != seq[i-1].Hash {
			t.Fatalf("committed block %d does not extend block %d", i, i-1)
		}
	}
	if seq[0].Parent != h.engines[0].Pool().RootHash() {
		t.Fatal("first committed block does not extend the root")
	}
}
