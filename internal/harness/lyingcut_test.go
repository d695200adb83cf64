package harness

import (
	"fmt"
	"slices"
	"testing"
	"time"

	"icc/internal/engine"
	"icc/internal/node"
	"icc/internal/simnet"
	"icc/internal/types"
)

// marginWatch checks, after every call into an honest party, each block
// that party cut as round leader: Δntry(0) less the block's Cut, the
// margin it cut with, must lie between the (n−2t−1)-th smallest and the
// largest of the lag slots its engine keeps for the other honest parties.
type marginWatch struct {
	engine.Engine
	cluster **Cluster
	self    types.PartyID
	byz     types.PartyID
	checked types.Round
	cuts    int
	errs    []string
}

func (w *marginWatch) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	defer w.check()
	return w.Engine.HandleMessage(from, m, now)
}

func (w *marginWatch) Tick(now time.Duration) []engine.Output {
	defer w.check()
	return w.Engine.Tick(now)
}

func (w *marginWatch) check() {
	c := *w.cluster
	e := c.Engines[w.self]
	k := e.CurrentRound()
	if k == w.checked {
		return
	}
	if perm, ok := e.Ranking(k); !ok || perm[0] != w.self {
		return
	}
	var own *types.Block
	for _, h := range e.Pool().BlocksInRound(k) {
		if b := e.Pool().Block(h); b.Proposer == w.self {
			own = b
		}
	}
	if own == nil {
		return
	}
	w.checked = k
	w.cuts++
	var honest []time.Duration
	for p, lag := range e.Lags() {
		if pid := types.PartyID(p); pid != w.self && pid != w.byz {
			honest = append(honest, lag)
		}
	}
	slices.Sort(honest)
	n := c.Opts.N
	lo, hi := honest[n-2*types.MaxFaults(n)-2], honest[len(honest)-1]
	if margin := c.Opts.Epsilon - own.Cut; margin < lo || margin > hi {
		w.errs = append(w.errs, fmt.Sprintf("party %d cut round %d with margin %v outside the honest lags' [%v, %v] (%v)",
			w.self, k, margin, lo, hi, honest))
	}
}

// TestChaosLyingCut: one Byzantine party lies to the others' cut
// estimators — its blocks claim a cut on entry, at Δntry(0), or the
// largest or smallest duration there is, or it holds each block until
// Δntry(0) + Δbnd/2 — under ICC0 and ICC1 at n = 4 and n = 7 with
// ε = 50 ms. The oracle's bounds hold unchanged, and every cut an honest
// leader makes uses a margin inside the range of the honest parties' lags.
func TestChaosLyingCut(t *testing.T) {
	const byz = 3
	for _, mode := range []node.Mode{node.ICC0, node.ICC1} {
		for _, n := range []int{4, 7} {
			for _, lie := range []Behavior{CutZero, CutNtry, CutWild, CutHold} {
				t.Run(fmt.Sprintf("%v/n%d/%v", mode, n, lie), func(t *testing.T) {
					var c *Cluster
					var watches []*marginWatch
					c, err := New(Options{N: n, Seed: 53, SimBeacon: true, Mode: mode,
						Delay: simnet.Uniform{Min: time.Millisecond, Max: 10 * time.Millisecond}, Epsilon: 50 * time.Millisecond,
						Behaviors: map[types.PartyID]Behavior{byz: lie},
						WrapEngine: func(p types.PartyID, e engine.Engine) engine.Engine {
							if p == byz {
								return e
							}
							w := &marginWatch{Engine: e, cluster: &c, self: p, byz: byz}
							watches = append(watches, w)
							return w
						}})
					if err != nil {
						t.Fatal(err)
					}
					c.Start()
					if !c.RunUntilCommitted(40, time.Minute) {
						t.Fatalf("honest parties committed only %d blocks", c.Log.Fewest(c.HonestParties()...))
					}
					judge(t, c, 0)
					cuts := 0
					for _, w := range watches {
						cuts += w.cuts
						for _, e := range w.errs {
							t.Error(e)
						}
					}
					if cuts == 0 {
						t.Fatal("no honest party led a round")
					}
					measured := 0
					for _, p := range c.HonestParties() {
						if c.Engines[p].Lags()[byz] != c.Opts.Epsilon/4 {
							measured++
						}
					}
					if measured == 0 {
						t.Fatal("no honest party ever sampled the liar's blocks")
					}
				})
			}
		}
	}
}
