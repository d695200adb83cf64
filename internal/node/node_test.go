package node_test

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"icc/internal/core"
	"icc/internal/crypto/hash"
	"icc/internal/engine"
	"icc/internal/gateway"
	"icc/internal/gossip"
	"icc/internal/harness"
	"icc/internal/node"
	"icc/internal/pool"
	"icc/internal/types"
)

// forgedShare is a notarization share with a signature of zeros.
func forgedShare(i uint64, signer types.PartyID) *types.NotarizationShare {
	return &types.NotarizationShare{
		Round:     types.Round(i%50 + 1),
		Proposer:  types.PartyID(i % 4),
		BlockHash: hash.SumUint64(hash.DomainBlock, i),
		Signer:    signer,
		Sig:       make([]byte, 64),
	}
}

const badShare = `icc_verify_rejects_total{reason="bad_share"}`

// certSpy sits where a Byzantine wrapper would, between the engine and
// the dissemination layer, and notes a notarization handed down to the
// engine: in these tests only a relay that combined one can be the source.
type certSpy struct {
	engine.Engine
	seen *bool
}

func (s certSpy) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	if _, ok := m.(*types.Notarization); ok {
		*s.seen = true
	}
	return s.Engine.HandleMessage(from, m, now)
}

// TestModesCommitAndAgree runs every dissemination mode, live and
// simulated. The live cluster checks signatures where every live node
// does, in its verify pipeline: it must commit, agree round by round,
// and reject a forged share there, while the pool and the gossip relays
// behind the pipeline trust their input. Seven parties on a
// three-neighbour overlay, so ICC1 really relays.
//
// Each mode also builds the simulated cluster under both verification
// policies: pipelined=true declares the stack's input verified, as it is
// behind a live node's pipeline; pipelined=false leaves the checks to
// the pool and the relays. The live cluster runs in the pipelined=true
// cell, on that cell's keys: the two are one stack (Stack), so a
// simulated party has its live twin's overlay neighbours. A simulated
// party meets the forgery as its stack would — its pool rejects it when
// input arrives unverified, and admits it when input is declared
// verified, because a simulated party has no pipeline in front: such a
// cell is sound only while none of its behaviours forges.
//
// The gossip relay is the other half of that one decision. A third stack
// on the same keys is handed a quorum of forged shares of one statement:
// the ICC1 relay combines them into a certificate exactly when its input
// is declared verified, and otherwise verifies while combining and makes
// none — a relay that trusted shares nobody had checked would pass every
// check above, since the pool under it still rejects.
func TestModesCommitAndAgree(t *testing.T) {
	const (
		n      = 7
		live   = 6 // party 6 runs no node: its endpoint sends the forgeries
		fanout = 3
		seed   = 7
	)
	for _, mode := range []node.Mode{node.ICC0, node.ICC1, node.ICC2} {
		for _, pipelined := range []bool{true, false} {
			mode, pipelined := mode, pipelined
			t.Run(fmt.Sprintf("%v/pipelined=%v", mode, pipelined), func(t *testing.T) {
				policy := pool.VerifyFull
				if pipelined {
					policy = pool.VerifyPreVerified
				}
				outer := make([]engine.Engine, n)
				sim, err := harness.New(harness.Options{
					N: n, Seed: seed, SimBeacon: true, Mode: mode, Verify: policy, GossipFanout: fanout,
					WrapEngine: func(p types.PartyID, e engine.Engine) engine.Engine {
						outer[p] = e
						return e
					},
				})
				if err != nil {
					t.Fatal(err)
				}
				if pipelined {
					c := newTestCluster(t, n, false)
					c.pub, c.privs = sim.Pub, sim.Privs
					c.buildAll(live, func(_ int, cfg *node.Config) {
						cfg.Mode = mode
						cfg.GossipFanout, cfg.GossipSeed = fanout, seed
					})
					for i, nd := range c.nodes[:live] {
						var want []types.PartyID
						if g, ok := outer[i].(*gossip.Engine); ok {
							want = g.Peers()
						}
						if got := nd.Peers(); (mode == node.ICC1) != (len(want) == fanout) || !reflect.DeepEqual(got, want) {
							t.Fatalf("party %d: live neighbours %v, simulated %v", i, got, want)
						}
					}
					c.waitCommits(all(live), 4, 60*time.Second)

					const forgeries = 8
					forger := c.endpoint(live)
					for i := uint64(0); i < forgeries; i++ {
						for p := 0; p < live; p++ {
							_ = forger.Send(types.PartyID(p), forgedShare(i, live)) // the hub drops when an inbox is full; eight tries are plenty
						}
					}
					waitFor(t, 30*time.Second, "a forged share was rejected nowhere", func() bool {
						return c.reg.Snapshot()[badShare] > 0
					})
					base := c.committed(0)
					c.waitCommits(all(live), base+2, 60*time.Second)
					c.agree()

					if c.reg.Snapshot()["icc_verify_verified_total"] == 0 {
						t.Fatal("pipeline verified nothing: artifacts bypassed it")
					}
					for p, nd := range c.nodes[:live] {
						nd.Stop() // the pool is the event loop's until then
						for i := uint64(0); i < forgeries; i++ {
							if nd.Engine.Pool().NotarShareCount(forgedShare(i, live).BlockHash) != 0 {
								t.Fatalf("party %d admitted forged share %d", p, i)
							}
						}
					}
				}

				sim.Start()
				if !sim.RunUntilCommitted(2, time.Minute) {
					t.Fatal("the simulated cluster does not commit")
				}
				forged := forgedShare(30, live) // a round the run has not reached
				outer[0].HandleMessage(live, forged, sim.Net.Now())
				if admitted := sim.Engines[0].Pool().NotarShareCount(forged.BlockHash) != 0; admitted != pipelined {
					t.Fatalf("simulated party admitted the forged share: %v, with input declared verified: %v", admitted, pipelined)
				}

				combined := false
				_, relay, err := node.Stack(core.Config{Self: 0, Keys: sim.Pub, Priv: sim.Privs[0]},
					func(e *core.Engine) engine.Engine { return certSpy{e, &combined} },
					mode, node.Overlay{Fanout: fanout, Seed: seed}, pipelined)
				if err != nil {
					t.Fatal(err)
				}
				for s := 1; s <= sim.Pub.Notary.Quorum(); s++ {
					relay.HandleMessage(types.PartyID(s), forgedShare(30, types.PartyID(s)), 0)
				}
				if want := mode == node.ICC1 && pipelined; combined != want {
					t.Fatalf("relay combined a quorum of forged shares on trust: %v, with input declared verified: %v", combined, pipelined)
				}
			})
		}
	}
}

// TestByzantineFloodLiveness gives party 3 no node at all: it floods
// the three honest parties with forged notarization shares as fast as
// it can. n=4 tolerates t=1 faults and NotaryQuorum(4)=3, so the honest
// parties must keep committing; the forgeries must all die in the
// pipeline (reject counters), never reaching the PreVerified pools.
func TestByzantineFloodLiveness(t *testing.T) {
	c := newTestCluster(t, 4, false)
	honest := []int{0, 1, 2}
	c.buildAll(3, nil)

	flooder := c.endpoint(3)
	stopFlood := make(chan struct{})
	flooded := make(chan struct{})
	go func() {
		defer close(flooded)
		for i := uint64(0); ; i++ {
			select {
			case <-stopFlood:
				return
			default:
			}
			for _, p := range honest {
				_ = flooder.Send(types.PartyID(p), forgedShare(i, 3))
			}
			// Pace the flood (~2k forgeries/s). An unthrottled producer
			// on a small CI host starves the honest goroutines outright,
			// testing the Go scheduler rather than the pipeline.
			time.Sleep(500 * time.Microsecond)
		}
	}()
	defer func() {
		close(stopFlood)
		<-flooded
	}()

	c.waitCommits(honest, 5, 30*time.Second)
	c.agree()
	rejects := c.reg.Snapshot()[badShare]
	if rejects == 0 {
		t.Fatal("flood produced no pipeline rejects")
	}
	t.Logf("honest parties committed under a flood of %v rejected forgeries", rejects)
}

// waitGoroutines waits for the goroutine count to come back to base.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	waitFor(t, 10*time.Second, "goroutines leaked", func() bool {
		if runtime.NumGoroutine() <= base {
			return true
		}
		t.Logf("%d goroutines, %d before", runtime.NumGoroutine(), base)
		return false
	})
}

// TestNewClosesWhatItOpenedOnError fails construction at the last steps
// that can fail — the dissemination layer, after the WAL, the checkpoint
// store and the backfill worker exist — and at the first, opening the
// directory, and expects nothing left behind either way.
func TestNewClosesWhatItOpenedOnError(t *testing.T) {
	c := newTestCluster(t, 4, false)
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	for _, cfg := range []node.Config{
		{Mode: node.ICC1, GossipFanout: 99, Dir: filepath.Join(dir, "a")},
		{Mode: node.Mode(42), Dir: filepath.Join(dir, "b")},
	} {
		cfg.Keys, cfg.Priv, cfg.Endpoint = c.pub, c.privs[0], c.endpoint(0)
		if _, err := node.New(cfg); err == nil {
			t.Fatalf("mode %d fanout %d accepted", cfg.Mode, cfg.GossipFanout)
		}
	}
	file := filepath.Join(dir, "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := node.New(node.Config{Keys: c.pub, Priv: c.privs[0], Endpoint: c.endpoint(0), Dir: file}); err == nil {
		t.Fatal("a regular file accepted as the durability directory")
	}
	waitGoroutines(t, base)
}

// TestKillRestartResumes kills one durable party without a flush,
// lets the others move on, and rebuilds it on the same directory: it
// must resume from what reached the disk — something, and no more than
// the dead process had committed — rejoin, and agree with the rest.
func TestKillRestartResumes(t *testing.T) {
	const (
		n      = 4
		victim = 3
	)
	// Taken before the cluster, whose cleanup stops the nodes: cleanups run
	// last-in first-out, so the directory is removed only once no party
	// writes checkpoints into it any more.
	base := t.TempDir()
	c := newTestCluster(t, n, false)
	durable := func(i int, cfg *node.Config) {
		cfg.DeltaBound = 20 * time.Millisecond
		cfg.Dir = filepath.Join(base, fmt.Sprintf("party-%d", i))
		cfg.CheckpointInterval = 8
		cfg.PruneDepth = 128
		cfg.Replica = node.NewReplica(gateway.Options{Party: i})
	}
	c.buildAll(n, durable)
	waitFor(t, 120*time.Second, "cluster made no progress", func() bool {
		for i := 0; i < n; i++ {
			if c.round(i) < 20 {
				return false
			}
		}
		return true
	})

	c.nodes[victim].Kill()
	killedAt := c.round(victim)
	waitFor(t, 60*time.Second, "survivors stalled after the kill", func() bool {
		return c.round(0) >= killedAt+10
	})

	c.dropInbox(victim)
	target := c.round(0)
	restarted := c.build(victim, func(cfg *node.Config) { durable(victim, cfg) })
	resumed := restarted.Engine.FinalizedRound()
	if resumed == 0 {
		t.Fatal("restart recovered nothing: durable state was lost")
	}
	if resumed > killedAt {
		t.Fatalf("recovered round %d, but the killed process had only committed %d", resumed, killedAt)
	}
	restarted.Start()
	waitFor(t, 120*time.Second, "restarted node did not converge", func() bool {
		return c.round(victim) >= target
	})
	c.agree()
}

// TestLiveTCPGossipWithBatchingAndAggregation runs the ICC1 overlay with
// share batching and relay-side aggregation over real TCP sockets and
// concurrent event loops, each behind its verify pipeline, so the relays
// count and combine the shares the pipeline passed on trust. Under -race
// this exercises bundle coalescing, flush-deadline timers, aggregation
// admission and the pipeline's workers across genuinely parallel
// parties, which gossip's single-threaded unit tests cannot. A relay
// that verifies while combining is covered by gossip's own tests and by
// the VerifyFull cells of the ICC1 campaign.
func TestLiveTCPGossipWithBatchingAndAggregation(t *testing.T) {
	if testing.Short() {
		t.Skip("live TCP cluster in -short mode")
	}
	const n = 7
	c := newTestCluster(t, n, true)
	c.buildAll(n, func(_ int, cfg *node.Config) {
		cfg.Mode = node.ICC1
		cfg.GossipFanout, cfg.GossipSeed = 3, 99
	})
	c.waitCommits(all(n), 4, 30*time.Second)
	c.agree()
}
