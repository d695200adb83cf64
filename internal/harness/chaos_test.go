package harness

// Robustness scenarios beyond the paper's eventual-delivery model:
// partitions that QUEUE traffic (simnet.Partition), partitions that LOSE
// traffic (lossyPartition, the behaviour of a real TCP cut), and
// engine-level crash/recovery. The latter two exercise the resync layer
// (core/resync.go) — without it they deadlock permanently.

import (
	"math/rand"
	"testing"
	"time"

	"icc/internal/engine"
	"icc/internal/node"
	"icc/internal/oracle"
	"icc/internal/simnet"
	"icc/internal/types"
)

// lossyPartition DROPS cross-group messages during the window, unlike
// simnet.Partition which holds and later delivers them. This violates
// the paper's eventual-delivery assumption (§1) and is exactly what a
// TCP cut does to in-flight frames.
type lossyPartition struct {
	inner simnet.DelayModel
	win   simnet.Window
	group map[types.PartyID]int
	now   time.Duration
}

func (l *lossyPartition) SetNow(t time.Duration) { l.now = t }

func (l *lossyPartition) Sample(rng *rand.Rand, from, to types.PartyID, size int) (time.Duration, bool) {
	if l.group[from] != l.group[to] && l.now >= l.win.From && l.now < l.win.To {
		return 0, false
	}
	return l.inner.Sample(rng, from, to, size)
}

func TestPartitionModelStallsThenRecovers(t *testing.T) {
	// 2|2 split via the Partition delay model: no n−t = 3 quorum can
	// form while the window is open, so commits stall; the held messages
	// flow at heal time and liveness resumes.
	pm := &simnet.Partition{
		Inner:   simnet.Fixed{D: 10 * time.Millisecond},
		Windows: []simnet.Window{{From: time.Second, To: 4 * time.Second}},
		Group:   map[types.PartyID]int{2: 1, 3: 1},
	}
	c, err := New(Options{N: 4, Seed: 23, SimBeacon: true, Delay: pm})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Net.Run(time.Second)
	before := c.Log.Len(0)
	if before == 0 {
		t.Fatal("no commits before the partition")
	}
	c.Net.Run(4 * time.Second)
	during := c.Log.Len(0)
	if during-before > 3 {
		t.Fatalf("committed %d blocks across a quorum-less partition", during-before)
	}
	c.Net.Run(10 * time.Second)
	after := c.Log.Len(0)
	if after-during < 20 {
		t.Fatalf("liveness did not resume after heal: %d new blocks", after-during)
	}
	judge(t, c, oracle.Safety)
}

func TestLossyPartitionHealsViaResync(t *testing.T) {
	// Same 2|2 split, but cross-group messages are LOST, not queued.
	// The quiescent protocol alone deadlocks here (nothing is ever
	// retransmitted); the resync layer must detect the stall and
	// re-exchange the missing artifacts after the heal.
	lp := &lossyPartition{
		inner: simnet.Fixed{D: 10 * time.Millisecond},
		win:   simnet.Window{From: time.Second, To: 4 * time.Second},
		group: map[types.PartyID]int{2: 1, 3: 1},
	}
	c, err := New(Options{N: 4, Seed: 31, SimBeacon: true, Delay: lp})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Net.Run(4 * time.Second)
	during := c.Log.Len(0)
	c.Net.Run(14 * time.Second)
	after := c.Log.Len(0)
	if after-during < 20 {
		t.Fatalf("liveness did not resume after lossy heal: %d new blocks", after-during)
	}
	// Everyone converges, not just the observing party.
	if min := c.Log.Fewest(c.HonestParties()...); after-min > 10 {
		t.Fatalf("parties diverged after heal: min %d vs %d", min, after)
	}
	judge(t, c, oracle.Safety)
}

func TestCrashRecoverPartyRejoins(t *testing.T) {
	// Party 3 goes dark during [2s, 6s) — every message in that window
	// is lost to it — and must close a gap of dozens of rounds through
	// the Status/backfill path once it recovers.
	c, err := New(Options{N: 4, Seed: 24, SimBeacon: true,
		CrashRecoveries: map[types.PartyID]CrashWindow{3: {Down: 2 * time.Second, Up: 6 * time.Second}}})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Net.Run(6 * time.Second)
	behind := c.Log.Len(3)
	ahead := c.Log.Len(0)
	if ahead-behind < 20 {
		t.Fatalf("outage had no effect: %d vs %d commits", behind, ahead)
	}
	c.Net.Run(12 * time.Second)
	judge(t, c, oracle.Safety)
	caughtUp := c.Log.Len(3)
	nowAhead := c.Log.Len(0)
	if nowAhead-caughtUp > 5 {
		t.Fatalf("party 3 did not catch up: %d vs %d commits", caughtUp, nowAhead)
	}
	// And it participates again: the cluster as a whole kept finalizing.
	if caughtUp <= ahead {
		t.Fatal("no progress after recovery")
	}
}

func TestCrashRecoverPartyRejoinsICC1(t *testing.T) {
	// The same outage under gossip dissemination: resync traffic is
	// unicast precisely so the gossip seen-set cannot deduplicate it.
	c, err := New(Options{N: 4, Seed: 25, SimBeacon: true, Mode: node.ICC1,
		CrashRecoveries: map[types.PartyID]CrashWindow{3: {Down: 2 * time.Second, Up: 6 * time.Second}}})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	c.Net.Run(18 * time.Second)
	judge(t, c, oracle.Safety)
	caughtUp := c.Log.Len(3)
	nowAhead := c.Log.Len(0)
	if nowAhead-caughtUp > 5 {
		t.Fatalf("party 3 did not catch up under ICC1: %d vs %d commits", caughtUp, nowAhead)
	}
}

// answerLog records, at the party it wraps, when each peer's answers to
// its Statuses arrive: Resync-marked bundles that are not the peer's own
// stall bundle (which opens with a Status).
type answerLog struct {
	engine.Engine
	at map[types.PartyID][]time.Duration
}

func (a answerLog) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	if b, ok := m.(*types.Bundle); ok && b.Resync && len(b.Messages) > 0 {
		if _, stall := b.Messages[0].(*types.Status); !stall {
			a.at[from] = append(a.at[from], now)

		}
	}
	return a.Engine.HandleMessage(from, m, now)
}

// TestChaosLyingStatus: a Byzantine party sends every honest party a
// Status every millisecond — its own round with an empty Have, round 1
// with nothing finalized, a round far ahead, its own round with a Have
// naming everything it holds and a frontier far ahead (no answer, so
// no charge: each is compared against the round, which roundRef keeps
// to a lookup an artifact), always the same Seq. The
// run must pass every oracle property with the honest parties
// committing, and each honest party must answer the liar at most once
// per stall interval, 8·Δbnd + ε: over a fixed-delay link the answers
// arrive as far apart as they left.
func TestChaosLyingStatus(t *testing.T) {
	const liar = 3
	for _, mode := range []node.Mode{node.ICC0, node.ICC1} {
		t.Run(mode.String(), func(t *testing.T) {
			answers := make(map[types.PartyID][]time.Duration)
			c, err := New(Options{N: 4, Seed: 41, SimBeacon: true, Mode: mode,
				Delay: simnet.Fixed{D: 10 * time.Millisecond}, Epsilon: 20 * time.Millisecond,
				Behaviors: map[types.PartyID]Behavior{liar: StatusLiar},
				WrapEngine: func(p types.PartyID, e engine.Engine) engine.Engine {
					if p != liar {
						return e
					}
					return answerLog{e, answers}
				}})
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			if !c.RunUntilCommitted(50, 30*time.Second) {
				t.Fatalf("honest parties committed only %d blocks under the Status flood", c.Log.Fewest(c.HonestParties()...))
			}
			judge(t, c, 0)
			interval := 8*c.Opts.DeltaBound + c.Opts.Epsilon
			for _, p := range c.HonestParties() {
				at := answers[p]
				if len(at) == 0 {
					t.Errorf("party %d never answered the liar: the lies went unheard", p)
				}
				for i := 1; i < len(at); i++ {
					if gap := at[i] - at[i-1]; gap < interval {
						t.Errorf("party %d answered the liar twice %v apart, under the %v interval", p, gap, interval)
					}
				}
			}
		})
	}
}
