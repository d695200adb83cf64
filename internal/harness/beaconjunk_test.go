package harness

import (
	"fmt"
	"testing"
	"time"

	"icc/internal/node"
	"icc/internal/pool"
	"icc/internal/simnet"
	"icc/internal/types"
)

// TestChaosBeaconJunk runs seven parties on the ICC1 overlay under the
// DLEQ beacon, shares trusted as behind a verify pipeline. Party 3 has
// crashed, and party 5 floods every other party with junk beacon shares
// for the two rounds after its own. Nothing upstream checks a beacon
// share, so the relays see junk and real shares alike. The overlay is a
// ring (fanout 2: party 2, whose neighbours are 1 and the crashed 3,
// reveals a round only with shares 1 relays) or has fanout 4 = 2t (every
// party reveals from first-hand shares, and relays stop once a round is
// known). Every honest party must reveal every round it entered and keep
// the judge's growth and finality bounds; the log reports the honest
// parties' bytes per block with the junk and without.
//
// Mutation check: with the relay cut-off counting t+1 relayed shares a
// round, as before it read "the round's beacon is known here", the junk
// spends the relays' counts before the honest shares arrive and the ring
// cell fails its growth bound.
func TestChaosBeaconJunk(t *testing.T) {
	const n, crashed, junk = 7, 3, 5
	for _, fanout := range []int{2, 4} {
		t.Run(fmt.Sprintf("fanout%d", fanout), func(t *testing.T) {
			perBlock := func(behaviors map[types.PartyID]Behavior) float64 {
				c, err := New(Options{N: n, Seed: 47, Mode: node.ICC1, GossipFanout: fanout,
					Verify: pool.VerifyPreVerified, Behaviors: behaviors,
					Delay: simnet.Uniform{Min: time.Millisecond, Max: 10 * time.Millisecond}})
				if err != nil {
					t.Fatal(err)
				}
				c.Start()
				if !c.RunUntilCommitted(30, time.Minute) {
					t.Fatalf("honest parties committed only %d blocks", c.Log.Fewest(c.HonestParties()...))
				}
				judge(t, c, 0)
				for _, p := range c.HonestParties() {
					for k := types.Round(1); k <= c.Engines[p].CurrentRound(); k++ {
						if !c.Engines[p].Beacon().Have(k) {
							t.Fatalf("party %d entered round %d without its beacon", p, c.Engines[p].CurrentRound())
						}
					}
				}
				s := c.Log.Summarize()
				return float64(s.TotalBytes) / float64(s.CommittedBlocks)
			}
			clean := perBlock(map[types.PartyID]Behavior{crashed: Crash})
			dirty := perBlock(map[types.PartyID]Behavior{crashed: Crash, junk: BeaconJunk})
			t.Logf("fanout %d: honest bytes per block %.0f without junk, %.0f with (×%.2f)", fanout, clean, dirty, dirty/clean)
		})
	}
}
