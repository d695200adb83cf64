// Byzantine: drive an ICC cluster through hostile conditions in the
// deterministic simulator — an equivocating proposer, a silent leader,
// a crashed party (t = 3 of n = 10 corrupt, one short of the n/3 bound),
// plus a window of full network asynchrony — and verify the paper's
// guarantees: safety never breaks (P2), every round still adds a block
// (P1), and the corrupt leaders merely slow their own rounds down
// ("robust consensus", paper §1).
//
//	go run ./examples/byzantine
package main

import (
	"fmt"
	"log"
	"time"

	"icc"
	"icc/internal/harness"
	"icc/internal/oracle"
	"icc/internal/simnet"
	"icc/internal/types"
)

func main() {
	sim, err := icc.NewSim(icc.SimOptions{
		N:    10,
		Seed: 2026,
		// δ jitters around 15 ms; one 2-second asynchrony window.
		Delay: &simnet.AsyncWindows{
			Inner:   simnet.Uniform{Min: 5 * time.Millisecond, Max: 25 * time.Millisecond},
			Windows: []simnet.Window{{From: 3 * time.Second, To: 5 * time.Second}},
			Extra:   300 * time.Millisecond,
		},
		DeltaBound: 50 * time.Millisecond,
		Behaviors: map[types.PartyID]harness.Behavior{
			1: harness.Equivocator,  // proposes conflicting blocks to each half
			4: harness.SilentLeader, // never proposes at all
			7: harness.Crash,        // dead from the start
		},
		SimBeacon: true,
	})
	if err != nil {
		log.Fatalf("building simulation: %v", err)
	}

	fmt.Println("running 10 parties for 20 simulated seconds:")
	fmt.Println("  party 1 equivocates, party 4 never proposes, party 7 is crashed")
	fmt.Println("  network fully asynchronous from t=3s to t=5s")
	sim.Start()
	sim.Net.Run(20 * time.Second)

	if err := sim.Judge(oracle.Safety); err != nil {
		log.Fatalf("SAFETY VIOLATION: %v", err)
	}
	s := sim.Rec.Summarize()
	fmt.Printf("\ncommitted blocks:   %d (%.1f blocks/s)\n", s.CommittedBlocks, float64(s.CommittedBlocks)/20)
	fmt.Printf("commit latency:     p50 %v, p99 %v\n", s.P50Latency.Round(time.Millisecond), s.P99Latency.Round(time.Millisecond))
	fmt.Println("safety:             OK — all honest parties committed one consistent chain")

	// Forensics: whose blocks made it into the chain?
	perProposer := map[types.PartyID]int{}
	for _, c := range sim.Log.Commits(0) {
		perProposer[sim.Engines[0].Pool().Block(c.Hash).Proposer]++
	}
	fmt.Println("\ncommitted blocks by proposer:")
	for p := 0; p < 10; p++ {
		pid := types.PartyID(p)
		note := ""
		switch pid {
		case 1:
			note = "  (equivocator — honest parties disqualified its double proposals)"
		case 4:
			note = "  (silent leader — never proposed)"
		case 7:
			note = "  (crashed)"
		}
		fmt.Printf("  party %d: %3d blocks%s\n", p, perProposer[pid], note)
	}
	if perProposer[4]+perProposer[7] > 0 {
		log.Fatal("a silent/crashed party's block was committed?!")
	}
	fmt.Println("\nliveness held: rounds led by corrupt parties fell through to honest proposers")
}
