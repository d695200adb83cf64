package experiments

import (
	"fmt"
	"time"

	"icc/internal/harness"
	"icc/internal/oracle"
	"icc/internal/types"
)

// AdversaryCampaign runs the adversary-matrix campaign (experiment E15):
// a sweep of Byzantine behaviour profiles × seeds at n = 7 (t = 2), each
// cell judged by internal/oracle for the properties the paper proves —
// agreement and chain under any ≤ t corruption, growth and finality
// within bounds derived from Δbnd — and, for the over-threshold control
// row, that t+1 finalization withholders really do stall finalization
// while the notarized chain keeps growing (the quorum-intersection
// arithmetic cuts both ways: if the protocol finalized anyway, the
// threshold model would be broken).
//
// Profiles pin the share-withholding rows at the exact quorum boundary:
// with n = 7 and t = 2, finalization needs n−t = 5 of 7 shares, so 2
// withholders are harmless and 3 are fatal until one rejoins. Failing
// cells write a replayable trace (see DESIGN.md §16) whose path lands in
// the table notes.
func AdversaryCampaign(scale Scale) *Table {
	const n = 7 // t = 2, quorum n−t = 5
	simTime := time.Duration(scale.scaleInt(12)) * time.Second
	seeds := []int64{1501, 1502, 1503}
	if scale > 0 && scale < 1 {
		seeds = seeds[:1]
	}

	rejoin := simTime / 3
	profiles := []harness.Profile{
		{
			Name: "equivocating-leaders", N: n,
			Behaviors: map[types.PartyID]harness.Behavior{
				0: harness.Equivocator, 1: harness.Equivocator,
			},
		},
		{
			Name: "withhold-notar-t", N: n,
			Behaviors: map[types.PartyID]harness.Behavior{
				0: harness.WithholdNotar, 1: harness.WithholdNotar,
			},
		},
		{
			Name: "withhold-final-t", N: n,
			Behaviors: map[types.PartyID]harness.Behavior{
				0: harness.WithholdFinal, 1: harness.WithholdFinal,
			},
		},
		{
			Name: "withhold-final-t1-rejoin", N: n,
			Behaviors: map[types.PartyID]harness.Behavior{
				0: harness.WithholdFinal, 1: harness.WithholdFinal, 2: harness.WithholdFinal,
			},
			Tuning: map[types.PartyID]harness.BehaviorTuning{
				2: {Until: rejoin},
			},
		},
		{
			Name: "withhold-final-t1-stall", N: n,
			Behaviors: map[types.PartyID]harness.Behavior{
				0: harness.WithholdFinal, 1: harness.WithholdFinal, 2: harness.WithholdFinal,
			},
			Holds: oracle.Safety | oracle.Growth | oracle.Stalled,
		},
		{
			Name: "clock-skew", N: n,
			Behaviors: map[types.PartyID]harness.Behavior{
				0: harness.ClockSkewed, 1: harness.ClockSkewed,
			},
			Tuning: map[types.PartyID]harness.BehaviorTuning{
				0: {Skew: 300 * time.Millisecond},
				1: {Skew: -300 * time.Millisecond},
			},
		},
		{
			Name: "rank-collusion", N: n,
			Behaviors: map[types.PartyID]harness.Behavior{
				0: harness.RankAbuser, 1: harness.RankAbuser,
			},
		},
		{
			Name: "kitchen-sink", N: n,
			Behaviors: map[types.PartyID]harness.Behavior{
				0: harness.Equivocator,
				1: harness.WithholdFinal,
				2: harness.ClockSkewed,
			},
		},
	}

	opts := harness.CampaignOptions{Seeds: seeds, SimTime: simTime}
	t := &Table{
		ID: "E15",
		Title: fmt.Sprintf("adversary campaign: safety/liveness matrix (n=%d, t=2, quorum=5, %d profiles × %d seeds, %v each)",
			n, len(profiles), len(seeds), simTime),
		Columns: []string{"profile", "seeds", "verdict", "min commits", "expectation"},
		Notes: []string{
			"withhold-final-t withholds exactly t finalization shares: quorum n−t survives, liveness must hold",
			"withhold-final-t1-stall withholds t+1 forever: finalization MUST stall (commits = 0) while notarization keeps the chain growing",
			"withhold-final-t1-rejoin: one withholder rejoins at a third of the window, which is GST — finality is judged from there",
			"failing cells write a replayable trace (make chaos / DESIGN.md §16); paths appear below",
		},
	}

	rep, err := harness.RunCampaign(profiles, opts)
	if err != nil {
		t.Notes = append(t.Notes, "campaign error: "+err.Error())
		return t
	}

	for _, p := range profiles {
		minCommits := -1
		verdict := "pass"
		for _, r := range rep.Runs {
			if r.Profile != p.Name {
				continue
			}
			if minCommits < 0 || r.Commits < minCommits {
				minCommits = r.Commits
			}
			if r.Failure != "" {
				verdict = "FAIL"
				t.Notes = append(t.Notes, fmt.Sprintf("%s seed %d: %s (trace: %s)", r.Profile, r.Seed, r.Failure, r.TracePath))
			}
		}
		t.AddRow(p.Name, fmt.Sprintf("%d", len(seeds)), verdict, fmt.Sprintf("%d", minCommits), p.Holds.String())
	}
	return t
}
