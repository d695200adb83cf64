package harness

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"icc/internal/node"
	"icc/internal/oracle"
	"icc/internal/pool"
	"icc/internal/simnet"
	"icc/internal/types"
)

// chaosOptions is the shared small-cluster campaign configuration: n = 4
// (t = 1, quorum n−t = 3) keeps runs fast enough for -race.
func chaosOptions(t *testing.T) CampaignOptions {
	t.Helper()
	return CampaignOptions{
		Seeds:    []int64{1, 2},
		SimTime:  6 * time.Second,
		TraceDir: t.TempDir(),
	}
}

// sweep runs a campaign and fails the test on every failing cell.
func sweep(t *testing.T, profiles []Profile, o CampaignOptions) {
	t.Helper()
	rep, err := RunCampaign(profiles, o)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rep.Runs {
		if r.Failure != "" {
			t.Errorf("%s seed %d: %s (replay: go test -run TestReplay, trace %s)", r.Profile, r.Seed, r.Failure, r.TracePath)
		}
	}
}

// TestChaosCampaign sweeps the adversary matrix at n = 4: every profile
// with at most t Byzantine parties must hold all four properties, and the
// over-threshold control profile must stall finalization while the
// notarized chain keeps growing. This is the `make chaos` entry point.
func TestChaosCampaign(t *testing.T) {
	profiles := []Profile{
		{
			Name: "equivocator", N: 4,
			Behaviors: map[types.PartyID]Behavior{0: Equivocator},
		},
		{
			Name: "withhold-notar-t", N: 4,
			Behaviors: map[types.PartyID]Behavior{0: WithholdNotar},
		},
		{
			Name: "withhold-final-t", N: 4,
			Behaviors: map[types.PartyID]Behavior{0: WithholdFinal},
		},
		{
			Name: "clock-skew", N: 4,
			Behaviors: map[types.PartyID]Behavior{0: ClockSkewed, 1: ClockSkewed},
			Tuning: map[types.PartyID]BehaviorTuning{
				0: {Skew: 250 * time.Millisecond},
				1: {Skew: -250 * time.Millisecond},
			},
		},
		{
			Name: "rank-collusion", N: 4,
			Behaviors: map[types.PartyID]Behavior{0: RankAbuser},
		},
		{
			Name: "withhold-final-t1-stall", N: 4,
			Behaviors: map[types.PartyID]Behavior{0: WithholdFinal, 1: WithholdFinal},
			Holds:     oracle.Safety | oracle.Growth | oracle.Stalled,
		},
	}
	sweep(t, profiles, chaosOptions(t))
}

// icc1Profiles is the ICC1 corner of the matrix: each adversary that
// bears on what a gossip relay may withhold from a neighbour, at n = 7
// (t = 2) and n = 13 (t = 4), once with relays that trust nothing
// (pool.VerifyFull) and once with relays that count what each neighbour
// holds (pool.VerifyPreVerified).
func icc1Profiles() []Profile {
	var out []Profile
	for _, n := range []int{7, 13} {
		t := types.MaxFaults(n)
		assign := func(roles ...Behavior) map[types.PartyID]Behavior {
			m := make(map[types.PartyID]Behavior)
			for i := 0; i < t; i++ {
				m[types.PartyID(i)] = roles[i%len(roles)]
			}
			return m
		}
		cells := []Profile{
			// t withholders pin a quorum at exactly n−t: every party needs
			// precisely the shares that exist, so one share or certificate
			// withheld from a neighbour that could not derive it stalls it.
			{Name: "withhold-notar", Behaviors: assign(WithholdNotar)},
			{Name: "withhold-final", Behaviors: assign(WithholdFinal)},
			// Twin blocks and twin notarization shares to the two halves:
			// two statements of one round, tracked apart per neighbour.
			{Name: "equivocator", Behaviors: map[types.PartyID]Behavior{0: Equivocator}},
			// Silent parties and parties that never sign, t in all: relays
			// keep neighbours that say nothing and shares that never come.
			{Name: "crash-lazy", Behaviors: assign(Crash, LazyVoter)},
			// Parties that sign, propose and take every frame but relay
			// nothing: on each edge where it is their turn to speak, the
			// honest end must stop listening in time. One alone, and t.
			{Name: "mute-relay", Behaviors: map[types.PartyID]Behavior{0: MuteRelay}},
			{Name: "mute-relay-t", Behaviors: assign(MuteRelay)},
		}
		for _, verify := range []pool.VerifyPolicy{pool.VerifyFull, pool.VerifyPreVerified} {
			for _, p := range cells {
				p.Name = fmt.Sprintf("icc1-n%d-%s-%s", n, p.Name, verify)
				p.N, p.Mode, p.Verify = n, node.ICC1, verify
				out = append(out, p)
			}
		}
	}
	return out
}

// TestChaosCampaignICC1 sweeps the ICC1 cells under the ICC0 cells' pass
// conditions, on one seed and half the virtual time: twenty-four cells of
// up to thirteen parties are what `make chaos` can afford under -race. The
// finality bound the oracle derives for a round with an honest leader sits
// below the engines' resync interval (8 Δbnd = 800 ms): the simnet loses
// nothing, so a stall that resync had to heal is an artifact wrongly
// withheld from a neighbour, and fails the cell instead of hiding in the
// recovery.
func TestChaosCampaignICC1(t *testing.T) {
	o := chaosOptions(t)
	o.Seeds, o.SimTime = []int64{1}, 3*time.Second
	sweep(t, icc1Profiles(), o)
}

// TestWithholdExactlyTStillFinalizes pins the finalization quorum at its
// threshold boundary from below: with n = 4 and t = 1, one withheld
// finalization share leaves the n−t = 3 quorum reachable, so liveness
// must hold untouched.
func TestWithholdExactlyTStillFinalizes(t *testing.T) {
	c, err := New(Options{
		N: 4, Seed: 71, Delay: simnet.Uniform{Min: 5 * time.Millisecond, Max: 15 * time.Millisecond},
		SimBeacon: true, KeyRand: newDetReader(71),
		Behaviors: map[types.PartyID]Behavior{0: WithholdFinal},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	if !c.RunUntilCommitted(8, 10*time.Second) {
		t.Fatalf("t withholders must not break liveness: honest parties committed %d blocks", c.MinCommitted(c.HonestParties()))
	}
	judge(t, c, oracle.All)
}

// TestWithholdTPlusOneStallsThenRecovers crosses the boundary from
// above: two withholders (t+1) make the finalization quorum unreachable
// — no commit can happen — until one rejoins, after which finalizing any
// later round commits the whole stalled prefix in one burst (Fig. 2's
// chain commit).
func TestWithholdTPlusOneStallsThenRecovers(t *testing.T) {
	const rejoin = 3 * time.Second
	c, err := New(Options{
		N: 4, Seed: 72, Delay: simnet.Uniform{Min: 5 * time.Millisecond, Max: 15 * time.Millisecond},
		SimBeacon: true, KeyRand: newDetReader(72),
		Behaviors: map[types.PartyID]Behavior{0: WithholdFinal, 1: WithholdFinal},
		Tuning:    map[types.PartyID]BehaviorTuning{1: {Until: rejoin}},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	honest := c.HonestParties()

	// Phase 1: while both withhold, finalization is impossible — only 2
	// of the required 3 shares exist anywhere.
	c.Net.Run(rejoin - 200*time.Millisecond)
	if err := c.Judge(oracle.Safety | oracle.Stalled); err != nil {
		t.Fatalf("with t+1 withholders, before the rejoin: %v", err)
	}

	// Phase 2: party 1 rejoins at 3s; commits must resume and recover
	// the stalled prefix.
	if !c.RunUntilCommitted(8, 12*time.Second) {
		t.Fatalf("after rejoin, honest parties only committed %d blocks", c.MinCommitted(honest))
	}
	judge(t, c, oracle.All)
	// The recovery commits the stalled prefix: round 1 onwards (Chain says
	// without a gap), and nothing before the rejoin.
	first := c.Log.Commits(honest[0])[0]
	if first.At < rejoin {
		t.Fatalf("first commit at %v, before the rejoin at %v", first.At, rejoin)
	}
	if first.Round != 1 {
		t.Fatalf("first commit is round %d at %v: the stalled prefix was not recovered", first.Round, first.At)
	}
}

// injected is the failing cell the replay and shrink tests share: t+1
// finalization withholders at n = 4 with Holds left at all four
// properties, so the stall is a finality failure — the artifact under test.
func injected(t *testing.T) (Profile, CampaignOptions) {
	o := chaosOptions(t)
	o.Seeds, o.SimTime = []int64{42}, 4*time.Second
	return Profile{
		Name: "injected-liveness-failure", N: 4,
		Behaviors: map[types.PartyID]Behavior{0: WithholdFinal, 1: WithholdFinal},
	}, o
}

// TestCampaignFailureReplaysByteIdentical is the replay acceptance
// criterion: an injected failure (t+1 withholders declared live) records
// a trace that re-executes to a byte-identical event stream with the same
// verdict.
func TestCampaignFailureReplaysByteIdentical(t *testing.T) {
	failing, o := injected(t)
	// The same failure under gossip: the trace header must carry the
	// dissemination axis, and the overlay — batch timers, per-neighbour
	// frames, completing shares — must replay event for event.
	gossiped := failing
	gossiped.Name, gossiped.Mode, gossiped.Verify = "injected-liveness-failure-icc1", node.ICC1, pool.VerifyPreVerified
	for _, failing := range []Profile{failing, gossiped} {
		rep, err := RunCampaign([]Profile{failing}, o)
		if err != nil {
			t.Fatal(err)
		}
		if rep.Failures != 1 || rep.Runs[0].TracePath == "" {
			t.Fatalf("%s: expected exactly one failing run with a trace, got %+v", failing.Name, rep.Runs)
		}
		if !strings.HasPrefix(rep.Runs[0].Failure, "finality:") {
			t.Fatalf("%s: unexpected failure class: %s", failing.Name, rep.Runs[0].Failure)
		}

		replay, err := ReplayTrace(rep.Runs[0].TracePath)
		if err != nil {
			t.Fatal(err)
		}
		if !replay.Reproduced {
			t.Fatalf("%s: failure did not reproduce: recorded %q, replay %q", failing.Name, replay.RecordedFailure, replay.ReplayFailure)
		}
		if !replay.ByteIdentical {
			t.Fatalf("%s: replay diverged from recorded trace at line %d", failing.Name, replay.DivergeLine)
		}
	}
}

// TestReplayRefusesTruncatedTrace is the ring-overflow audit: a trace
// whose ring dropped events must be refused loudly, not replayed from
// partial history.
func TestReplayRefusesTruncatedTrace(t *testing.T) {
	failing, o := injected(t)
	o.TraceCap = 64 // far below the run's event count: the ring wraps

	path, err := WriteFailureTrace(failing, 42, o)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReplayTrace(path); err == nil || !strings.Contains(err.Error(), "truncated") {
		t.Fatalf("truncated trace accepted for replay: err = %v", err)
	}
}

// TestShrinkerMinimizes is the shrinker acceptance criterion: a failing
// campaign cell with extra, irrelevant Byzantine roles shrinks to the
// minimal set that still fails — the two finalization withholders that
// form t+1 at n = 4.
func TestShrinkerMinimizes(t *testing.T) {
	bloated, o := injected(t)
	bloated.Behaviors[2] = ClockSkewed // irrelevant to the failure
	bloated.Tuning = map[types.PartyID]BehaviorTuning{2: {Skew: 200 * time.Millisecond}}

	res, err := Shrink(bloated, 42, o)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Profile.Behaviors) > 2 {
		t.Fatalf("shrinker kept %d behaviors, want ≤ 2: %v", len(res.Profile.Behaviors), res.Profile.Behaviors)
	}
	for pid, b := range res.Profile.Behaviors {
		if b != WithholdFinal {
			t.Fatalf("shrinker kept irrelevant behavior %v for party %d", b, pid)
		}
	}
	if res.Failure == "" {
		t.Fatal("shrunk profile no longer fails")
	}
}

// TestBehaviorRoundTrip pins the campaign metadata encoding: behaviours
// and tunings survive encode/decode, which replay correctness rests on.
func TestBehaviorRoundTrip(t *testing.T) {
	p := Profile{
		N: 7,
		Behaviors: map[types.PartyID]Behavior{
			0: Equivocator, 2: WithholdFinal, 3: ClockSkewed, 5: RankAbuser,
		},
		Tuning: map[types.PartyID]BehaviorTuning{
			2: {Until: 3 * time.Second},
			3: {Skew: -250 * time.Millisecond},
			5: {ShareDelay: 40 * time.Millisecond},
		},
	}
	enc := encodeBehaviors(p)
	behaviors, tuning, err := decodeBehaviors(enc)
	if err != nil {
		t.Fatalf("decode(%q): %v", enc, err)
	}
	if len(behaviors) != len(p.Behaviors) || len(tuning) != len(p.Tuning) {
		t.Fatalf("round trip changed cardinality: %v / %v", behaviors, tuning)
	}
	for pid, b := range p.Behaviors {
		if behaviors[pid] != b {
			t.Fatalf("party %d: %v != %v", pid, behaviors[pid], b)
		}
	}
	for pid, tu := range p.Tuning {
		if tuning[pid] != tu {
			t.Fatalf("party %d tuning: %+v != %+v", pid, tuning[pid], tu)
		}
	}
}

// TestDisseminationAxisParses pins the other half of the header: every
// (mode, policy) a cell can carry survives the round trip, and nothing
// else parses — the retired shares-only policy included.
func TestDisseminationAxisParses(t *testing.T) {
	for _, m := range []node.Mode{node.ICC0, node.ICC1, node.ICC2} {
		for _, v := range []pool.VerifyPolicy{pool.VerifyFull, pool.VerifyPreVerified} {
			gotM, gotV, err := parseDissemination(m.String(), v.String())
			if err != nil || gotM != m || gotV != v {
				t.Fatalf("(%v, %v) parsed as (%v, %v), err %v", m, v, gotM, gotV, err)
			}
		}
	}
	for _, bad := range [][2]string{{"ICC3", "full"}, {"ICC1", "some"}, {"ICC1", "shares-only"}, {"", ""}} {
		if _, _, err := parseDissemination(bad[0], bad[1]); err == nil {
			t.Fatalf("%v accepted", bad)
		}
	}
}
