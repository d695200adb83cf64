package oracle

import (
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"icc/internal/types"
)

const ms = time.Millisecond

// chainOf is a chain of blocks for rounds 1..n, blocks[k] the round-k one.
func chainOf(n int) []*types.Block {
	blocks := []*types.Block{{}}
	for k := 1; k <= n; k++ {
		blocks = append(blocks, &types.Block{Round: types.Round(k), Proposer: 3, ParentHash: blocks[k-1].Hash()})
	}
	return blocks
}

// healthy is a four-party run of rounds 1..5: round k entered at 100(k−1)
// ms, notarized 20 ms later and committed 25 ms later. With Δbnd = ε =
// 100 ms and Reach = 10 ms, a round finishes within 140 ms of the one
// before when an honest party leads it and 340 ms otherwise, and a round
// an honest party leads is committed within 130 ms of its leader
// entering it. Party 3 is corrupt and leads every round but 2 and 4,
// which parties 0 and 1 lead. skip leaves out every party's round-k
// commit for the rounds it names.
func healthy(skip ...types.Round) (*Log, Expect) {
	l, blocks := NewLog(4), chainOf(5)
	for p := types.PartyID(0); p < 4; p++ {
		for k := types.Round(1); k <= 5; k++ {
			start := time.Duration(k-1) * 100 * ms
			l.Enter(p, k, start)
			l.Notarized(p, k, start+20*ms)
			if !slices.Contains(skip, k) {
				l.Commit(p, blocks[k], start+25*ms)
			}
		}
	}
	return l, Expect{
		Honest: []types.PartyID{0, 1, 2}, DeltaBound: 100 * ms, Epsilon: 100 * ms, Reach: 10 * ms, End: 600 * ms,
		Ranking: func(k types.Round) []types.PartyID {
			switch k {
			case 2:
				return []types.PartyID{0, 3, 1, 2}
			case 4:
				return []types.PartyID{1, 3, 0, 2}
			}
			return []types.PartyID{3, 0, 1, 2}
		},
	}
}

func TestHealthyRunHoldsEverything(t *testing.T) {
	l, e := healthy()
	for _, holds := range []Property{0, Safety | Growth} {
		if e.Holds = holds; Judge(l, e) != nil {
			t.Fatal(Judge(l, e))
		}
	}
}

// TestEachViolationIsNamed builds one log per property violation: Judge
// must fail on that property, with a verdict that names it and the first
// offending party and round.
func TestEachViolationIsNamed(t *testing.T) {
	blocks := chainOf(5)
	for _, c := range []struct {
		prop  Property
		build func(l *Log, e *Expect)
		want  string
	}{
		{Agreement, func(l *Log, e *Expect) {
			l.Commit(2, &types.Block{Round: 4, Proposer: 1, ParentHash: blocks[3].Hash()}, 0)
			l.Commit(3, &types.Block{Round: 2, Proposer: 2}, 0) // the lower round is the one named
		}, "agreement: party 3 committed"},
		{Chain, func(l *Log, e *Expect) {
			l.commits[1] = l.commits[1][:3]
			l.Commit(1, blocks[5], 0)
		}, "chain: party 1's commit at round 5 does not extend its commit at round 3"},
		{Chain, func(l *Log, e *Expect) {
			l.commits[2] = l.commits[2][:1]
			l.Commit(2, &types.Block{Round: 3, ParentHash: blocks[1].Hash()}, 0) // a chain, but not a prefix
		}, "chain: party 2's commit 1 is round 3"},
		{Growth, func(l *Log, e *Expect) {
			l.notarized[1][2].At = 520 * ms // round 3, whose first honest party has rank 1
		}, "growth: party 1 finished round 3 at 520ms, 400ms after round 2; bound 340ms"},
		{Growth, func(l *Log, e *Expect) { e.End = 2 * time.Second },
			"growth: party 0 finished no round in the 1.58s after round 5"},
		{Finality, func(l *Log, e *Expect) {
			l.commits[2][1].At = 400 * ms // round 2, led by party 0
		}, "finality: party 2 had not committed round 2 by 230ms, 130ms after its leader 0 entered it"},
		{Finality, func(l *Log, e *Expect) { l.commits[1] = l.commits[1][:3] },
			"finality: party 1 had not committed round 4 by 430ms"},
		{Stalled, func(l *Log, e *Expect) { l.commits[0], l.commits[1] = nil, nil },
			"stalled: party 2 committed round 1 at 25ms"},
	} {
		l, e := healthy()
		c.build(l, &e)
		e.Holds = c.prop
		if err := Judge(l, e); err == nil || !strings.HasPrefix(err.Error(), c.want) {
			t.Errorf("verdict %v, want %q…", err, c.want)
		}
	}
}

func TestLivenessIsDueOnlyAfterGSTAndInTime(t *testing.T) {
	l, e := healthy(4) // round 4, led by party 1 from 300 ms: due at 430 ms
	e.Holds, e.End = Finality, 420*ms
	if err := Judge(l, e); err != nil {
		t.Fatalf("judged a round before it was due: %v", err)
	}
	e.Holds, e.End, e.GST = Growth|Finality, time.Second, 480*ms
	l.notarized[0] = l.notarized[0][:1] // finished round 1 at 20 ms, nothing since
	if err := Judge(l, e); err == nil || !strings.Contains(err.Error(), "party 0 finished no round in the 520ms") {
		t.Fatalf("growth before GST counted, or after it not: %v", err)
	}
	l.notarized[0] = append(l.notarized[0], Commit{Round: 5, At: 500 * ms})
	if err := Judge(l, e); err == nil || !strings.HasPrefix(err.Error(), "growth: party 0 finished no round in the 500ms") {
		t.Fatalf("a finish after GST did not restart the clock: %v", err)
	}
}

func TestDecidedChainsASequence(t *testing.T) {
	l := NewLog(2)
	for p := types.PartyID(0); p < 2; p++ {
		for seq := uint64(1); seq <= 3; seq++ {
			l.Decided(p)(seq, nil, 0)
		}
	}
	if err := Judge(l, Expect{Holds: Safety}); err != nil {
		t.Fatal(err)
	}
	l.Decided(1)(4, []byte("x"), 0)
	l.Decided(0)(4, []byte("y"), 0)
	if err := Judge(l, Expect{Holds: Agreement}); err == nil || !strings.Contains(err.Error(), "party 1") {
		t.Fatalf("two payloads decided at sequence 4: %v", err)
	}
}

// TestConcurrentRecordingAndJudging writes the log from one goroutine per
// party, as live engines do, while Judge reads it (run under -race).
func TestConcurrentRecordingAndJudging(t *testing.T) {
	l, blocks := NewLog(4), chainOf(50)
	var wg sync.WaitGroup
	for p := types.PartyID(0); p < 4; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := types.Round(1); k <= 50; k++ {
				l.Enter(p, k, 0)
				l.Notarized(p, k, 0)
				l.Commit(p, blocks[k], 0)
			}
		}()
	}
	for i := 0; i < 20; i++ {
		if err := Judge(l, Expect{Holds: Safety}); err != nil {
			t.Error(err)
		}
	}
	wg.Wait()
}

func TestPropertyRoundTrip(t *testing.T) {
	for _, p := range []Property{Agreement, Safety, All, Safety | Growth | Stalled} {
		if got, err := ParseProperty(p.String()); err != nil || got != p {
			t.Fatalf("%v parsed as %v, %v", p, got, err)
		}
	}
	if Property(0).String() != All.String() {
		t.Fatalf("zero prints %q", Property(0))
	}
	if _, err := ParseProperty("liveness"); err == nil {
		t.Fatal("unknown property accepted")
	}
}
