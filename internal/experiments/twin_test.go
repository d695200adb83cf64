package experiments

import (
	"testing"
	"time"
)

// TestTwinIsDeterministic: two runs of one seed give identical numbers,
// with forwarding and with the shared queue, and both commit every
// measured command.
func TestTwinIsDeterministic(t *testing.T) {
	shape := twinShapes[len(twinShapes)-1] // leaderfail-n4: the silent party's rounds
	if shape.name != "leaderfail-n4" || shape.silent < 0 {
		t.Fatalf("twin shape %+v, want leaderfail-n4 with its silent party", shape)
	}
	for _, shared := range []bool{false, true} {
		a := runTwin(shape, 3, 2*time.Second, shared)
		b := runTwin(shape, 3, 2*time.Second, shared)
		if a != b {
			t.Fatalf("shared %v: two runs of seed 3 differ:\n%+v\n%+v", shared, a, b)
		}
		if a.failed != 0 || a.commits == 0 || a.p50 <= 0 || a.p90 < a.p50 {
			t.Fatalf("shared %v: implausible run %+v", shared, a)
		}
		if shared != (a.forwards == 0) {
			t.Fatalf("shared %v: %d forwards", shared, a.forwards)
		}
	}
}

// TestCutAtThreeQuartersOnFastAndSlowLinks (E32): on the bench's links
// the leader's cut at 3ε/4 commits steady-n4's commands sooner than a
// cut at ε/2, at the same block rate; over 20 ms links its block reaches
// more parties after their own Δntry(0) than the earlier cut's does.
func TestCutAtThreeQuartersOnFastAndSlowLinks(t *testing.T) {
	shape := twinShapes[0]
	if shape.name != "steady-n4" || shape.epsilon == 0 {
		t.Fatalf("twin shape %+v, want steady-n4 with ε > 0", shape)
	}
	for _, link := range []time.Duration{0, 20 * time.Millisecond} {
		s := shape
		s.link = link
		s.prop = cutAtThreeQuarters(s.deltaBound, s.epsilon)
		late := runTwin(s, 1, 2*time.Second, false)
		s.prop = cutAtHalf(s.deltaBound, s.epsilon)
		half := runTwin(s, 1, 2*time.Second, false)
		if late.failed != 0 || half.failed != 0 || late.shares == 0 || half.shares == 0 {
			t.Fatalf("link %v: implausible runs\n3ε/4 %+v\nε/2  %+v", link, late, half)
		}
		if link == 0 {
			if late.p50 >= half.p50 || late.commits != half.commits || late.lateShares != 0 {
				t.Errorf("bench links: 3ε/4 p50 %v, %d commits, %d late shares; ε/2 p50 %v, %d commits", late.p50, late.commits, late.lateShares, half.p50, half.commits)
			}
			continue
		}
		if late.lateShares*half.shares <= half.lateShares*late.shares {
			t.Errorf("20 ms links: late shares %d of %d at 3ε/4, %d of %d at ε/2; want a larger share at 3ε/4", late.lateShares, late.shares, half.lateShares, half.shares)
		}
	}
}

// TestMeasuredCutOnFastAndSlowLinks (E36): on the bench's links the
// measured cut commits steady-n4's commands sooner than the fixed 3ε/4
// cut, at the same block rate; over 10 ms links, where a block takes
// longer than ε/4 to reach the others, it commits at least as many blocks
// as 3ε/4. Both shapes.
func TestMeasuredCutOnFastAndSlowLinks(t *testing.T) {
	for _, shape := range twinShapes {
		if shape.name != "steady-n4" && shape.name != "tcp-gossip-n13" {
			continue
		}
		for _, link := range []time.Duration{0, 10 * time.Millisecond} {
			s := shape
			s.link = link
			meas := runTwin(s, 1, 2*time.Second, false)
			s.prop = cutAtThreeQuarters(s.deltaBound, s.epsilon)
			fixed := runTwin(s, 1, 2*time.Second, false)
			if meas.failed != 0 || fixed.failed != 0 || meas.commits == 0 {
				t.Fatalf("%s, link %v: implausible runs\nmeasured %+v\n3ε/4     %+v", s.name, link, meas, fixed)
			}
			t.Logf("%s, link %v: measured p50 %v, %d commits; 3ε/4 p50 %v, %d commits", s.name, link, meas.p50, meas.commits, fixed.p50, fixed.commits)
			if link == 0 {
				if meas.p50 >= fixed.p50 || meas.commits != fixed.commits {
					t.Errorf("%s, bench links: measured p50 %v, %d commits; 3ε/4 p50 %v, %d commits", s.name, meas.p50, meas.commits, fixed.p50, fixed.commits)
				}
				continue
			}
			if meas.commits < fixed.commits {
				t.Errorf("%s, 10 ms links: measured %d commits, 3ε/4 %d", s.name, meas.commits, fixed.commits)
			}
		}
	}
}
