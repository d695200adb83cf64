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
