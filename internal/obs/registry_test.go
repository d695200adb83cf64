package obs

import (
	"sync"
	"testing"
)

func TestCounterBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("c_total", "help")
	c.Inc()
	c.Add(4)
	c.Add(-10) // counters only go up: ignored
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}
}

func TestRegistryIdempotentRegistration(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("shared_total", "help")
	b := r.Counter("shared_total", "help")
	if a != b {
		t.Fatal("re-registering the same counter returned a different instance")
	}
	a.Inc()
	b.Inc()
	if a.Value() != 2 {
		t.Fatalf("shared counter = %d, want 2", a.Value())
	}

	v1 := r.CounterVec("vec_total", "help", "peer")
	v2 := r.CounterVec("vec_total", "help", "peer")
	v1.With("1").Inc()
	v2.With("1").Inc()
	if v1.With("1").Value() != 2 {
		t.Fatalf("shared vec child = %d, want 2", v1.With("1").Value())
	}
}

func TestRegistryShapeMismatchPanics(t *testing.T) {
	r := NewRegistry()
	r.Counter("x_total", "help")
	defer func() {
		if recover() == nil {
			t.Fatal("re-registering a counter as a gauge did not panic")
		}
	}()
	r.Gauge("x_total", "help")
}

func TestGaugeSetMax(t *testing.T) {
	r := NewRegistry()
	g := r.Gauge("g", "help")
	g.Set(3)
	g.SetMax(1) // below current: ignored
	if g.Value() != 3 {
		t.Fatalf("gauge = %v, want 3", g.Value())
	}
	g.SetMax(7)
	if g.Value() != 7 {
		t.Fatalf("gauge = %v, want 7", g.Value())
	}
	g.Add(-2)
	if g.Value() != 5 {
		t.Fatalf("gauge = %v, want 5", g.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "help", []float64{0.1, 1, 10})
	for _, v := range []float64{0.05, 0.5, 0.5, 5, 50} {
		h.Observe(v)
	}
	count, sum, cum := h.snapshot()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if sum != 56.05 {
		t.Fatalf("sum = %v, want 56.05", sum)
	}
	// Cumulative: ≤0.1 → 1, ≤1 → 3, ≤10 → 4, +Inf → 5.
	want := []uint64{1, 3, 4, 5}
	for i, w := range want {
		if cum[i] != w {
			t.Fatalf("cum[%d] = %d, want %d (all: %v)", i, cum[i], w, cum)
		}
	}
}

func TestNilInstrumentsAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("c", "")
	g := r.Gauge("g", "")
	h := r.Histogram("h", "", nil)
	cv := r.CounterVec("cv", "", "l")
	gv := r.GaugeVec("gv", "", "l")
	c.Inc()
	c.Add(1)
	g.Set(1)
	g.SetMax(1)
	g.Add(1)
	h.Observe(1)
	cv.With("x").Inc()
	gv.With("x").Set(1)
	cv.Each(func([]string, int64) { t.Fatal("nil vec visited a child") })
	gv.Each(func([]string, float64) { t.Fatal("nil vec visited a child") })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 || h.Sum() != 0 {
		t.Fatal("nil instruments accumulated values")
	}
	if len(r.Snapshot()) != 0 {
		t.Fatal("nil registry produced a snapshot")
	}
}

func TestRegistryConcurrentUse(t *testing.T) {
	r := NewRegistry()
	const goroutines = 8
	const perG = 1000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := r.Counter("conc_total", "help")
			h := r.Histogram("conc_seconds", "help", nil)
			v := r.CounterVec("conc_vec_total", "help", "peer")
			for i := 0; i < perG; i++ {
				c.Inc()
				h.Observe(0.001)
				v.With("0").Inc()
			}
		}()
	}
	wg.Wait()
	snap := r.Snapshot()
	if got := snap.Get("conc_total"); got != goroutines*perG {
		t.Fatalf("concurrent counter = %v, want %d", got, goroutines*perG)
	}
	if got := snap.Get("conc_seconds_count"); got != goroutines*perG {
		t.Fatalf("concurrent histogram count = %v, want %d", got, goroutines*perG)
	}
	if got := snap.Get(`conc_vec_total{peer="0"}`); got != goroutines*perG {
		t.Fatalf("concurrent vec = %v, want %d", got, goroutines*perG)
	}
}

func TestSnapshotView(t *testing.T) {
	r := NewRegistry()
	r.Counter("a_total", "").Add(2)
	r.GaugeVec("depth", "", "peer").With("3").Set(9)
	snap := r.Snapshot()
	if snap.Get("a_total") != 2 || snap.Get(`depth{peer="3"}`) != 9 {
		t.Fatalf("snapshot: %s", snap)
	}
	keys := snap.Keys()
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("keys not sorted: %v", keys)
		}
	}
}
