package obs

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// kind discriminates metric families.
type kind int

const (
	kindCounter kind = iota
	kindGauge
	kindHistogram
)

func (k kind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	case kindHistogram:
		return "histogram"
	}
	return "unknown"
}

// Registry holds metric families. Registration is idempotent: asking for
// an existing name returns the existing instrument, so independent
// components (one observer per party, a shared transport stats sink) can
// safely register the same families on one registry and aggregate into
// them. A nil *Registry is a valid no-op sink: every constructor returns
// a nil instrument whose methods do nothing.
type Registry struct {
	mu   sync.Mutex
	fams map[string]*family
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	return &Registry{fams: make(map[string]*family)}
}

// family is one named metric family with zero or more labeled children.
type family struct {
	name    string
	help    string
	kind    kind
	labels  []string
	buckets []float64 // histogram upper bounds (exclusive of +Inf)

	mu       sync.Mutex
	children map[string]interface{} // label-value key → *Counter/*Gauge/*Histogram
}

// childKey encodes label values; the separator cannot occur in UTF-8.
const childKeySep = "\xff"

func (f *family) child(values []string, mk func() interface{}) interface{} {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: family %s has %d labels, got %d values", f.name, len(f.labels), len(values)))
	}
	key := ""
	for i, v := range values {
		if i > 0 {
			key += childKeySep
		}
		key += v
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if c, ok := f.children[key]; ok {
		return c
	}
	c := mk()
	f.children[key] = c
	return c
}

// sortedChildren returns (labelValues, child) pairs in stable key order.
func (f *family) sortedChildren() ([][]string, []interface{}) {
	f.mu.Lock()
	keys := make([]string, 0, len(f.children))
	for k := range f.children {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	values := make([][]string, len(keys))
	children := make([]interface{}, len(keys))
	for i, k := range keys {
		if len(f.labels) == 0 {
			values[i] = nil
		} else {
			values[i] = splitKey(k, len(f.labels))
		}
		children[i] = f.children[k]
	}
	f.mu.Unlock()
	return values, children
}

func splitKey(key string, n int) []string {
	parts := make([]string, 0, n)
	start := 0
	for i := 0; i < len(key); i++ {
		if key[i] == 0xff {
			parts = append(parts, key[start:i])
			start = i + 1
		}
	}
	parts = append(parts, key[start:])
	return parts
}

// getFamily returns (creating if needed) a family, enforcing that a
// name is never re-registered with a different shape.
func (r *Registry) getFamily(name, help string, k kind, labels []string, buckets []float64) *family {
	r.mu.Lock()
	defer r.mu.Unlock()
	if f, ok := r.fams[name]; ok {
		if f.kind != k || len(f.labels) != len(labels) {
			panic(fmt.Sprintf("obs: %s re-registered as %s(%d labels), was %s(%d labels)",
				name, k, len(labels), f.kind, len(f.labels)))
		}
		return f
	}
	f := &family{
		name:     name,
		help:     help,
		kind:     k,
		labels:   append([]string(nil), labels...),
		buckets:  append([]float64(nil), buckets...),
		children: make(map[string]interface{}),
	}
	r.fams[name] = f
	return f
}

// Counter registers (or fetches) an unlabeled counter.
func (r *Registry) Counter(name, help string) *Counter {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, kindCounter, nil, nil)
	return f.child(nil, func() interface{} { return &Counter{} }).(*Counter)
}

// CounterVec registers (or fetches) a labeled counter family.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	if r == nil {
		return nil
	}
	return &CounterVec{fam: r.getFamily(name, help, kindCounter, labels, nil)}
}

// Gauge registers (or fetches) an unlabeled gauge.
func (r *Registry) Gauge(name, help string) *Gauge {
	if r == nil {
		return nil
	}
	f := r.getFamily(name, help, kindGauge, nil, nil)
	return f.child(nil, func() interface{} { return &Gauge{} }).(*Gauge)
}

// GaugeVec registers (or fetches) a labeled gauge family.
func (r *Registry) GaugeVec(name, help string, labels ...string) *GaugeVec {
	if r == nil {
		return nil
	}
	return &GaugeVec{fam: r.getFamily(name, help, kindGauge, labels, nil)}
}

// Histogram registers (or fetches) an unlabeled histogram with the given
// bucket upper bounds (nil selects DefBuckets). Bounds must be sorted
// ascending; +Inf is implicit.
func (r *Registry) Histogram(name, help string, buckets []float64) *Histogram {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	f := r.getFamily(name, help, kindHistogram, nil, buckets)
	return f.child(nil, func() interface{} { return newHistogram(f.buckets) }).(*Histogram)
}

// HistogramVec registers (or fetches) a labeled histogram family with the
// given bucket upper bounds (nil selects DefBuckets).
func (r *Registry) HistogramVec(name, help string, buckets []float64, labels ...string) *HistogramVec {
	if r == nil {
		return nil
	}
	if buckets == nil {
		buckets = DefBuckets
	}
	return &HistogramVec{fam: r.getFamily(name, help, kindHistogram, labels, buckets)}
}

// Snapshot flattens every family into the common map view: scalars as
// name or name{label="v"}, histograms as name_count and name_sum.
func (r *Registry) Snapshot() Snapshot {
	snap := Snapshot{}
	if r == nil {
		return snap
	}
	r.mu.Lock()
	fams := make([]*family, 0, len(r.fams))
	for _, f := range r.fams {
		fams = append(fams, f)
	}
	r.mu.Unlock()
	for _, f := range fams {
		values, children := f.sortedChildren()
		for i, c := range children {
			switch m := c.(type) {
			case *Counter:
				snap[labelKey(f.name, f.labels, values[i])] = float64(m.Value())
			case *Gauge:
				snap[labelKey(f.name, f.labels, values[i])] = m.Value()
			case *Histogram:
				count, sum, _ := m.snapshot()
				snap[labelKey(f.name+"_count", f.labels, values[i])] = float64(count)
				snap[labelKey(f.name+"_sum", f.labels, values[i])] = sum
			}
		}
	}
	return snap
}

// Counter is a monotonically increasing event count.
type Counter struct {
	v atomic.Int64
}

// Inc adds one. Safe on nil.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n (negative deltas are ignored — counters only go up).
func (c *Counter) Add(n int64) {
	if c != nil && n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// CounterVec is a labeled counter family.
type CounterVec struct {
	fam *family
}

// With returns the counter for one label-value combination.
func (v *CounterVec) With(values ...string) *Counter {
	if v == nil {
		return nil
	}
	return v.fam.child(values, func() interface{} { return &Counter{} }).(*Counter)
}

// Each visits every child with its label values.
func (v *CounterVec) Each(f func(labelValues []string, value int64)) {
	if v == nil {
		return
	}
	values, children := v.fam.sortedChildren()
	for i, c := range children {
		f(values[i], c.(*Counter).Value())
	}
}

// Gauge is an instantaneous value. Stored as float64 bits.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v. Safe on nil.
func (g *Gauge) Set(v float64) {
	if g != nil {
		g.bits.Store(math.Float64bits(v))
	}
}

// SetMax raises the gauge to v if v exceeds the current value —
// high-water-mark semantics (queue depths, peak rounds).
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if math.Float64frombits(old) >= v {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if g.bits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+delta)) {
			return
		}
	}
}

// Value returns the current value.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// GaugeVec is a labeled gauge family.
type GaugeVec struct {
	fam *family
}

// With returns the gauge for one label-value combination.
func (v *GaugeVec) With(values ...string) *Gauge {
	if v == nil {
		return nil
	}
	return v.fam.child(values, func() interface{} { return &Gauge{} }).(*Gauge)
}

// Each visits every child with its label values.
func (v *GaugeVec) Each(f func(labelValues []string, value float64)) {
	if v == nil {
		return
	}
	values, children := v.fam.sortedChildren()
	for i, c := range children {
		f(values[i], c.(*Gauge).Value())
	}
}

// DefBuckets are latency buckets in seconds, spanning sub-millisecond
// in-process rounds through multi-second WAN stalls.
var DefBuckets = []float64{
	0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1,
	0.25, 0.5, 1, 2.5, 5, 10,
}

// Histogram is a fixed-bucket histogram with atomic per-bucket counts.
type Histogram struct {
	upper   []float64
	counts  []atomic.Uint64 // per-bucket (non-cumulative); len(upper)+1 with +Inf last
	count   atomic.Uint64
	sumBits atomic.Uint64 // float64 bits, CAS-accumulated
}

func newHistogram(upper []float64) *Histogram {
	return &Histogram{
		upper:  upper,
		counts: make([]atomic.Uint64, len(upper)+1),
	}
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	if h == nil {
		return
	}
	i := 0
	for i < len(h.upper) && v > h.upper[i] {
		i++
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		if h.sumBits.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// snapshot returns (count, sum, cumulative bucket counts aligned with
// upper followed by +Inf).
func (h *Histogram) snapshot() (uint64, float64, []uint64) {
	if h == nil {
		return 0, 0, nil
	}
	cum := make([]uint64, len(h.counts))
	var running uint64
	for i := range h.counts {
		running += h.counts[i].Load()
		cum[i] = running
	}
	return h.count.Load(), math.Float64frombits(h.sumBits.Load()), cum
}

// HistogramVec is a labeled histogram family.
type HistogramVec struct {
	fam *family
}

// With returns the histogram for one label-value combination.
func (v *HistogramVec) With(values ...string) *Histogram {
	if v == nil {
		return nil
	}
	return v.fam.child(values, func() interface{} { return newHistogram(v.fam.buckets) }).(*Histogram)
}

// Count returns how many values have been observed.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	return h.count.Load()
}

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}
