// Package obs is the unified observability substrate: a dependency-free
// metrics registry (counters, gauges, histograms — all with lock-free
// atomic fast paths — plus labeled families), a bounded ring-buffer
// protocol event tracer with JSONL export, and an HTTP exposition layer
// (Prometheus text format, a stall-detecting health probe, trace dumps,
// and net/http/pprof).
//
// Every layer of the live path records here: the core engine via
// per-phase Hooks (see core.ObservedHooks), the runtime event loop, and
// the transport (metrics.TransportStats registers its counters on an
// obs.Registry). The registry and the Observer export the Snapshot map
// view, which nodes and tests read; the simulation's metrics.Recorder has
// its own Summary.
//
// The package deliberately imports nothing outside the standard library
// so that any layer — including the deepest protocol code — can depend
// on it without cycles.
package obs

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Snapshot is a point-in-time view of a Registry (or of an Observer's
// counters): metric name (optionally with a {label="value"} suffix) to
// value.
type Snapshot map[string]float64

// Keys returns the snapshot's keys in sorted order.
func (s Snapshot) Keys() []string {
	keys := make([]string, 0, len(s))
	for k := range s {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// Get returns the value for a key (0 if absent) — convenient in tests.
func (s Snapshot) Get(key string) float64 { return s[key] }

// String renders the snapshot as one sorted "key=value" health line.
func (s Snapshot) String() string {
	var b strings.Builder
	for i, k := range s.Keys() {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(k)
		b.WriteByte('=')
		b.WriteString(formatValue(s[k]))
	}
	return b.String()
}

// formatValue renders a float the way Prometheus text format expects:
// integers without a decimal point, everything else in shortest form.
func formatValue(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// labelKey renders one name{label="value",...} snapshot key.
func labelKey(name string, labels, values []string) string {
	if len(labels) == 0 {
		return name
	}
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", l, values[i])
	}
	b.WriteByte('}')
	return b.String()
}
