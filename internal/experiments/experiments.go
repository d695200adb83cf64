// Package experiments reproduces the paper's evaluation: Table 1 (§5)
// and the quantitative analytical claims of §1/§1.1, each as a
// parameterised sweep over the simulation harness. The experiment index
// lives in DESIGN.md §3; EXPERIMENTS.md records paper-vs-measured
// values. Each experiment returns a Table that cmd/iccbench prints and
// the root benchmark suite reports as custom metrics.
package experiments

import (
	"fmt"
	"strings"

	"icc/internal/core"
	"icc/internal/harness"
)

// simPruneDepth is the retention horizon simulation experiments run
// with: a quarter of core.DefaultPruneDepth — deep enough that artifact
// resync always succeeds within a run, small enough that pruning (and
// the memory bound it enforces) actually triggers within a few hundred
// simulated rounds. Sweeps that need a different horizon scale this
// value (2× for the deep-retention runs, ½ for the smallest
// dissemination grids) instead of inventing fresh literals.
const simPruneDepth = core.DefaultPruneDepth / 4

// safe panics on a judge's verdict: a table measured on a run that broke
// agreement or chain would report nothing.
func safe(what string, err error) {
	if err != nil {
		panic(fmt.Sprintf("experiments: %s run violated safety: %v", what, err))
	}
}

// finalizationGaps is, for each block the cluster's first honest party
// committed, how many rounds later the round whose finalization output it
// came: blocks output at one instant were output by one finalization, of
// the highest round among them (Fig. 2).
func finalizationGaps(c *harness.Cluster) []int {
	seq := c.Log.Commits(c.HonestParties()[0])
	gaps := make([]int, len(seq))
	for i := len(seq) - 2; i >= 0; i-- {
		if seq[i+1].At == seq[i].At {
			gaps[i] = gaps[i+1] + int(seq[i+1].Round-seq[i].Round)
		}
	}
	return gaps
}

// Table is a rendered experiment result.
type Table struct {
	ID      string // experiment id, e.g. "E1"
	Title   string
	Columns []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table as aligned text.
func (t *Table) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s — %s\n", t.ID, t.Title)
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	writeRow := func(cells []string) {
		for i, cell := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], cell)
		}
		b.WriteByte('\n')
	}
	writeRow(t.Columns)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		writeRow(row)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Scale shrinks experiment durations for quick runs: 1.0 is the full
// configuration recorded in EXPERIMENTS.md, smaller values shorten
// simulated windows and sweep points proportionally (min 1 round kept).
type Scale float64

// scaleInt applies the scale to a count with a floor of 1.
func (s Scale) scaleInt(v int) int {
	if s <= 0 || s >= 1 {
		return v
	}
	out := int(float64(v) * float64(s))
	if out < 1 {
		out = 1
	}
	return out
}
