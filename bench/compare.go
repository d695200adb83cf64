package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
)

// spread is a sample's median and the distance between its first and
// third quartile as a share of that median — the figures the driver
// takes from ten runs (quartiles as Python's statistics.quantiles(v, n=4)
// computes them: exclusive method).
type spread struct {
	n      int
	median float64
	iqr    float64 // (q3 − q1) / median
}

func spreadOf(values []float64) spread {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return spread{}
	}
	quantile := func(q float64) float64 {
		pos := q*float64(n+1) - 1 // exclusive method, 0-based
		if pos <= 0 {
			return s[0]
		}
		if pos >= float64(n-1) {
			return s[n-1]
		}
		lo := int(pos)
		return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
	}
	med := quantile(0.5)
	out := spread{n: n, median: med}
	if med != 0 {
		out.iqr = (quantile(0.75) - quantile(0.25)) / med
	}
	return out
}

// readRecords groups the untraced records of a -out file: workload →
// metric → one value per run.
func readRecords(path string) (map[string]map[string][]float64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[string]map[string][]float64)
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var rec record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return nil, fmt.Errorf("%s line %d: %w", path, line, err)
		}
		if rec.Trace != 0 {
			continue
		}
		if !rec.Correct || rec.Failed > 0 {
			return nil, fmt.Errorf("%s line %d: %s seed %d was not a clean run (correct %v, failed %d)",
				path, line, rec.Workload, rec.Seed, rec.Correct, rec.Failed)
		}
		byMetric := out[rec.Workload]
		if byMetric == nil {
			byMetric = make(map[string][]float64)
			out[rec.Workload] = byMetric
		}
		for name, v := range rec.Metrics {
			byMetric[name] = append(byMetric[name], v.Value)
		}
	}
	return out, sc.Err()
}

// compareFiles prints, for every workload and end-to-end metric, the
// medians of two sets of runs and how the second stands to the first
// against the metric's bound. A pair whose own run-to-run spread exceeds
// the bound is "unresolved", not unchanged. The return value is the exit
// code: 1 when some pair is worse by more than its bound.
func compareFiles(w io.Writer, pathA, pathB string) int {
	a, err := readRecords(pathA)
	if err != nil {
		fatal("%v", err)
	}
	b, err := readRecords(pathB)
	if err != nil {
		fatal("%v", err)
	}
	fmt.Fprintf(w, "%-15s %-22s %12s %7s %12s %7s %8s %6s  %s\n",
		"workload", "metric", "median A", "iqr A", "median B", "iqr B", "B vs A", "bound", "verdict")
	code := 0
	for _, wl := range workloads {
		for _, spec := range endToEnd {
			sa, sb := spreadOf(a[wl.name][spec.name]), spreadOf(b[wl.name][spec.name])
			if sa.n == 0 || sb.n == 0 {
				fmt.Fprintf(w, "%-15s %-22s missing from one input\n", wl.name, spec.name)
				continue
			}
			// worse > 0 means B is worse than A by that share of A.
			worse := (sb.median - sa.median) / sa.median
			if spec.better == "higher" {
				worse = -worse
			}
			verdict := "within bound"
			switch {
			case spec.name != "setup_s" && (sa.iqr > spec.bound || sb.iqr > spec.bound):
				verdict = "unresolved: spread exceeds bound"
			case worse > spec.bound:
				verdict = "WORSE by more than the bound"
				code = 1
			case worse < -spec.bound:
				verdict = "better by more than the bound"
			}
			fmt.Fprintf(w, "%-15s %-22s %12.4f %6.1f%% %12.4f %6.1f%% %+7.1f%% %5.0f%%  %s\n",
				wl.name, spec.name, sa.median, 100*sa.iqr, sb.median, 100*sb.iqr,
				100*(sb.median-sa.median)/sa.median, 100*spec.bound, verdict)
		}
	}
	return code
}
