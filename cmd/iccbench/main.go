// Command iccbench regenerates the paper's evaluation artifacts
// (Table 1 and the analytical-claim figures; DESIGN.md §3) at full
// scale and prints them as text tables. EXPERIMENTS.md records the
// output of a complete run.
//
// Usage:
//
//	iccbench                 # run every experiment
//	iccbench -exp table1     # one experiment
//	iccbench -scale 0.1      # shrink simulated windows 10x
//	iccbench -list           # list experiment ids
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"time"

	"icc/internal/experiments"
)

var registry = map[string]func(experiments.Scale) *experiments.Table{
	"table1":         experiments.Table1,
	"latency":        experiments.LatencyThroughput,
	"msgcomplexity":  experiments.MessageComplexity,
	"rounds":         experiments.RoundComplexity,
	"robustness":     experiments.Robustness,
	"responsiveness": experiments.Responsiveness,
	"dissemination":  experiments.Dissemination,
	"baselines":      experiments.Baselines,
	"ablation":       experiments.AblationDelays,
	"weakadaptive":   experiments.WeakAdaptiveAdversary,
	"fragility":      experiments.PBFTFragility,
	"verifypipeline": experiments.VerifyPipeline,
	"catchup":        experiments.Catchup,
	"durability":     experiments.Durability,
	"gateway":        experiments.Gateway,
	"scaleout":       experiments.Scaleout,
	"certscheme":     experiments.CertScheme,
	"adversary":      experiments.AdversaryCampaign,
}

func main() {
	exp := flag.String("exp", "", "experiment to run (default: all)")
	scale := flag.Float64("scale", 1.0, "scale factor for simulated windows (0 < s <= 1)")
	list := flag.Bool("list", false, "list experiment names and exit")
	flag.Parse()

	names := make([]string, 0, len(registry))
	for name := range registry {
		names = append(names, name)
	}
	sort.Strings(names)

	if *list {
		fmt.Println(strings.Join(names, "\n"))
		return
	}
	run := names
	if *exp != "" {
		if _, ok := registry[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; available: %s\n", *exp, strings.Join(names, ", "))
			os.Exit(1)
		}
		run = []string{*exp}
	}
	for _, name := range run {
		start := time.Now()
		table := registry[name](experiments.Scale(*scale))
		fmt.Println(table.String())
		fmt.Printf("(%s completed in %v)\n\n", name, time.Since(start).Round(time.Millisecond))
	}
}
