// Command bench is the repository's one fixed performance suite: it
// assembles a live ICC cluster in this process, drives an open-loop
// client load through the gateways, checks what the acknowledgements
// promise, and prints end-to-end metrics (untraced) or per-layer metrics
// (traced, timing decorators on the interface boundaries between the
// layers). README.md defines every metric and workload.
//
//	go run -C bench . --workload steady-n4 --seed 1 --seconds 20 --trace 0
//	go run -C bench . --workload all            # every workload, both ways
//	go run -C bench . -compare a.jsonl b.jsonl  # two sets of -out records
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// host is what a result needs to be compared with another one fairly.
type host struct {
	NProc      int    `json:"nproc"`
	GoMaxProcs int    `json:"gomaxprocs"`
	GoVersion  string `json:"go"`
	Commit     string `json:"commit"`
}

func hostFacts() host {
	commit := "unknown"
	if out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output(); err == nil {
		commit = strings.TrimSpace(string(out))
	}
	return host{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Commit:     commit,
	}
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of a run's standard output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is one run as -out appends it and -compare reads it.
type record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Trace    int    `json:"trace"`
	Host     host   `json:"host"`
	verdict
	// Diagnostics are printed but never gated: the 99th percentile with
	// the number of samples beyond it, and the shares that say why a
	// command failed.
	Diagnostics map[string]float64 `json:"diagnostics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload to run, or \"all\" for every workload untraced then traced")
		seed    = flag.Int64("seed", 1, "seed of the client command stream")
		seconds = flag.Int("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics, undecorated; 1: per-layer metrics, decorated")
		out     = flag.String("out", "", "append each run's record to this JSON-lines file")
		compare = flag.Bool("compare", false, "compare two -out files given as arguments instead of running")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("-compare needs two files")
		}
		os.Exit(compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fatal("-seconds must be at least 1 and -trace 0 or 1")
	}
	h := hostFacts()
	if *name == "all" {
		ok := true
		for _, w := range workloads {
			plain := runAndReport(w, *seed, *seconds, false, h, *out)
			traced := runAndReport(w, *seed, *seconds, true, h, *out)
			ok = ok && plain.Correct && traced.Correct && plain.Failed+traced.Failed == 0
			a, b := plain.Metrics["commits_per_s"].Value, traced.Metrics["trace.commits_per_s"].Value
			fmt.Printf("%s trace.overhead_pct %.2f %% (commits_per_s %.2f untraced, %.2f traced)\n\n",
				w.name, 100*(a-b)/a, a, b)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}
	w, found := findWorkload(*name)
	if !found {
		var names []string
		for _, w := range workloads {
			names = append(names, w.name)
		}
		fatal("unknown -workload %q; have %s or all", *name, strings.Join(names, ", "))
	}
	rec := runAndReport(w, *seed, *seconds, *trace == 1, h, *out)
	line, err := json.Marshal(rec.verdict)
	if err != nil {
		fatal("encoding the result: %v", err)
	}
	fmt.Println(string(line))
	if !rec.Correct {
		os.Exit(1)
	}
}

// runAndReport runs one workload one way, prints every metric by name
// with its unit, and appends the record to out if that is set.
func runAndReport(w workload, seed int64, seconds int, traced bool, h host, out string) record {
	rec, err := run(w, seed, seconds, traced)
	if err != nil {
		fatal("%s: %v", w.name, err)
	}
	rec.Host = h
	fmt.Printf("workload %s seed %d window %ds trace %d | nproc %d GOMAXPROCS %d %s commit %s\n",
		rec.Workload, rec.Seed, rec.Seconds, rec.Trace, h.NProc, h.GoMaxProcs, h.GoVersion, h.Commit)
	fmt.Printf("open loop, %d cmd/s from %d clients; no message delay injected, so latency is processor time plus protocol timers\n",
		loadRate, loadClients)
	specs := endToEnd
	if traced {
		specs = perLayer
	}
	for _, s := range specs {
		fmt.Printf("  %-46s %14.4f %s\n", s.name, rec.Metrics[s.name].Value, s.unit)
	}
	for _, k := range sortedKeys(rec.Diagnostics) {
		fmt.Printf("  (%s %.4f)\n", k, rec.Diagnostics[k])
	}
	fmt.Printf("  correct %v, attempted %d, failed %d\n", rec.Correct, rec.Attempted, rec.Failed)
	if out != "" {
		if err := appendRecord(out, rec); err != nil {
			fatal("%v", err)
		}
	}
	return rec
}

func appendRecord(path string, rec record) error {
	line, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("encoding a record: %w", err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("opening -out: %w", err)
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return fmt.Errorf("writing -out: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("closing -out: %w", err)
	}
	return nil
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "bench: "+format+"\n", args...)
	os.Exit(2)
}
