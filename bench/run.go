package main

import (
	"fmt"
	"math"
	"sort"
	"syscall"
	"time"

	"icc/internal/types"
)

// metricSpec names one metric. BENCHMARK.json lists the same names, units
// and bounds; bench_test.go holds the two together.
type metricSpec struct {
	name   string
	unit   string
	better string  // "lower" or "higher"
	bound  float64 // end to end only: share of the baseline it may worsen by
}

var endToEnd = []metricSpec{
	{"finality_p50_ms", "ms", "lower", 0.15},
	{"finality_p90_ms", "ms", "lower", 0.15},
	{"commits_per_s", "blocks/s", "higher", 0.15},
	{"wire_bytes_per_commit", "bytes", "lower", 0.10},
	{"setup_s", "s", "lower", 0.25},
}

// sentKinds are the message kinds these workloads put on the wire; any
// other kind's bytes are reported together as "other".
var sentKinds = []types.Kind{
	types.KindBundle, types.KindBlock, types.KindAuthenticator,
	types.KindNotarizationShare, types.KindNotarization,
	types.KindFinalizationShare, types.KindFinalization, types.KindBeaconShare,
	types.KindAdvert, types.KindRequest, types.KindShareBundle,
}

var perLayer = func() []metricSpec {
	specs := []metricSpec{
		{name: "beacon.busy_share", unit: "share"},
		{name: "beacon.reveal_ms", unit: "ms"},
		{name: "beacon.share_verifies_per_round", unit: "count"},
		{name: "core.busy_share", unit: "share"},
		{name: "core.round_ms", unit: "ms"},
		{name: "core.timeout_round_ms", unit: "ms"},
		{name: "core.propose_to_commit_ms", unit: "ms"},
		{name: "core.commit_spread_ms", unit: "ms"},
		{name: "core.msgs_per_commit", unit: "count"},
		{name: "core.proposals_per_commit", unit: "count"},
		{name: "statemachine.busy_share", unit: "share"},
		{name: "statemachine.inclusion_wait_ms", unit: "ms"},
		{name: "statemachine.cmds_per_block", unit: "count"},
		{name: "gateway.admit_us", unit: "us"},
		{name: "gateway.ack_lag_ms", unit: "ms"},
		{name: "gateway.gen_lag_p99_ms", unit: "ms"},
		{name: "verify.sig_busy_share", unit: "share"},
		{name: "verify.checks_per_commit", unit: "count"},
		{name: "verify.rejects", unit: "count"},
		{name: "gossip.busy_share", unit: "share"},
		{name: "gossip.msgs_per_commit", unit: "count"},
		{name: "transport.busy_share", unit: "share"},
		{name: "transport.send_us", unit: "us"},
		{name: "transport.msgs_per_commit", unit: "count"},
	}
	for _, k := range sentKinds {
		specs = append(specs, metricSpec{name: "transport.bytes_per_commit." + k.String(), unit: "bytes"})
	}
	return append(specs,
		metricSpec{name: "transport.bytes_per_commit.other", unit: "bytes"},
		metricSpec{name: "types.codec_us_per_msg", unit: "us"},
		metricSpec{name: "trace.cpu_attributed_share", unit: "share"},
		metricSpec{name: "trace.commits_per_s", unit: "blocks/s"},
		metricSpec{name: "trace.finality_p50_ms", unit: "ms"},
	)
}()

const (
	// setUps is how many times a run sets the cluster up; setup_s is the
	// median, which drops the first, cold one.
	setUps = 3
	// setUpCommits is how many blocks every honest party commits before a
	// cluster counts as set up.
	setUpCommits = 5
	// warmUp is how long the load runs before the measured window opens.
	warmUp = 2 * time.Second
	// failedLatency stands in for +∞ in the percentiles: a command that
	// was rejected or never acknowledged misses any latency limit.
	failedLatency = time.Hour
)

// run measures one workload once: set the cluster up setUps times, load
// the last one for warmUp plus the window, read the counters at the
// window's two ends, drain, stop, and check.
func run(w workload, seed int64, seconds int, traced bool) (record, error) {
	rec := record{Workload: w.name, Seed: seed, Seconds: seconds, Diagnostics: map[string]float64{}}
	if traced {
		rec.Trace = 1
	}
	cl, setUpTook, err := setUp(w, traced)
	if err != nil {
		return rec, err
	}
	window := time.Duration(seconds) * time.Second
	start := cl.since() + 10*time.Millisecond
	t0, t1 := start+warmUp, start+warmUp+window
	ld := newLoad(cl, seed, warmUp+window)
	done := make(chan struct{})
	go func() {
		ld.run(start)
		close(done)
	}()
	time.Sleep(t0 - cl.since())
	s0, cpu0 := cl.c.snapshot(), cpuTime()
	time.Sleep(t1 - cl.since())
	counts, cpu := cl.c.snapshot().sub(s0), cpuTime()-cpu0
	<-done
	cl.stop()

	measured := ld.recs[int(warmUp.Seconds()*loadRate):]
	finality := make([]time.Duration, len(measured))
	var wrong, rejected, unacked int
	for i := range measured {
		r := &measured[i]
		finality[i] = failedLatency
		switch r.state {
		case cmdAcked:
			finality[i] = r.acked - r.due
		case cmdWrong:
			wrong++
		case cmdRejected:
			rejected++
		default:
			unacked++
		}
	}
	sortDurations(finality)
	commits := cl.minCommits(t0, t1)
	disagreeing := cl.checkAgreement()
	rec.Attempted = len(measured)
	rec.Failed = wrong + rejected + unacked
	rec.Correct = wrong == 0 && disagreeing == 0 && commits > 0
	rec.Diagnostics["failed_share"] = float64(rec.Failed) / float64(rec.Attempted)
	rec.Diagnostics["rejected"] = float64(rejected)
	rec.Diagnostics["unacked"] = float64(unacked)
	rec.Diagnostics["wrong_reads"] = float64(wrong)
	rec.Diagnostics["disagreeing_rounds"] = float64(disagreeing)
	rec.Diagnostics["finality_p99_ms"] = ms(percentile(finality, 0.99))
	rec.Diagnostics["finality_p99_samples_beyond"] = float64(len(finality) - rankOf(len(finality), 0.99))
	if commits == 0 {
		return rec, fmt.Errorf("no block committed in the window")
	}

	rec.Diagnostics["cpu_ms_per_commit"] = ms(cpu) / float64(commits)
	m := map[string]float64{}
	if !traced {
		m["finality_p50_ms"] = ms(percentile(finality, 0.50))
		m["finality_p90_ms"] = ms(percentile(finality, 0.90))
		m["commits_per_s"] = float64(commits) / window.Seconds()
		m["wire_bytes_per_commit"] = float64(counts.v[cBytes]) / float64(w.n) / float64(commits)
		m["setup_s"] = spreadOf(setUpTook).median
		rec.Metrics = withUnits(m, endToEnd)
		return rec, nil
	}

	perPartyCommit := float64(w.n) * float64(commits)
	wall := float64(w.n) * float64(window)
	busy := counts.busy()
	per := func(num, den ctr) float64 {
		if counts.v[den] == 0 {
			return 0
		}
		return float64(counts.v[num]) / float64(counts.v[den])
	}
	m["beacon.busy_share"] = float64(busy.beacon) / wall
	m["beacon.reveal_ms"] = per(cRevealNs, cReveals) / 1e6
	m["beacon.share_verifies_per_round"] = per(cRevealShares, cReveals)
	m["core.busy_share"] = float64(busy.core) / wall
	m["core.msgs_per_commit"] = float64(counts.v[cInnerMsgs]) / perPartyCommit
	m["core.proposals_per_commit"] = float64(counts.v[cPayloadCalls]) / float64(commits)
	m["statemachine.busy_share"] = float64(busy.statemachine) / wall
	m["verify.sig_busy_share"] = float64(busy.verify) / wall
	m["verify.checks_per_commit"] = float64(counts.v[cVerifyCalls]) / perPartyCommit
	m["verify.rejects"] = float64(counts.v[cVerifyRejects])
	m["gossip.busy_share"] = float64(busy.gossip) / wall
	if w.gossip {
		m["gossip.msgs_per_commit"] = float64(counts.v[cOuterMsgs]) / perPartyCommit
	}
	m["transport.busy_share"] = float64(busy.transport) / wall
	m["transport.send_us"] = per(cSendNs, cSends) / 1e3
	m["transport.msgs_per_commit"] = float64(counts.v[cSends]) / perPartyCommit
	other := counts.v[cBytes]
	for _, k := range sentKinds {
		m["transport.bytes_per_commit."+k.String()] = float64(counts.byKind[k]) / perPartyCommit
		other -= counts.byKind[k]
	}
	m["transport.bytes_per_commit.other"] = float64(other) / perPartyCommit
	m["types.codec_us_per_msg"] = codecReplay(cl.c.sample)
	m["trace.cpu_attributed_share"] = float64(busy.total()) / float64(cpu)
	m["trace.commits_per_s"] = float64(commits) / window.Seconds()
	m["trace.finality_p50_ms"] = ms(percentile(finality, 0.50))
	m["gateway.admit_us"] = per(cSubmitNs, cSubmits) / 1e3
	m["statemachine.cmds_per_block"] = float64(rec.Attempted-rec.Failed) / float64(commits)

	var genLag, inclusion, ackLag []time.Duration
	for i := range measured {
		if measured[i].state != cmdAcked {
			continue
		}
		if st, ok := ld.stagesOf(&measured[i]); ok {
			genLag = append(genLag, st.genLag)
			inclusion = append(inclusion, st.inclusionWait)
			ackLag = append(ackLag, st.ackLag)
		}
	}
	sortDurations(genLag)
	sortDurations(inclusion)
	sortDurations(ackLag)
	m["gateway.gen_lag_p99_ms"] = ms(percentile(genLag, 0.99))
	m["statemachine.inclusion_wait_ms"] = ms(percentile(inclusion, 0.50))
	m["gateway.ack_lag_ms"] = ms(percentile(ackLag, 0.50))

	rounds := cl.roundTimes(t0, t1)
	m["core.round_ms"] = ms(percentile(rounds.normal, 0.50))
	m["core.timeout_round_ms"] = ms(percentile(rounds.timeout, 0.50))
	m["core.propose_to_commit_ms"] = ms(percentile(rounds.proposeToCommit, 0.50))
	m["core.commit_spread_ms"] = ms(percentile(rounds.commitSpread, 0.50))
	rec.Diagnostics["timeout_rounds_share"] = float64(len(rounds.timeout)) / float64(len(rounds.timeout)+len(rounds.normal))
	rec.Diagnostics["process_cpu_cores"] = float64(cpu) / float64(window)
	rec.Metrics = withUnits(m, perLayer)
	return rec, nil
}

// setUp brings a cluster up setUps times, stopping all but the last, and
// returns that one running with how long each set-up took in seconds.
func setUp(w workload, traced bool) (*cluster, []float64, error) {
	var took []float64
	for i := 1; ; i++ {
		began := time.Now()
		cl, err := newCluster(w, traced)
		if err != nil {
			return nil, nil, err
		}
		cl.start()
		if err := cl.waitCommits(setUpCommits, time.Minute); err != nil {
			cl.stop()
			return nil, nil, err
		}
		took = append(took, time.Since(began).Seconds())
		if i == setUps {
			return cl, took, nil
		}
		cl.stop()
	}
}

// roundStats are per-round durations inside a window, each sorted.
type roundStats struct {
	normal          []time.Duration // entering a round → entering the next, honest leader
	timeout         []time.Duration // same, for rounds the silent party led
	proposeToCommit []time.Duration // at the proposer of the committed block
	commitSpread    []time.Duration // first → last party committing a round
}

func (cl *cluster) roundTimes(t0, t1 time.Duration) roundStats {
	var rs roundStats
	first := make(map[types.Round]time.Duration)
	last := make(map[types.Round]time.Duration)
	for p, l := range cl.logs {
		l.mu.Lock()
		for i := 0; i+1 < len(l.enters); i++ {
			e, next := l.enters[i], l.enters[i+1]
			if e.at < t0 || e.at >= t1 || next.round != e.round+1 {
				continue
			}
			if int(e.leader) == cl.w.silent {
				rs.timeout = append(rs.timeout, next.at-e.at)
			} else {
				rs.normal = append(rs.normal, next.at-e.at)
			}
		}
		for _, c := range l.commits {
			if c.at < t0 || c.at >= t1 {
				continue
			}
			if at, ok := l.proposes[c.round]; ok && int(c.proposer) == p {
				rs.proposeToCommit = append(rs.proposeToCommit, c.at-at)
			}
			if at, ok := first[c.round]; !ok || c.at < at {
				first[c.round] = c.at
			}
			if c.at > last[c.round] {
				last[c.round] = c.at
			}
		}
		l.mu.Unlock()
	}
	for k, at := range first {
		rs.commitSpread = append(rs.commitSpread, last[k]-at)
	}
	sortDurations(rs.normal)
	sortDurations(rs.timeout)
	sortDurations(rs.proposeToCommit)
	sortDurations(rs.commitSpread)
	return rs
}

// codecReplay marshals and unmarshals the messages a traced run kept and
// returns the mean cost of the pair in microseconds.
func codecReplay(sample []types.Message) float64 {
	if len(sample) == 0 {
		return 0
	}
	const passes = 20
	began := time.Now()
	for pass := 0; pass < passes; pass++ {
		for _, m := range sample {
			if _, err := types.Unmarshal(types.Marshal(m)); err != nil {
				panic(fmt.Sprintf("bench: a message the cluster sent does not decode: %v", err))
			}
		}
	}
	return float64(time.Since(began).Microseconds()) / float64(passes*len(sample))
}

// cpuTime is the processor time, user and system, this process has used.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func withUnits(values map[string]float64, specs []metricSpec) map[string]metricValue {
	out := make(map[string]metricValue, len(specs))
	for _, s := range specs {
		out[s.name] = metricValue{Value: values[s.name], Unit: s.unit}
	}
	return out
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

// rankOf is the nearest-rank position (1-based) of the p-quantile among n
// sorted samples.
func rankOf(n int, p float64) int {
	r := int(math.Ceil(p * float64(n)))
	if r < 1 {
		r = 1
	}
	return r
}

// percentile returns the nearest-rank p-quantile of sorted samples, and 0
// for none.
func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[rankOf(len(sorted), p)-1]
}

func sortedKeys(m map[string]float64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
