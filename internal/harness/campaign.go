package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"icc/internal/node"
	"icc/internal/obs"
	"icc/internal/pool"
	"icc/internal/simnet"
	"icc/internal/types"
)

// Profile is one named adversary configuration of a campaign: a cluster
// size plus the Byzantine role assignment to attack it with. The matrix
// the campaign sweeps is profiles × seeds.
type Profile struct {
	Name      string
	N         int
	Behaviors map[types.PartyID]Behavior
	Tuning    map[types.PartyID]BehaviorTuning

	// Mode is the dissemination sub-layer under the engines (zero: ICC0);
	// ICC1 cells run the overlay node.Stack builds for every live node, at
	// its default fanout. Verify says where signatures are checked, and
	// with it whether the gossip relays trust their input: under
	// pool.VerifyFull they do not (a share is an opaque ref, and a
	// neighbour counts as holding a certificate only on its own word),
	// under pool.VerifyPreVerified they do (what each neighbour holds is
	// counted per signer, and one at a quorum is sent neither shares nor
	// certificate) — sound here because no behaviour of the matrix forges
	// a signature.
	Mode   node.Mode
	Verify pool.VerifyPolicy

	// ExpectStall marks profiles whose adversary provably exceeds the
	// finalization fault threshold (more than t withheld finalization
	// quorum members, forever): the pass condition inverts — honest
	// parties must NOT commit anything, and any commit is a failure of
	// the experiment's threshold model.
	ExpectStall bool

	// MinCommits / MaxStall override the campaign-wide liveness floor
	// and commit-gap bound for this profile (0 = inherit). Profiles with
	// a scheduled rejoin (Tuning.Until) need a MaxStall larger than the
	// engineered stall.
	MinCommits int
	MaxStall   time.Duration
}

// CampaignOptions configures a campaign sweep.
type CampaignOptions struct {
	// Seeds to run every profile under.
	Seeds []int64
	// SimTime is the virtual-time budget per run.
	SimTime time.Duration
	// DeltaBound is the engines' Δbnd (default 100ms).
	DeltaBound time.Duration
	// DelayMin/DelayMax parameterise the uniform message-delay model
	// (defaults 5–15ms); kept scalar so a trace header can reconstruct
	// the exact delay model for replay.
	DelayMin, DelayMax time.Duration
	// MinCommits is the liveness floor: every honest party must commit
	// at least this many blocks within SimTime (default 10).
	MinCommits int
	// MaxStall, if positive, bounds the largest gap between successive
	// honest commits (including the run's leading and trailing gaps).
	MaxStall time.Duration
	// TraceDir receives the replayable JSONL trace of each failing run
	// (default os.TempDir()).
	TraceDir string
	// TraceCap bounds the per-run trace ring. It must comfortably exceed
	// the run's event count: a wrapped ring is truncated history and the
	// replayer refuses it. Default 1 << 19.
	TraceCap int
}

func (o CampaignOptions) withDefaults() CampaignOptions {
	if o.SimTime == 0 {
		o.SimTime = 20 * time.Second
	}
	if o.DeltaBound == 0 {
		o.DeltaBound = 100 * time.Millisecond
	}
	if o.DelayMin == 0 && o.DelayMax == 0 {
		o.DelayMin, o.DelayMax = 5*time.Millisecond, 15*time.Millisecond
	}
	if o.MinCommits == 0 {
		o.MinCommits = 10
	}
	if o.TraceDir == "" {
		o.TraceDir = os.TempDir()
	}
	if o.TraceCap == 0 {
		o.TraceCap = 1 << 19
	}
	if len(o.Seeds) == 0 {
		o.Seeds = []int64{1}
	}
	return o
}

// RunRecord is the outcome of one (profile, seed) cell of the matrix.
type RunRecord struct {
	Profile string
	Seed    int64
	// Commits is the minimum committed-chain length among honest parties.
	Commits int
	// Failure is empty for a passing run, else a one-line verdict
	// ("safety: ...", "liveness: ...", "stall: ...").
	Failure string
	// TracePath is where the failing run's replayable trace was written.
	TracePath string
}

// CampaignReport aggregates a swept matrix.
type CampaignReport struct {
	Runs     []RunRecord
	Failures int
}

// detReader is a deterministic io.Reader: an unbounded SHA-256 counter
// stream keyed by seed. The campaign deals cluster keys from it so a
// replayed run — possibly in another process, days later — derives
// byte-identical key material and hence a byte-identical trace.
type detReader struct {
	seed int64
	ctr  uint64
	buf  []byte
}

func newDetReader(seed int64) *detReader { return &detReader{seed: seed} }

func (r *detReader) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		if len(r.buf) == 0 {
			var block [16]byte
			binary.LittleEndian.PutUint64(block[:8], uint64(r.seed))
			binary.LittleEndian.PutUint64(block[8:], r.ctr)
			r.ctr++
			sum := sha256.Sum256(block[:])
			r.buf = sum[:]
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return n, nil
}

// minCommits / maxStall resolve the per-profile overrides.
func (p Profile) minCommits(o CampaignOptions) int {
	if p.MinCommits > 0 {
		return p.MinCommits
	}
	return o.MinCommits
}

func (p Profile) maxStall(o CampaignOptions) time.Duration {
	if p.MaxStall > 0 {
		return p.MaxStall
	}
	return o.MaxStall
}

// runProfile executes one (profile, seed) cell, recording the execution
// into tr when non-nil, and returns (min honest commits, failure).
func runProfile(p Profile, seed int64, o CampaignOptions, tr *obs.Tracer) (int, string, error) {
	opts := Options{
		N:          p.N,
		Seed:       seed,
		Delay:      simnet.Uniform{Min: o.DelayMin, Max: o.DelayMax},
		DeltaBound: o.DeltaBound,
		SimBeacon:  true,
		Behaviors:  p.Behaviors,
		Tuning:     p.Tuning,
		KeyRand:    newDetReader(seed),
		Trace:      tr,
		Mode:       p.Mode,
		Verify:     p.Verify,
	}
	c, err := New(opts)
	if err != nil {
		return 0, "", err
	}
	c.Start()
	c.Net.Run(o.SimTime)

	honest := c.HonestParties()
	commits := c.MinCommitted(honest)

	// Safety first: it binds unconditionally, whatever the adversary.
	if err := c.CheckSafety(); err != nil {
		return commits, "safety: " + err.Error(), nil
	}
	if p.ExpectStall {
		if commits > 0 {
			return commits, fmt.Sprintf("threshold: expected finalization stall but honest parties committed %d blocks", commits), nil
		}
		return commits, "", nil
	}
	if min := p.minCommits(o); commits < min {
		return commits, fmt.Sprintf("liveness: honest parties committed %d < %d blocks in %v", commits, min, o.SimTime), nil
	}
	if ms := p.maxStall(o); ms > 0 {
		for _, pid := range honest {
			if gap := maxCommitGap(c.CommittedAt(pid), o.SimTime); gap > ms {
				return commits, fmt.Sprintf("stall: party %d saw a %v commit gap > %v", pid, gap, ms), nil
			}
		}
	}
	return commits, "", nil
}

// parseDissemination inverts node.Mode.String and
// pool.VerifyPolicy.String. A trace recorded before the campaign had the
// axis carries neither key: it ran ICC0 under full verification, the zero
// values.
func parseDissemination(mode, verify string) (m node.Mode, v pool.VerifyPolicy, err error) {
	if mode != "" {
		if m, err = node.ParseMode(mode); err != nil {
			return 0, 0, fmt.Errorf("harness: %w", err)
		}
	}
	switch verify {
	case "", pool.VerifyFull.String():
	case pool.VerifyPreVerified.String():
		v = pool.VerifyPreVerified
	case "shares-only":
		return 0, 0, fmt.Errorf("harness: verify policy %q is retired: the trace was recorded on a stack that no longer exists and cannot be replayed (such cells now run %q)", verify, pool.VerifyPreVerified)
	default:
		return 0, 0, fmt.Errorf("harness: unknown verify policy %q", verify)
	}
	return m, v, nil
}

// maxCommitGap returns the largest interval without a commit across the
// whole run window [0, end], including the leading and trailing gaps.
func maxCommitGap(times []time.Duration, end time.Duration) time.Duration {
	if len(times) == 0 {
		return end
	}
	gap := times[0]
	for i := 1; i < len(times); i++ {
		if d := times[i] - times[i-1]; d > gap {
			gap = d
		}
	}
	if d := end - times[len(times)-1]; d > gap {
		gap = d
	}
	return gap
}

// RunCampaign sweeps profiles × seeds. Every failing cell re-executes
// with tracing enabled and writes a self-contained replayable JSONL
// trace into TraceDir; passing cells run trace-free (the trace hook
// costs allocation on every simulator event).
func RunCampaign(profiles []Profile, o CampaignOptions) (*CampaignReport, error) {
	o = o.withDefaults()
	rep := &CampaignReport{}
	for _, p := range profiles {
		for _, seed := range o.Seeds {
			commits, failure, err := runProfile(p, seed, o, nil)
			if err != nil {
				return nil, fmt.Errorf("campaign %s seed %d: %w", p.Name, seed, err)
			}
			rec := RunRecord{Profile: p.Name, Seed: seed, Commits: commits, Failure: failure}
			if failure != "" {
				rep.Failures++
				path, err := WriteFailureTrace(p, seed, o)
				if err != nil {
					return nil, fmt.Errorf("campaign %s seed %d: writing trace: %w", p.Name, seed, err)
				}
				rec.TracePath = path
			}
			rep.Runs = append(rep.Runs, rec)
		}
	}
	return rep, nil
}

// WriteFailureTrace re-executes one cell with tracing enabled and writes
// the self-contained replay artifact (configuration in the header Meta,
// deterministic execution record in the events). It returns the file
// path.
func WriteFailureTrace(p Profile, seed int64, o CampaignOptions) (string, error) {
	o = o.withDefaults()
	tr := obs.NewTracer(o.TraceCap)
	tr.DisableWallStamp()
	commits, failure, err := runProfile(p, seed, o, tr)
	if err != nil {
		return "", err
	}
	meta := campaignMeta(p, seed, o)
	meta["failure"] = failure
	meta["commits"] = strconv.Itoa(commits)
	path := filepath.Join(o.TraceDir, fmt.Sprintf("icc-campaign-%s-seed%d.jsonl", p.Name, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	if err := tr.WriteJSONLMeta(f, meta); err != nil {
		return "", err
	}
	return path, f.Close()
}

// campaignMeta flattens the cell configuration into the trace header.
func campaignMeta(p Profile, seed int64, o CampaignOptions) map[string]string {
	return map[string]string{
		"campaign":     "icc-adversary",
		"profile":      p.Name,
		"n":            strconv.Itoa(p.N),
		"seed":         strconv.FormatInt(seed, 10),
		"behaviors":    encodeBehaviors(p),
		"mode":         p.Mode.String(),
		"verify":       p.Verify.String(),
		"expect_stall": strconv.FormatBool(p.ExpectStall),
		"min_commits":  strconv.Itoa(p.minCommits(o)),
		"max_stall":    p.maxStall(o).String(),
		"sim_time":     o.SimTime.String(),
		"delta_bound":  o.DeltaBound.String(),
		"delay_min":    o.DelayMin.String(),
		"delay_max":    o.DelayMax.String(),
		"trace_cap":    strconv.Itoa(o.TraceCap),
	}
}

// encodeBehaviors serialises the role assignment (with tunings) as
// "pid=behavior[;until=d][;skew=d][;delay=d]" clauses joined by ",",
// sorted by party for determinism.
func encodeBehaviors(p Profile) string {
	ids := make([]int, 0, len(p.Behaviors))
	for pid := range p.Behaviors {
		ids = append(ids, int(pid))
	}
	sort.Ints(ids)
	clauses := make([]string, 0, len(ids))
	for _, id := range ids {
		pid := types.PartyID(id)
		clause := fmt.Sprintf("%d=%s", id, p.Behaviors[pid])
		if t, ok := p.Tuning[pid]; ok {
			if t.Until != 0 {
				clause += ";until=" + t.Until.String()
			}
			if t.Skew != 0 {
				clause += ";skew=" + t.Skew.String()
			}
			if t.ShareDelay != 0 {
				clause += ";delay=" + t.ShareDelay.String()
			}
		}
		clauses = append(clauses, clause)
	}
	return strings.Join(clauses, ",")
}

// decodeBehaviors inverts encodeBehaviors.
func decodeBehaviors(s string) (map[types.PartyID]Behavior, map[types.PartyID]BehaviorTuning, error) {
	behaviors := map[types.PartyID]Behavior{}
	tuning := map[types.PartyID]BehaviorTuning{}
	if s == "" {
		return behaviors, tuning, nil
	}
	for _, clause := range strings.Split(s, ",") {
		parts := strings.Split(clause, ";")
		pidStr, name, ok := strings.Cut(parts[0], "=")
		if !ok {
			return nil, nil, fmt.Errorf("harness: bad behavior clause %q", clause)
		}
		id, err := strconv.Atoi(pidStr)
		if err != nil {
			return nil, nil, fmt.Errorf("harness: bad party id in %q: %w", clause, err)
		}
		b, err := ParseBehavior(name)
		if err != nil {
			return nil, nil, err
		}
		pid := types.PartyID(id)
		behaviors[pid] = b
		var t BehaviorTuning
		for _, kv := range parts[1:] {
			key, val, ok := strings.Cut(kv, "=")
			if !ok {
				return nil, nil, fmt.Errorf("harness: bad tuning clause %q", kv)
			}
			d, err := time.ParseDuration(val)
			if err != nil {
				return nil, nil, fmt.Errorf("harness: bad tuning duration %q: %w", kv, err)
			}
			switch key {
			case "until":
				t.Until = d
			case "skew":
				t.Skew = d
			case "delay":
				t.ShareDelay = d
			default:
				return nil, nil, fmt.Errorf("harness: unknown tuning key %q", key)
			}
		}
		if t != (BehaviorTuning{}) {
			tuning[pid] = t
		}
	}
	return behaviors, tuning, nil
}

// ReplayReport is the outcome of re-executing a recorded failure.
type ReplayReport struct {
	Profile string
	Seed    int64
	// Reproduced is true when the re-run hit the same failure verdict.
	Reproduced bool
	// ByteIdentical is true when the re-run's serialised trace matches
	// the recorded file byte for byte.
	ByteIdentical bool
	// DivergeLine is the first differing line (1-based, counting the
	// header as line 1) when not byte-identical; 0 otherwise.
	DivergeLine int
	// RecordedFailure / ReplayFailure are the two verdicts.
	RecordedFailure string
	ReplayFailure   string
}

// ReplayTrace re-executes the run recorded in a campaign trace file and
// verifies the failure reproduces deterministically: same verdict, and a
// byte-identical event stream. Truncated traces (ring overflow at record
// time) are refused — a partial history cannot vouch for a replay.
func ReplayTrace(path string) (*ReplayReport, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	header, _, err := obs.ReadJSONL(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	if header.Dropped > 0 {
		return nil, fmt.Errorf("harness: trace %s is truncated: ring dropped %d of %d events; raise CampaignOptions.TraceCap (was %d) and re-record",
			path, header.Dropped, header.Total, header.Cap)
	}
	p, seed, o, err := cellFromMeta(header.Meta)
	if err != nil {
		return nil, fmt.Errorf("harness: trace %s: %w", path, err)
	}

	tr := obs.NewTracer(o.TraceCap)
	tr.DisableWallStamp()
	commits, failure, err := runProfile(p, seed, o, tr)
	if err != nil {
		return nil, err
	}
	meta := campaignMeta(p, seed, o)
	meta["failure"] = failure
	meta["commits"] = strconv.Itoa(commits)
	var buf bytes.Buffer
	if err := tr.WriteJSONLMeta(&buf, meta); err != nil {
		return nil, err
	}

	rep := &ReplayReport{
		Profile:         p.Name,
		Seed:            seed,
		RecordedFailure: header.Meta["failure"],
		ReplayFailure:   failure,
	}
	rep.Reproduced = failure != "" && failure == rep.RecordedFailure
	if bytes.Equal(buf.Bytes(), raw) {
		rep.ByteIdentical = true
	} else {
		rep.DivergeLine = firstDivergingLine(raw, buf.Bytes())
	}
	return rep, nil
}

// cellFromMeta reconstructs the (profile, seed, options) cell from a
// trace header.
func cellFromMeta(meta map[string]string) (Profile, int64, CampaignOptions, error) {
	var p Profile
	var o CampaignOptions
	if meta == nil {
		return p, 0, o, fmt.Errorf("trace header has no campaign metadata")
	}
	var err error
	if p.N, err = strconv.Atoi(meta["n"]); err != nil {
		return p, 0, o, fmt.Errorf("bad n: %w", err)
	}
	seed, err := strconv.ParseInt(meta["seed"], 10, 64)
	if err != nil {
		return p, 0, o, fmt.Errorf("bad seed: %w", err)
	}
	p.Name = meta["profile"]
	p.ExpectStall = meta["expect_stall"] == "true"
	if p.Behaviors, p.Tuning, err = decodeBehaviors(meta["behaviors"]); err != nil {
		return p, 0, o, err
	}
	if p.Mode, p.Verify, err = parseDissemination(meta["mode"], meta["verify"]); err != nil {
		return p, 0, o, err
	}
	if p.MinCommits, err = strconv.Atoi(meta["min_commits"]); err != nil {
		return p, 0, o, fmt.Errorf("bad min_commits: %w", err)
	}
	durs := map[string]*time.Duration{
		"max_stall":   &p.MaxStall,
		"sim_time":    &o.SimTime,
		"delta_bound": &o.DeltaBound,
		"delay_min":   &o.DelayMin,
		"delay_max":   &o.DelayMax,
	}
	for key, dst := range durs {
		if *dst, err = time.ParseDuration(meta[key]); err != nil {
			return p, 0, o, fmt.Errorf("bad %s: %w", key, err)
		}
	}
	if o.TraceCap, err = strconv.Atoi(meta["trace_cap"]); err != nil {
		return p, 0, o, fmt.Errorf("bad trace_cap: %w", err)
	}
	o.MinCommits = p.MinCommits
	o.MaxStall = p.MaxStall
	o.Seeds = []int64{seed}
	return p, seed, o, nil
}

// firstDivergingLine locates the first line where two JSONL dumps differ
// (1-based; 0 if one is a strict prefix of the other with no differing
// line — then the shorter stream's length+1 is reported).
func firstDivergingLine(a, b []byte) int {
	la := strings.Split(string(a), "\n")
	lb := strings.Split(string(b), "\n")
	n := len(la)
	if len(lb) < n {
		n = len(lb)
	}
	for i := 0; i < n; i++ {
		if la[i] != lb[i] {
			return i + 1
		}
	}
	return n + 1
}

// ShrinkResult is the outcome of minimising a failing cell.
type ShrinkResult struct {
	// Profile is the minimised profile: the same cell with every
	// behaviour not needed for the failure removed (its party honest
	// again).
	Profile Profile
	// Failure is the minimised cell's verdict.
	Failure string
	// Runs is how many re-executions the search used.
	Runs int
}

// Shrink greedily minimises a failing (profile, seed) cell to a
// 1-minimal behaviour set: it repeatedly removes one Byzantine role,
// keeps the removal whenever the cell still fails, and stops when every
// remaining role is necessary (removing any single one makes the run
// pass). Greedy 1-minimality is not a global minimum, but for threshold
// adversaries it lands exactly on the quorum arithmetic — e.g. two
// finalization withholders out of a larger cast, because t+1 = 2 is what
// stalls n = 4.
func Shrink(p Profile, seed int64, o CampaignOptions) (*ShrinkResult, error) {
	o = o.withDefaults()
	_, failure, err := runProfile(p, seed, o, nil)
	if err != nil {
		return nil, err
	}
	res := &ShrinkResult{Profile: p, Failure: failure, Runs: 1}
	if failure == "" {
		return res, fmt.Errorf("harness: cell %s/seed %d passes; nothing to shrink", p.Name, seed)
	}
	for {
		shrunk := false
		// Deterministic removal order: ascending party id.
		ids := make([]int, 0, len(res.Profile.Behaviors))
		for pid := range res.Profile.Behaviors {
			ids = append(ids, int(pid))
		}
		sort.Ints(ids)
		for _, id := range ids {
			pid := types.PartyID(id)
			candidate := res.Profile
			candidate.Behaviors = cloneWithout(res.Profile.Behaviors, pid)
			candidate.Tuning = cloneTuningWithout(res.Profile.Tuning, pid)
			_, failure, err := runProfile(candidate, seed, o, nil)
			res.Runs++
			if err != nil {
				return nil, err
			}
			if failure != "" {
				res.Profile = candidate
				res.Failure = failure
				shrunk = true
				break
			}
		}
		if !shrunk {
			return res, nil
		}
	}
}

func cloneWithout(m map[types.PartyID]Behavior, drop types.PartyID) map[types.PartyID]Behavior {
	out := make(map[types.PartyID]Behavior, len(m))
	for k, v := range m {
		if k != drop {
			out[k] = v
		}
	}
	return out
}

func cloneTuningWithout(m map[types.PartyID]BehaviorTuning, drop types.PartyID) map[types.PartyID]BehaviorTuning {
	out := make(map[types.PartyID]BehaviorTuning, len(m))
	for k, v := range m {
		if k != drop {
			out[k] = v
		}
	}
	return out
}
