package harness

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"time"

	"icc/internal/node"
	"icc/internal/obs"
	"icc/internal/oracle"
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

	// Holds is what the cell expects of the run (Cluster.Judge); the zero
	// value is all four properties. A cell past the fault threshold — more
	// than t finalization shares withheld for good — declares
	// oracle.Stalled in place of oracle.Finality: then any honest commit
	// fails the threshold model the experiment rests on.
	Holds oracle.Property
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
	// Failure is empty for a passing run, else the oracle's one-line
	// verdict ("agreement: ...", "finality: ...", ...).
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
	commits := c.Log.Fewest(c.HonestParties()...)
	if err := c.Judge(p.Holds); err != nil {
		return commits, err.Error(), nil
	}
	return commits, "", nil
}

// parseDissemination inverts node.Mode.String and
// pool.VerifyPolicy.String.
func parseDissemination(mode, verify string) (m node.Mode, v pool.VerifyPolicy, err error) {
	if m, err = node.ParseMode(mode); err != nil {
		return 0, 0, fmt.Errorf("harness: %w", err)
	}
	switch verify {
	case pool.VerifyFull.String():
	case pool.VerifyPreVerified.String():
		v = pool.VerifyPreVerified
	default:
		return 0, 0, fmt.Errorf("harness: unknown verify policy %q", verify)
	}
	return m, v, nil
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
	trace, _, err := recordCell(p, seed, o)
	if err != nil {
		return "", err
	}
	path := filepath.Join(o.TraceDir, fmt.Sprintf("icc-campaign-%s-seed%d.jsonl", p.Name, seed))
	return path, os.WriteFile(path, trace, 0o644)
}

// recordCell runs one cell with tracing on and returns the serialised
// trace — the cell and its verdict in the header, then the events — and
// the verdict.
func recordCell(p Profile, seed int64, o CampaignOptions) ([]byte, string, error) {
	tr := obs.NewTracer(o.TraceCap)
	tr.DisableWallStamp()
	commits, failure, err := runProfile(p, seed, o, tr)
	if err != nil {
		return nil, "", err
	}
	meta := campaignMeta(p, seed, o)
	meta["failure"], meta["commits"] = failure, strconv.Itoa(commits)
	var buf bytes.Buffer
	err = tr.WriteJSONLMeta(&buf, meta)
	return buf.Bytes(), failure, err
}

// campaignMeta flattens the cell configuration into the trace header.
func campaignMeta(p Profile, seed int64, o CampaignOptions) map[string]string {
	return map[string]string{
		"campaign":    "icc-adversary",
		"profile":     p.Name,
		"n":           strconv.Itoa(p.N),
		"seed":        strconv.FormatInt(seed, 10),
		"behaviors":   encodeBehaviors(p),
		"mode":        p.Mode.String(),
		"verify":      p.Verify.String(),
		"holds":       p.Holds.String(),
		"sim_time":    o.SimTime.String(),
		"delta_bound": o.DeltaBound.String(),
		"delay_min":   o.DelayMin.String(),
		"delay_max":   o.DelayMax.String(),
		"trace_cap":   strconv.Itoa(o.TraceCap),
	}
}

// role is one party's entry in a trace header: its behaviour, by name,
// and the behaviour's tuning.
type role struct {
	Behavior Behavior
	BehaviorTuning
}

// encodeBehaviors serialises the role assignment with its tunings as a
// JSON object keyed by party; encoding/json sorts the keys, so one cell
// always encodes to the same bytes.
func encodeBehaviors(p Profile) string {
	cast := make(map[types.PartyID]role, len(p.Behaviors))
	for pid, b := range p.Behaviors {
		cast[pid] = role{b, p.Tuning[pid]}
	}
	raw, _ := json.Marshal(cast) // a role has nothing that fails to marshal
	return string(raw)
}

// decodeBehaviors inverts encodeBehaviors.
func decodeBehaviors(s string) (map[types.PartyID]Behavior, map[types.PartyID]BehaviorTuning, error) {
	var cast map[types.PartyID]role
	if err := json.Unmarshal([]byte(s), &cast); err != nil {
		return nil, nil, fmt.Errorf("harness: bad behaviors %q: %w", s, err)
	}
	behaviors, tuning := map[types.PartyID]Behavior{}, map[types.PartyID]BehaviorTuning{}
	for pid, r := range cast {
		behaviors[pid] = r.Behavior
		if r.BehaviorTuning != (BehaviorTuning{}) {
			tuning[pid] = r.BehaviorTuning
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
	trace, failure, err := recordCell(p, seed, o)
	if err != nil {
		return nil, err
	}
	rep := &ReplayReport{
		Profile:         p.Name,
		Seed:            seed,
		RecordedFailure: header.Meta["failure"],
		ReplayFailure:   failure,
	}
	rep.Reproduced = failure != "" && failure == rep.RecordedFailure
	if bytes.Equal(trace, raw) {
		rep.ByteIdentical = true
	} else {
		rep.DivergeLine = firstDivergingLine(raw, trace)
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
	seed, err := strconv.ParseInt(meta["seed"], 10, 64)
	if err != nil {
		return p, 0, o, fmt.Errorf("bad seed: %w", err)
	}
	p.Name = meta["profile"]
	holds, ok := meta["holds"]
	if !ok {
		return p, 0, o, fmt.Errorf("trace has no holds key: recorded before PR 21, cannot replay")
	}
	if p.Holds, err = oracle.ParseProperty(holds); err != nil {
		return p, 0, o, fmt.Errorf("bad holds: %w", err)
	}
	if p.Behaviors, p.Tuning, err = decodeBehaviors(meta["behaviors"]); err != nil {
		return p, 0, o, err
	}
	if p.Mode, p.Verify, err = parseDissemination(meta["mode"], meta["verify"]); err != nil {
		return p, 0, o, err
	}
	for key, dst := range map[string]*time.Duration{
		"sim_time": &o.SimTime, "delta_bound": &o.DeltaBound, "delay_min": &o.DelayMin, "delay_max": &o.DelayMax,
	} {
		if *dst, err = time.ParseDuration(meta[key]); err != nil {
			return p, 0, o, fmt.Errorf("bad %s: %w", key, err)
		}
	}
	for key, dst := range map[string]*int{"n": &p.N, "trace_cap": &o.TraceCap} {
		if *dst, err = strconv.Atoi(meta[key]); err != nil {
			return p, 0, o, fmt.Errorf("bad %s: %w", key, err)
		}
	}
	o.Seeds = []int64{seed}
	return p, seed, o, nil
}

// firstDivergingLine locates the first line where two JSONL dumps differ
// (1-based; when one is a prefix of the other, the shorter stream's line
// count + 1).
func firstDivergingLine(a, b []byte) int {
	la, lb := strings.Split(string(a), "\n"), strings.Split(string(b), "\n")
	i := 0
	for i < len(la) && i < len(lb) && la[i] == lb[i] {
		i++
	}
	return i + 1
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
		for _, pid := range roles(res.Profile.Behaviors) {
			candidate := res.Profile
			candidate.Behaviors, candidate.Tuning = maps.Clone(res.Profile.Behaviors), maps.Clone(res.Profile.Tuning)
			delete(candidate.Behaviors, pid)
			delete(candidate.Tuning, pid)
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

// roles lists the parties a behaviour map names, in ascending order.
func roles(m map[types.PartyID]Behavior) []types.PartyID {
	ids := make([]types.PartyID, 0, len(m))
	for pid := range m {
		ids = append(ids, pid)
	}
	slices.Sort(ids)
	return ids
}
