// Package harness assembles simulated ICC clusters — key material,
// engines (honest or Byzantine), dissemination mode, delay model,
// metrics, the run log — and judges each run with internal/oracle from
// the cluster's own inputs. It is the shared chassis of the benchmark
// suite (DESIGN.md §3) and of cmd/iccsim.
package harness

import (
	"crypto/rand"
	"fmt"
	"io"
	"time"

	"icc/internal/adversary"
	"icc/internal/beacon"
	"icc/internal/core"
	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/metrics"
	"icc/internal/node"
	"icc/internal/obs"
	"icc/internal/oracle"
	"icc/internal/pool"
	"icc/internal/simnet"
	"icc/internal/types"
)

// Behavior selects how a party acts.
type Behavior int

// Supported behaviours.
const (
	Honest        Behavior = iota + 1
	Crash                  // silent from birth
	SilentLeader           // honest except never proposes
	LazyVoter              // honest except never contributes shares
	Equivocator            // forks blocks AND notarization shares to different halves
	WithholdNotar          // honest except withholds its own notarization shares
	WithholdFinal          // honest except withholds its own finalization shares
	ClockSkewed            // honest, but runs against a skewed local clock
	RankAbuser             // colluding cartel member abusing the rank permutation
	MuteRelay              // ICC1: sends its own artifacts, relays nothing second-hand
)

// behaviorNames is the canonical Behavior <-> string mapping, used by the
// campaign driver to persist behaviour sets in trace headers.
var behaviorNames = map[Behavior]string{
	Honest:        "honest",
	Crash:         "crash",
	SilentLeader:  "silent_leader",
	LazyVoter:     "lazy_voter",
	Equivocator:   "equivocator",
	WithholdNotar: "withhold_notar",
	WithholdFinal: "withhold_final",
	ClockSkewed:   "clock_skewed",
	RankAbuser:    "rank_abuser",
	MuteRelay:     "mute_relay",
}

// String implements fmt.Stringer.
func (b Behavior) String() string {
	if s, ok := behaviorNames[b]; ok {
		return s
	}
	return fmt.Sprintf("Behavior(%d)", int(b))
}

// ParseBehavior inverts Behavior.String.
func ParseBehavior(s string) (Behavior, error) {
	for b, name := range behaviorNames {
		if name == s {
			return b, nil
		}
	}
	return 0, fmt.Errorf("harness: unknown behavior %q", s)
}

// MarshalText and UnmarshalText carry a behaviour by name (trace headers).
func (b Behavior) MarshalText() ([]byte, error) { return []byte(b.String()), nil }

func (b *Behavior) UnmarshalText(text []byte) (err error) {
	*b, err = ParseBehavior(string(text))
	return err
}

// BehaviorTuning carries the per-party knobs of the time-dependent
// behaviours; the zero value selects sensible defaults.
type BehaviorTuning struct {
	// Until is when a WithholdNotar/WithholdFinal party rejoins and
	// shares normally again (0 = withholds for the whole run).
	Until time.Duration
	// Skew is a ClockSkewed party's clock offset (0 defaults to
	// 2×DeltaBound ahead — enough to open its Δprop/Δntry windows early).
	Skew time.Duration
	// ShareDelay is how long a RankAbuser sits on its own notarization
	// shares for non-cartel proposals (0 defaults to DeltaBound).
	ShareDelay time.Duration
}

// Options configures a cluster.
type Options struct {
	N          int
	Seed       int64
	Delay      simnet.DelayModel
	DeltaBound time.Duration
	Epsilon    time.Duration

	// CertScheme selects the aggregate-signature scheme the cluster's
	// notarization/finalization/checkpoint certificates use. Zero value
	// is the ed25519 multisig default; aggsig.SchemeBLS deals BLS12-381
	// keys instead (constant-size certificates, see DESIGN.md §15).
	CertScheme aggsig.SchemeID

	// SimBeacon swaps the threshold-cryptography beacon for the fast
	// hash-chain simulation (same message pattern; see beacon.Simulated).
	SimBeacon bool
	// Verify says where signatures are checked. The zero value,
	// pool.VerifyFull, checks them in every party's pool and gossip relay,
	// as a live node without a verify pipeline does. pool.VerifyPreVerified
	// checks none — the stack a live node runs behind its pipeline, without
	// the pipeline — and is sound exactly while no behaviour of the run
	// forges a signature; honest-only sweeps use it for speed.
	Verify pool.VerifyPolicy

	Payload    core.PayloadSource
	MaxPayload int

	// Behaviors assigns non-honest roles; unlisted parties are honest.
	Behaviors map[types.PartyID]Behavior
	// Tuning adjusts the time-dependent behaviours per party (rejoin
	// times, clock offsets, share delays); missing entries use defaults.
	Tuning map[types.PartyID]BehaviorTuning

	// KeyRand, if non-nil, replaces crypto/rand for key dealing — the
	// campaign driver passes a seeded deterministic reader so a replayed
	// run deals byte-identical keys and the trace reproduces exactly
	// across processes.
	KeyRand io.Reader

	// Trace, if non-nil, records the deterministic execution record of
	// the run: every simulator-level delivery and tick, every commit
	// (with block hash) and every rank disqualification. The campaign
	// driver byte-compares these streams to validate failure replay.
	Trace *obs.Tracer

	// Mode is the dissemination sub-layer. ICC1 parties run the overlay
	// every live node runs (node.Stack), seeded with Seed.
	Mode node.Mode
	// GossipFanout bounds each party's gossip neighbourhood (ICC1;
	// 0 = gossip.DefaultFanout(N)).
	GossipFanout int
	// BeaconOutputs lets ICC1 relays gossip one recovered, verifiable
	// beacon output per round instead of t+1 shares. Requires a beacon
	// backend with third-party-verifiable outputs (SimBeacon here).
	BeaconOutputs bool

	Adaptive   bool
	PruneDepth types.Round

	// CrashRecoveries schedules engine-level crash/recovery outages:
	// the party goes dark during [Down, Up) and must rejoin via
	// protocol-level catch-up. Applied outside the dissemination
	// sub-layer, so the gossip/RBC layer goes dark with the engine.
	// Unlike the Crash behaviour, these parties count as honest and the
	// liveness helpers wait for them to commit.
	CrashRecoveries map[types.PartyID]CrashWindow

	// WrapEngine, if set, is applied to each party's outermost engine —
	// an escape hatch for custom experiment instrumentation.
	WrapEngine func(p types.PartyID, e engine.Engine) engine.Engine
}

// CrashWindow is one scheduled outage in protocol time.
type CrashWindow struct {
	Down, Up time.Duration
}

// Cluster is a ready-to-run simulated deployment.
type Cluster struct {
	Opts    Options
	Pub     *keys.Public
	Privs   []keys.Private
	Net     *simnet.Network
	Rec     *metrics.Recorder
	Engines []*core.Engine // inner ICC engines, indexed by party
	// Log holds every engine's commits, round entries and notarized
	// rounds, as Judge reads them.
	Log *oracle.Log
}

// New builds a cluster.
func New(opts Options) (*Cluster, error) {
	if opts.N < 1 {
		return nil, fmt.Errorf("harness: invalid cluster size %d", opts.N)
	}
	if opts.Delay == nil {
		opts.Delay = simnet.Fixed{D: 10 * time.Millisecond}
	}
	if opts.DeltaBound == 0 {
		opts.DeltaBound = 100 * time.Millisecond
	}
	scheme := opts.CertScheme
	if scheme == 0 {
		scheme = aggsig.SchemeMultisig
	}
	keyRand := opts.KeyRand
	if keyRand == nil {
		keyRand = rand.Reader
	}
	pub, privs, err := keys.DealScheme(keyRand, opts.N, scheme)
	if err != nil {
		return nil, fmt.Errorf("harness: dealing keys: %w", err)
	}
	c := &Cluster{
		Opts:  opts,
		Pub:   pub,
		Privs: privs,
		Rec:   metrics.NewRecorder(opts.N),
		Log:   oracle.NewLog(opts.N),
	}
	simOpts := simnet.Options{Seed: opts.Seed, Delay: opts.Delay, Recorder: c.Rec}
	if opts.Trace != nil {
		tr := opts.Trace
		simOpts.Trace = func(ev simnet.TraceEvent) {
			e := obs.Event{VT: ev.At, Party: int(ev.Party), Round: ev.Step}
			if ev.Kind == "tick" {
				e.Kind = obs.KindSimTick
			} else {
				e.Kind = obs.KindSimDeliver
				e.Detail = fmt.Sprintf("from=%d msg=%d size=%d", ev.From, ev.Msg, ev.Size)
			}
			tr.Record(e)
		}
	}
	c.Net = simnet.New(simOpts)

	// Every RankAbuser shares one cartel roster so members recognise each
	// other's proposals.
	var cartelMembers []types.PartyID
	for i := 0; i < opts.N; i++ {
		if opts.Behaviors[types.PartyID(i)] == RankAbuser {
			cartelMembers = append(cartelMembers, types.PartyID(i))
		}
	}
	cartel := adversary.NewCollusion(cartelMembers...)

	for i := 0; i < opts.N; i++ {
		pid := types.PartyID(i)
		behavior := Honest
		if b, ok := opts.Behaviors[pid]; ok {
			behavior = b
		}
		if behavior == Crash {
			c.Engines = append(c.Engines, nil)
			c.Net.AddNode(adversary.NewSilent(pid), false)
			continue
		}
		ecfg := c.engineConfig(pid)
		overlay := node.Overlay{Fanout: opts.GossipFanout, Seed: opts.Seed}
		if opts.BeaconOutputs && opts.Mode == node.ICC1 {
			src, ok := ecfg.Beacon.(beacon.OutputSource)
			if !ok {
				return nil, fmt.Errorf("harness: party %d: beacon backend has no verifiable outputs (enable SimBeacon)", pid)
			}
			overlay.Outputs = src
		}
		inner, eng, err := node.Stack(ecfg, c.byzantine(pid, behavior, cartel), opts.Mode, overlay,
			opts.Verify == pool.VerifyPreVerified)
		if err != nil {
			return nil, fmt.Errorf("harness: party %d: %w", pid, err)
		}
		c.Engines = append(c.Engines, inner)
		if behavior == MuteRelay {
			// Outside the overlay: it is the relaying it withholds.
			if opts.Mode != node.ICC1 {
				return nil, fmt.Errorf("harness: party %d: %v needs the ICC1 overlay", pid, behavior)
			}
			eng = adversary.NewMuteRelay(eng)
		}
		if w, ok := opts.CrashRecoveries[pid]; ok {
			eng = adversary.NewCrashRecover(eng, w.Down, w.Up)
		}
		if opts.WrapEngine != nil {
			eng = opts.WrapEngine(pid, eng)
		}
		c.Net.AddNode(eng, behavior == Honest)
	}
	return c, nil
}

// byzantine is what a behaviour interposes between the engine and the
// dissemination sub-layer: nothing for Honest, and for MuteRelay, which
// sits outside the overlay.
func (c *Cluster) byzantine(pid types.PartyID, behavior Behavior, cartel *adversary.Collusion) func(*core.Engine) engine.Engine {
	opts, tuning := c.Opts, c.Opts.Tuning[pid]
	return func(inner *core.Engine) engine.Engine {
		switch behavior {
		case SilentLeader:
			return adversary.NewSilentLeader(inner)
		case LazyVoter:
			return adversary.NewLazyVoter(inner)
		case Equivocator:
			return adversary.NewEquivocator(inner, opts.N, c.Privs[pid])
		case WithholdNotar:
			return adversary.NewShareWithholder(inner, adversary.WithholdOptions{Notar: true, Until: tuning.Until})
		case WithholdFinal:
			return adversary.NewShareWithholder(inner, adversary.WithholdOptions{Final: true, Until: tuning.Until})
		case ClockSkewed:
			skew := tuning.Skew
			if skew == 0 {
				skew = 2 * opts.DeltaBound
			}
			return adversary.NewClockSkew(inner, skew)
		case RankAbuser:
			delay := tuning.ShareDelay
			if delay == 0 {
				delay = opts.DeltaBound
			}
			return adversary.NewRankAbuser(inner, cartel, delay)
		}
		return inner
	}
}

// engineConfig builds one party's core config with metric hooks wired.
func (c *Cluster) engineConfig(pid types.PartyID) core.Config {
	cfg := core.Config{
		Self:       pid,
		Keys:       c.Pub,
		Priv:       c.Privs[pid],
		DeltaBound: c.Opts.DeltaBound,
		Epsilon:    c.Opts.Epsilon,
		Payload:    c.Opts.Payload,
		MaxPayload: c.Opts.MaxPayload,
		Adaptive:   c.Opts.Adaptive,
		PruneDepth: c.Opts.PruneDepth,
		// No CatchupProvider: under the discrete-event simnet the engine
		// signs catch-up beacon shares synchronously inside handleStatus.
		// An async backfill worker would inject wall-clock goroutine
		// scheduling into an otherwise deterministic simulation; the
		// inline path keeps every run replayable. The async service is
		// exercised by the runtime tests and the catchup experiment.
		Hooks: core.Hooks{
			OnCommit: func(b *types.Block, now time.Duration) {
				c.Log.Commit(pid, b, now)
				c.Rec.Commit(b.Round, len(b.Payload), now)
				if c.Opts.Trace != nil {
					h := b.Hash()
					c.Opts.Trace.Record(obs.Event{
						VT: now, Party: int(pid), Kind: obs.KindCommitted,
						Round: uint64(b.Round), Detail: fmt.Sprintf("hash=%x", h[:8]),
					})
				}
			},
			OnRankDisqualified: func(k types.Round, rank types.Rank, now time.Duration) {
				if c.Opts.Trace != nil {
					c.Opts.Trace.Record(obs.Event{
						VT: now, Party: int(pid), Kind: obs.KindRankDisq,
						Round: uint64(k), Detail: fmt.Sprintf("rank=%d", rank),
					})
				}
			},
			OnPropose:    func(k types.Round, now time.Duration) { c.Rec.Propose(k, now) },
			OnEnterRound: func(k types.Round, now time.Duration) { c.Log.Enter(pid, k, now) },
			OnFinishRound: func(k types.Round, now time.Duration) {
				c.Log.Notarized(pid, k, now)
				c.Rec.FinishRound(k, now)
			},
		},
	}
	if c.Opts.SimBeacon {
		cfg.Beacon = beacon.NewSimulated(c.Opts.N, pid, c.Pub.GenesisSeed)
	}
	return cfg
}

// Start initialises all engines.
func (c *Cluster) Start() { c.Net.Start() }

// MinCommitted returns the shortest committed-sequence length among the
// given parties.
func (c *Cluster) MinCommitted(parties []types.PartyID) int {
	minLen := -1
	for _, p := range parties {
		if l := c.Log.Len(p); minLen < 0 || l < minLen {
			minLen = l
		}
	}
	return minLen
}

// HonestParties lists the parties with Honest behaviour.
func (c *Cluster) HonestParties() []types.PartyID {
	var out []types.PartyID
	for i := 0; i < c.Opts.N; i++ {
		if b, ok := c.Opts.Behaviors[types.PartyID(i)]; !ok || b == Honest {
			out = append(out, types.PartyID(i))
		}
	}
	return out
}

// RunUntilCommitted runs the simulation until every honest party has
// committed at least minBlocks blocks, or simulated time passes limit.
func (c *Cluster) RunUntilCommitted(minBlocks int, limit time.Duration) bool {
	honest := c.HonestParties()
	return c.Net.RunUntil(func() bool {
		return c.MinCommitted(honest) >= minBlocks
	}, limit)
}

// Judge rules on the run so far with oracle.Judge, for the properties in
// holds (zero: all four), deriving the liveness bounds from the cluster's
// own inputs: Δbnd, ε, the delay model's bound carried across the
// dissemination mode, the beacon's rankings, and as GST the last
// scheduled rejoin or recovery.
func (c *Cluster) Judge(holds oracle.Property) error {
	e := oracle.Expect{
		Holds: holds, Honest: c.HonestParties(),
		DeltaBound: c.Opts.DeltaBound, Epsilon: c.Opts.Epsilon, End: c.Net.Now(),
		Ranking: c.ranking,
	}
	for _, t := range c.Opts.Tuning {
		e.GST = max(e.GST, t.Until)
	}
	for _, w := range c.Opts.CrashRecoveries {
		e.GST = max(e.GST, w.Up)
	}
	if holds == 0 || holds&(oracle.Growth|oracle.Finality) != 0 {
		var link time.Duration // the longest the delay model delivers a message in
		switch d := c.Opts.Delay.(type) {
		case simnet.Fixed:
			link = d.D
		case simnet.Uniform:
			link = max(d.Min, d.Max)
		default:
			return fmt.Errorf("harness: delay model %T has no bound to judge %v by", c.Opts.Delay, holds)
		}
		relays := func(p types.PartyID) bool { b := c.Opts.Behaviors[p]; return b != Crash && b != MuteRelay }
		var err error
		if e.Reach, err = node.Reach(c.Opts.Mode, c.Opts.N, node.Overlay{Fanout: c.Opts.GossipFanout, Seed: c.Opts.Seed}, relays, link); err != nil {
			return fmt.Errorf("harness: %w", err)
		}
	}
	return oracle.Judge(c.Log, e)
}

// ranking is round k's rank permutation as an honest party's beacon has it.
func (c *Cluster) ranking(k types.Round) []types.PartyID {
	for _, p := range c.HonestParties() {
		if perm, ok := c.Engines[p].Ranking(k); ok {
			return perm
		}
	}
	return nil
}
