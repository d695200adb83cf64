// Package icc is a from-scratch Go implementation of the Internet
// Computer Consensus (ICC) family of atomic-broadcast protocols
// (Camenisch, Drijvers, Hanke, Pignolet, Shoup, Williams — PODC 2022):
// ICC0, ICC1 (gossip dissemination), and ICC2 (erasure-coded reliable
// broadcast), together with every substrate they depend on — threshold
// signatures and a random beacon, an artifact pool and block tree, a
// gossip overlay, Reed–Solomon coding with Merkle-committed fragments, a
// deterministic network simulator, and real in-process/TCP runtimes.
//
// This package is the high-level facade. Three entry points:
//
//   - NewLocalCluster: an n-party replicated state machine running in
//     one process on real time, with a key-value store on top — the
//     quickest way to see consensus commit client commands.
//   - NewSim: a deterministic discrete-event simulation of a cluster
//     (virtual time, seeded delays, optional Byzantine parties) — the
//     engine behind the benchmark suite and most tests.
//   - internal/... packages expose every layer individually for
//     advanced use; see DESIGN.md for the map.
package icc

import (
	"context"
	"crypto/rand"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"icc/internal/adversary"
	"icc/internal/clock"
	"icc/internal/core"
	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/gateway"
	"icc/internal/harness"
	"icc/internal/metrics"
	"icc/internal/node"
	"icc/internal/obs"
	"icc/internal/statemachine"
	"icc/internal/transport"
	"icc/internal/types"
)

// Mode selects the protocol variant.
type Mode = node.Mode

// Protocol variants.
const (
	ICC0 = node.ICC0 // blocks broadcast directly (paper §3)
	ICC1 = node.ICC1 // blocks disseminated via the gossip sub-layer
	ICC2 = node.ICC2 // blocks disseminated via erasure-coded reliable broadcast
)

// Behavior configures a party's (mis)behaviour in a LocalCluster.
type Behavior int

// Behaviours for fault-injection runs.
const (
	Honest Behavior = iota
	CrashFromBirth
	SilentLeader
	EquivocatingLeader
)

// Command is a replicated-state-machine command. (Client, Seq) must be
// unique per command; replicas apply each identity exactly once, in
// per-client Seq order.
type Command = statemachine.Command

// Operation codes for Command.Op.
const (
	OpSet    = statemachine.OpSet
	OpDelete = statemachine.OpDelete
	OpAppend = statemachine.OpAppend
)

// KV is the replicated key-value state machine each party maintains.
type KV = statemachine.KV

// Client is the typed ingress API of one replica: Submit returns a
// finality Receipt (never an ack at admission), Read serves
// read-your-writes reads gated by the Receipt's commit-index token.
type Client = gateway.Gateway

// Receipt is a submitted command's completion future; it resolves at
// finalization with the commit-index token.
type Receipt = gateway.Receipt

// Ack is a resolved Receipt: the commit-index token plus the observed
// submit-to-finalize latency.
type Ack = gateway.Ack

// ReadResult is a read served from finalized local state.
type ReadResult = gateway.ReadResult

// Typed ingress errors (compare with errors.Is).
var (
	// ErrBacklogFull: the replica's admission backlog is at capacity —
	// back off and retry; nothing was enqueued.
	ErrBacklogFull = gateway.ErrBacklogFull
	// ErrNotRunning: the cluster is not serving (before Start / after
	// Stop / crashed party).
	ErrNotRunning = gateway.ErrNotRunning
	// ErrDuplicate: an identical (client, seq) command is pending or
	// already finalized.
	ErrDuplicate = gateway.ErrDuplicate
	// ErrTooLarge: the command cannot fit in any block payload.
	ErrTooLarge = gateway.ErrTooLarge
)

// CommitEvent reports one block committed by one party.
type CommitEvent struct {
	Party   int
	Round   uint64
	Payload []byte
}

// Options configures a LocalCluster. What it does not name is fixed: an
// ICC1 overlay has gossip.DefaultFanout(n) neighbours per party and seed
// 42, a block carries at most 1024 commands and types.MaxPayloadBytes of
// payload, and /healthz reports a stall after 30 s without a commit.
type Options struct {
	// Mode selects ICC0 (default), ICC1, or ICC2.
	Mode Mode
	// DeltaBound is Δbnd, the partial-synchrony delay bound driving the
	// Δprop/Δntry delay functions (default 100 ms — generous for
	// localhost; lower it for faster rounds).
	DeltaBound time.Duration
	// Epsilon is the ε rate governor of paper eq. (2) (default 0).
	Epsilon time.Duration
	// Behaviors assigns Byzantine roles to parties (default all honest).
	Behaviors map[int]Behavior
	// MetricsAddr, when non-empty, serves the observability endpoints
	// (/metrics, /healthz, /trace, /debug/pprof) on this address from
	// construction until Stop; NewLocalCluster fails if it cannot listen
	// there. Use ":0" for an ephemeral port and MetricsAddr() for the
	// bound address.
	MetricsAddr string
	// WALDir, when non-empty, makes every party durable: each gets a
	// crash-consistent write-ahead log and checkpoint store under
	// WALDir/party-<i>/, replayed by NewLocalCluster so a restarted
	// cluster (same directory, same size and CertScheme) resumes from
	// its persisted state. The cluster's key material is kept there too,
	// in WALDir/keys.json: persisted state can only be extended by the
	// keys that signed it.
	WALDir string
	// CheckpointInterval, when positive, makes parties certify a signed
	// state checkpoint every so many finalized rounds (and enables the
	// checkpoint-transfer path for peers behind the prune horizon, with
	// pool and beacon state pruned core.DefaultPruneDepth rounds behind
	// the finalized one). Only meaningful together with WALDir.
	CheckpointInterval uint64
	// GatewayBacklog bounds each replica's admitted-but-unfinalized
	// command backlog; Client.Submit returns ErrBacklogFull at the
	// bound (0 = gateway.DefaultMaxBacklog; negative = unbounded).
	GatewayBacklog int
	// CertScheme names the aggregate-signature scheme for the cluster's
	// notarization/finalization/checkpoint certificates: "multisig"
	// (default — ed25519 multi-signatures, certificates grow ~66 B per
	// signer) or "bls" (BLS12-381 aggregates, constant-size certificates;
	// the from-scratch pairing is slow, so suit it to demonstrations and
	// small clusters). See DESIGN.md §15.
	CertScheme string
}

// stallAfter is the /healthz stall threshold: the cluster reports
// unhealthy when no party has committed for this long.
const stallAfter = 30 * time.Second

// Option mutates Options.
type Option func(*Options)

// WithMode selects the protocol variant.
func WithMode(m Mode) Option { return func(o *Options) { o.Mode = m } }

// WithDeltaBound sets Δbnd.
func WithDeltaBound(d time.Duration) Option { return func(o *Options) { o.DeltaBound = d } }

// WithEpsilon sets the ε governor: a party shares the leader's block ε
// after it enters the round, and the leader cuts that block as late as it
// can still reach a quorum by then — ε less how late the others' blocks
// reached it, 3ε/4 until it has measured them — with the commands the
// others forwarded to it meanwhile.
func WithEpsilon(d time.Duration) Option { return func(o *Options) { o.Epsilon = d } }

// WithBehavior assigns a Byzantine role to a party.
func WithBehavior(party int, b Behavior) Option {
	return func(o *Options) {
		if o.Behaviors == nil {
			o.Behaviors = make(map[int]Behavior)
		}
		o.Behaviors[party] = b
	}
}

// WithMetricsAddr serves the observability endpoints on addr until Stop.
func WithMetricsAddr(addr string) Option { return func(o *Options) { o.MetricsAddr = addr } }

// WithWALDir makes every party durable under dir (one subdirectory per
// party): artifacts are WAL-logged with group-commit fsync before any
// signature leaves the process, and a cluster rebuilt on the same
// directory resumes from its persisted rounds.
func WithWALDir(dir string) Option { return func(o *Options) { o.WALDir = dir } }

// WithCheckpointInterval makes parties certify a signed state checkpoint
// every n finalized rounds (requires WithWALDir).
func WithCheckpointInterval(n uint64) Option {
	return func(o *Options) { o.CheckpointInterval = n }
}

// WithGatewayBacklog bounds each replica's admission backlog
// (0 = default 4096; negative = unbounded).
func WithGatewayBacklog(n int) Option { return func(o *Options) { o.GatewayBacklog = n } }

// WithCertScheme selects the certificate aggregate-signature scheme:
// "multisig" (default) or "bls".
func WithCertScheme(scheme string) Option { return func(o *Options) { o.CertScheme = scheme } }

// validate rejects nonsensical option values up front, so misconfigured
// clusters fail loudly at construction instead of hanging at runtime.
func (o Options) validate(n int) error {
	switch o.Mode {
	case ICC0, ICC1, ICC2:
	default:
		return fmt.Errorf("icc: unknown mode %d", o.Mode)
	}
	if o.DeltaBound < 0 {
		return fmt.Errorf("icc: negative DeltaBound %v", o.DeltaBound)
	}
	if o.Epsilon < 0 {
		return fmt.Errorf("icc: negative Epsilon %v", o.Epsilon)
	}
	if o.CheckpointInterval > 0 && o.WALDir == "" {
		return fmt.Errorf("icc: CheckpointInterval requires WALDir")
	}
	if _, err := aggsig.ParseSchemeID(o.CertScheme); err != nil {
		return fmt.Errorf("icc: %w", err)
	}
	for p := range o.Behaviors {
		if p < 0 || p >= n {
			return fmt.Errorf("icc: behavior assigned to party %d, cluster has %d parties", p, n)
		}
	}
	return nil
}

// LocalCluster is an n-party ICC deployment inside one process, running
// on wall-clock time over an in-process transport, with a replicated
// key-value store applied on top of the committed chain. Its live
// behaviour is observable through Metrics(), Trace(), and — with
// WithMetricsAddr — the HTTP endpoints every real node exposes.
type LocalCluster struct {
	hub   *transport.Inproc
	nodes []*node.Node    // nil for a CrashFromBirth party
	reps  []*node.Replica // every party, crashed ones included

	reg    *obs.Registry
	tracer *obs.Tracer
	health *obs.HealthTracker
	stats  *metrics.TransportStats
	srv    *obs.Server

	mu           sync.Mutex
	onCommit     func(CommitEvent)
	committed    []int
	commitSignal chan struct{} // closed and replaced on every commit
	started      bool
	stopped      bool
}

// NewLocalCluster deals key material and assembles an n-party cluster.
// Call Start to run it and Stop to shut it down.
func NewLocalCluster(n int, opts ...Option) (*LocalCluster, error) {
	if n < 1 {
		return nil, fmt.Errorf("icc: invalid cluster size %d", n)
	}
	var o Options
	for _, apply := range opts {
		apply(&o)
	}
	if err := o.validate(n); err != nil {
		return nil, err
	}
	if o.DeltaBound == 0 {
		o.DeltaBound = 100 * time.Millisecond
	}
	scheme, _ := aggsig.ParseSchemeID(o.CertScheme) // validated above
	pub, privs, err := clusterKeys(o.WALDir, n, scheme)
	if err != nil {
		return nil, fmt.Errorf("icc: %w", err)
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	c := &LocalCluster{
		hub:          transport.NewInproc(n),
		nodes:        make([]*node.Node, n),
		reps:         make([]*node.Replica, n),
		committed:    make([]int, n),
		commitSignal: make(chan struct{}),
		reg:          reg,
		tracer:       tracer,
		health:       obs.NewHealthTracker(),
		stats:        metrics.NewTransportStatsOn(reg, tracer),
	}
	c.hub.SetStats(c.stats)
	// Checkpoints are what let a peer behind the prune horizon catch up,
	// so retention is bounded exactly when they are on.
	var pruneDepth types.Round
	if o.CheckpointInterval > 0 {
		pruneDepth = core.DefaultPruneDepth
	}
	clk := clock.NewWall()
	for i := 0; i < n; i++ {
		i := i
		c.reps[i] = node.NewReplica(gateway.Options{Party: i, MaxBacklog: o.GatewayBacklog, Registry: reg})
		if o.Behaviors[i] == CrashFromBirth {
			continue // no node: the replica's gateway never starts
		}
		cfg := node.Config{
			Self:               types.PartyID(i),
			Keys:               pub,
			Priv:               privs[i],
			Endpoint:           c.hub.Endpoint(types.PartyID(i)),
			Clock:              clk,
			Mode:               o.Mode,
			DeltaBound:         o.DeltaBound,
			Epsilon:            o.Epsilon,
			Replica:            c.reps[i],
			Hooks:              core.Hooks{OnCommit: func(b *types.Block, _ time.Duration) { c.commit(i, b) }},
			CheckpointInterval: types.Round(o.CheckpointInterval),
			PruneDepth:         pruneDepth,
			// Every party reports into the shared registry and tracer:
			// families register idempotently, counters aggregate.
			Registry: reg,
			Tracer:   tracer,
			Health:   c.health,
			Stats:    c.stats,
		}
		if o.WALDir != "" {
			cfg.Dir = filepath.Join(o.WALDir, fmt.Sprintf("party-%d", i))
		}
		switch o.Behaviors[i] {
		case SilentLeader:
			cfg.Wrap = func(e *core.Engine) engine.Engine { return adversary.NewSilentLeader(e) }
		case EquivocatingLeader:
			cfg.Wrap = func(e *core.Engine) engine.Engine { return adversary.NewEquivocator(e, n, privs[i]) }
		}
		if c.nodes[i], err = node.New(cfg); err != nil {
			c.Stop() // release what parties < i already hold
			return nil, fmt.Errorf("icc: %w", err)
		}
	}
	if o.MetricsAddr != "" {
		gws := make([]*gateway.Gateway, n)
		for i, r := range c.reps {
			gws[i] = r.Gateway
		}
		if c.srv, err = obs.Serve(o.MetricsAddr, obs.HandlerOptions{
			Registry: reg,
			Tracer:   tracer,
			Health:   func() obs.Health { return c.health.Health(stallAfter) },
			Ingress:  gateway.NewHandler(gws, 0),
		}); err != nil {
			c.Stop()
			return nil, fmt.Errorf("icc: metrics server: %w", err) // the listen error names the address
		}
	}
	return c, nil
}

// keyFile is a durable cluster's key material, kept beside the state it
// signed.
type keyFile struct {
	Public  *keys.Public   `json:"public"`
	Parties []keys.Private `json:"parties"`
}

// clusterKeys deals key material for n parties — or, for a durable
// cluster, loads what the first run on the directory dealt: the WAL and
// checkpoints there carry those keys' signatures and beacon shares, and
// a cluster holding any others replays them but can never extend them.
func clusterKeys(dir string, n int, scheme aggsig.SchemeID) (*keys.Public, []keys.Private, error) {
	path := filepath.Join(dir, "keys.json")
	if dir != "" {
		raw, err := os.ReadFile(path)
		if err == nil {
			var kf keyFile
			if err := json.Unmarshal(raw, &kf); err != nil {
				return nil, nil, fmt.Errorf("parsing %s: %w", path, err)
			}
			if kf.Public == nil || kf.Public.N != n || len(kf.Parties) != n || kf.Public.CertScheme() != scheme {
				return nil, nil, fmt.Errorf("%s holds another cluster's keys, not %d parties on %s certificates", path, n, scheme)
			}
			for i := range kf.Parties {
				if err := kf.Public.CheckPrivate(&kf.Parties[i]); err != nil {
					return nil, nil, fmt.Errorf("%s: %w", path, err)
				}
			}
			return kf.Public, kf.Parties, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return nil, nil, err
		}
	}
	pub, privs, err := keys.DealScheme(rand.Reader, n, scheme)
	if err != nil {
		return nil, nil, fmt.Errorf("dealing keys: %w", err)
	}
	if dir != "" {
		raw, err := json.Marshal(keyFile{Public: pub, Parties: privs})
		if err != nil {
			return nil, nil, fmt.Errorf("encoding keys: %w", err)
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, nil, err
		}
		if err := os.WriteFile(path, raw, 0o600); err != nil {
			return nil, nil, err
		}
	}
	return pub, privs, nil
}

// commit counts a block party i committed (its replica has applied it
// by now), wakes commit waiters, and fires the user callback.
func (c *LocalCluster) commit(i int, b *types.Block) {
	c.mu.Lock()
	c.committed[i]++
	h := c.onCommit
	// Broadcast to WaitForCommitsCtx waiters: close the current signal
	// channel and install a fresh one.
	close(c.commitSignal)
	c.commitSignal = make(chan struct{})
	c.mu.Unlock()
	if h != nil {
		h(CommitEvent{Party: i, Round: uint64(b.Round), Payload: b.Payload})
	}
}

// OnCommit registers a callback fired for every block each party
// commits. Must be called before Start. The callback runs on engine
// goroutines: keep it fast and thread-safe.
func (c *LocalCluster) OnCommit(h func(CommitEvent)) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.onCommit = h
}

// Start launches all parties. Idempotent; a no-op after Stop.
func (c *LocalCluster) Start() {
	c.mu.Lock()
	if c.started || c.stopped {
		c.mu.Unlock()
		return
	}
	c.started = true
	c.mu.Unlock()
	for _, nd := range c.nodes {
		if nd != nil {
			nd.Start()
		}
	}
}

// Stop shuts the cluster down. Idempotent, and safe to call before
// Start (the cluster then refuses to start).
func (c *LocalCluster) Stop() {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return
	}
	c.stopped = true
	srv := c.srv
	c.srv = nil
	c.mu.Unlock()
	for _, nd := range c.nodes {
		if nd != nil {
			nd.Stop()
		}
	}
	c.hub.Close()
	_ = srv.Close()
}

// MetricsAddr returns the bound observability address: "" unless the
// cluster was built WithMetricsAddr; "" again after Stop.
func (c *LocalCluster) MetricsAddr() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.srv == nil {
		return ""
	}
	return c.srv.Addr()
}

// Metrics returns a point-in-time snapshot of every metric the cluster's
// parties and transport have recorded — the same families /metrics
// exposes in Prometheus format.
func (c *LocalCluster) Metrics() MetricsSnapshot { return c.reg.Snapshot() }

// Trace returns the retained protocol event history, oldest first: round
// entries, proposals, shares, commits, resyncs, transport faults.
func (c *LocalCluster) Trace() []TraceEvent { return c.tracer.Events() }

// Client returns party p's ingress API: typed-error Submit with a
// finality Receipt, and read-your-writes Read gated by the Receipt's
// commit-index token. The client serves between Start and Stop
// (ErrNotRunning otherwise); a CrashFromBirth party's client never
// serves.
func (c *LocalCluster) Client(party int) *Client { return c.reps[party].Gateway }

// KV returns party p's replicated key-value store.
func (c *LocalCluster) KV(party int) *KV { return c.reps[party].KV }

// CommittedBlocks returns how many blocks party p has committed.
func (c *LocalCluster) CommittedBlocks(party int) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.committed[party]
}

// WaitForCommitsCtx blocks until every live party has committed at
// least min blocks or ctx is done, whichever comes first. It is driven
// by commit notifications (no polling): each commit wakes it exactly
// once to re-check the threshold.
func (c *LocalCluster) WaitForCommitsCtx(ctx context.Context, min int) error {
	for {
		c.mu.Lock()
		done := c.minCommittedLocked() >= min
		signal := c.commitSignal
		c.mu.Unlock()
		if done {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-signal:
		}
	}
}

// WaitForCommits blocks until every live party has committed at least
// min blocks, or the timeout elapses. A thin wrapper over
// WaitForCommitsCtx.
func (c *LocalCluster) WaitForCommits(min int, timeout time.Duration) bool {
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	return c.WaitForCommitsCtx(ctx, min) == nil
}

func (c *LocalCluster) minCommittedLocked() int {
	minC := -1
	for i, nd := range c.nodes {
		if nd == nil {
			continue // crashed party
		}
		if minC < 0 || c.committed[i] < minC {
			minC = c.committed[i]
		}
	}
	return minC
}

// MetricsSnapshot is the map view of the cluster's metrics registry:
// metric name (optionally "{label=\"value\"}"-suffixed) to
// value. Histograms appear as name_count and name_sum entries.
type MetricsSnapshot = obs.Snapshot

// TraceEvent is one protocol event from the bounded trace ring.
type TraceEvent = obs.Event

// Sim re-exports the deterministic simulation harness: virtual time,
// seeded delay models, Byzantine behaviours, and byte-accurate metrics.
// See the harness package for the full option surface.
type Sim = harness.Cluster

// SimOptions configures a simulation.
type SimOptions = harness.Options

// NewSim builds a deterministic cluster simulation.
func NewSim(opts SimOptions) (*Sim, error) { return harness.New(opts) }
