// Package node assembles the live stack around one consensus engine.
// The paper's ICC0, ICC1 and ICC2 differ only in how blocks are
// disseminated; everything else a running party needs — a beacon shared
// with the catch-up signer, the engine, an optional Byzantine wrapper,
// the gossip or reliable-broadcast sub-layer, the event loop with its
// verification pipeline, the write-ahead log and checkpoint store, the
// client gateway — is the same, and is wired here once. The icc facade,
// cmd/iccnode, the examples and the live experiments are callers;
// the simulation harness builds its parties with Stack, the half of New
// below the event loop; bench/cluster.go is the one deliberate
// hand-mirror, and `make assembly-check` keeps further copies from
// growing back. DESIGN.md "Node assembly" lists the invariants New
// keeps and where each constant came from.
package node

import (
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"icc/internal/backfill"
	"icc/internal/beacon"
	"icc/internal/checkpoint"
	"icc/internal/clock"
	"icc/internal/core"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/gateway"
	"icc/internal/gossip"
	"icc/internal/metrics"
	"icc/internal/obs"
	"icc/internal/pool"
	"icc/internal/rbc"
	"icc/internal/runtime"
	"icc/internal/statemachine"
	"icc/internal/transport"
	"icc/internal/types"
	"icc/internal/verify"
	"icc/internal/wal"
)

// Mode selects the dissemination sub-layer under the engine.
type Mode int

// Protocol variants.
const (
	ICC0 Mode = iota // blocks broadcast directly (paper §3)
	ICC1             // blocks disseminated via the gossip sub-layer
	ICC2             // blocks disseminated via erasure-coded reliable broadcast
)

var modeNames = [...]string{ICC0: "ICC0", ICC1: "ICC1", ICC2: "ICC2"}

// String is the variant's name as tables and trace headers spell it.
func (m Mode) String() string {
	if m < 0 || int(m) >= len(modeNames) {
		return fmt.Sprintf("Mode(%d)", int(m))
	}
	return modeNames[m]
}

// ParseMode inverts String, ignoring case (flags say icc1).
func ParseMode(s string) (Mode, error) {
	for m, name := range modeNames {
		if strings.EqualFold(s, name) {
			return Mode(m), nil
		}
	}
	return 0, fmt.Errorf("unknown mode %q (want icc0, icc1 or icc2)", s)
}

// The ICC1 overlay every party runs, live or simulated, as E13/E14
// settled it: shares coalesce into ShareBundle frames on a 2 ms window
// that an idle party skips, and a relay holding a quorum forwards the
// certificate instead.
const shareBatchWindow = 2 * time.Millisecond

// Overlay is what may differ between two clusters' ICC1 overlays; all
// parties of one cluster must agree on Fanout and Seed.
type Overlay struct {
	Fanout   int // 0 = gossip.DefaultFanout(n)
	Seed     int64
	Registry *obs.Registry
}

// Stack builds a party from the event loop down: the engine, the
// Byzantine behaviour wrap interposes (nil for none), and the mode's
// dissemination sub-layer around both. It returns the engine itself and
// the outermost layer, the one to drive. verified says whether
// signatures were checked before a message reaches the stack (a verify
// pipeline in front, or a simulation in which nothing forges): then the
// pool admits its input unchecked and gossip relays count and combine
// shares on trust; otherwise both verify for themselves. Where the
// checks live is this one decision, made here and nowhere else.
func Stack(ecfg core.Config, wrap func(*core.Engine) engine.Engine, mode Mode, ov Overlay, verified bool) (*core.Engine, engine.Engine, error) {
	ecfg.Pool.Policy = pool.VerifyFull
	if verified {
		ecfg.Pool.Policy = pool.VerifyPreVerified
	}
	inner := core.NewEngine(ecfg)
	var eng engine.Engine = inner
	if wrap != nil {
		eng = wrap(inner)
	}
	n := ecfg.Keys.N
	switch mode {
	case ICC0:
	case ICC1:
		if ov.Fanout <= 0 {
			ov.Fanout = gossip.DefaultFanout(n)
		}
		g, err := gossip.New(gossip.Config{
			Self:             ecfg.Self,
			N:                n,
			Fanout:           ov.Fanout,
			Seed:             ov.Seed,
			ShareBatchWindow: shareBatchWindow,
			AdaptiveBatch:    true,
			Aggregate:        true,
			TrustShares:      verified,
			Keys:             ecfg.Keys,
			Registry:         ov.Registry,
		}, eng)
		if err != nil {
			return nil, nil, err
		}
		eng = g
	case ICC2:
		eng = rbc.Wrap(rbc.Config{Self: ecfg.Self, N: n}, eng)
	default:
		return nil, nil, fmt.Errorf("unknown mode %d", mode)
	}
	return inner, eng, nil
}

// Reach is the longest a message takes under mode to reach every party
// for which relays holds, no link taking longer than link: one link under
// ICC0, two under ICC2 (fragment, then echo), gossip.Config.Reach under ICC1.
func Reach(mode Mode, n int, ov Overlay, relays func(types.PartyID) bool, link time.Duration) (time.Duration, error) {
	switch mode {
	case ICC0:
		return link, nil
	case ICC1:
		if ov.Fanout <= 0 {
			ov.Fanout = gossip.DefaultFanout(n)
		}
		return gossip.Config{N: n, Fanout: ov.Fanout, Seed: ov.Seed, ShareBatchWindow: shareBatchWindow}.Reach(relays, link)
	case ICC2:
		return 2 * link, nil
	}
	return 0, fmt.Errorf("unknown mode %d", mode)
}

// Config is everything that differs between two live nodes. A value has
// a field here only because two callers at the commit that introduced
// this package passed different ones; the rest are constants in New.
type Config struct {
	Self types.PartyID
	Keys *keys.Public
	Priv keys.Private
	// Endpoint is the party's attachment to the transport (in-process
	// hub, TCP, or either behind transport.Faulty). The backfill worker
	// sends through it too, so injected faults hit catch-up traffic.
	// Stop closes it.
	Endpoint transport.Endpoint
	// Clock is shared by the parties of a one-process cluster; nil gives
	// the node a wall clock of its own.
	Clock clock.Clock

	Mode       Mode
	DeltaBound time.Duration // Δbnd (0 = core's 100 ms)
	Epsilon    time.Duration // ε governor of eq. (2)

	// Beacon, when nil, is the DLEQ threshold beacon built from the key
	// material, its own-share cache at beacon.DefaultShareCacheSize. A
	// caller that passes a Beacon configures its cache itself.
	Beacon beacon.Source

	// Replica, when set, is the state machine on top: its queue feeds
	// proposals, commits are applied to it before Hooks.OnCommit runs,
	// checkpoints snapshot and restore its KV, and its gateway starts
	// and stops with the node. Nil proposes empty blocks.
	Replica *Replica
	Hooks   core.Hooks
	// Wrap, when set, interposes a Byzantine behaviour (internal/adversary)
	// between the engine and the dissemination layer.
	Wrap func(*core.Engine) engine.Engine

	// Dir, when non-empty, makes the node durable: a write-ahead log
	// under Dir/wal and a checkpoint store under Dir/checkpoints, both
	// replayed by New so a node rebuilt on the same directory resumes
	// where it stopped. CheckpointInterval (rounds between certified
	// checkpoints, 0 = none) is ignored without Dir: there is nothing
	// durable to certify.
	Dir                string
	CheckpointInterval types.Round
	// PruneDepth bounds pool and beacon retention behind the finalized
	// round (0 = keep everything).
	PruneDepth types.Round

	// GossipFanout and GossipSeed pin the ICC1 overlay (0 =
	// gossip.DefaultFanout(n) and seed 42). All parties of a cluster
	// must agree on both. Only E13 sets them (8 and 1313); the facade
	// and iccnode run the defaults.
	GossipFanout int
	GossipSeed   int64

	// Registry, Tracer, Health and Stats are shared by the parties of a
	// one-process cluster. A nil Registry runs uninstrumented.
	Registry *obs.Registry
	Tracer   *obs.Tracer
	Health   *obs.HealthTracker
	Stats    *metrics.TransportStats
}

// Node is one assembled party: build with New, run with Start, end with
// Stop or Kill.
type Node struct {
	// Engine is the consensus engine inside the wrappers, for
	// FinalizedRound and ResyncLost. Its other methods belong to the
	// event loop once the node has started.
	Engine *core.Engine

	peers   []types.PartyID
	runner  *runtime.Runner
	bfw     *backfill.Worker
	wal     *wal.Log
	store   *checkpoint.Store
	ep      transport.Endpoint
	replica *Replica
	once    sync.Once
}

// New assembles a node. On error everything it opened or started is
// closed again; the endpoint, which the caller opened, is left alone.
func New(cfg Config) (_ *Node, err error) {
	self, n := cfg.Self, cfg.Keys.N
	nd := &Node{ep: cfg.Endpoint, replica: cfg.Replica}
	defer func() {
		if err != nil {
			if nd.bfw != nil {
				nd.bfw.Close()
			}
			_ = nd.wal.Close() // the construction error is the one to report
			nd.store.Close()
		}
	}()

	interval := cfg.CheckpointInterval
	if cfg.Dir == "" {
		interval = 0
	} else {
		nd.wal, err = wal.Open(filepath.Join(cfg.Dir, "wal"), wal.Options{Registry: cfg.Registry})
		if err != nil {
			return nil, fmt.Errorf("node: party %d wal: %w", self, err)
		}
		nd.store, err = checkpoint.OpenStore(filepath.Join(cfg.Dir, "checkpoints"), checkpoint.StoreOptions{Registry: cfg.Registry})
		if err != nil {
			return nil, fmt.Errorf("node: party %d checkpoint store: %w", self, err)
		}
	}

	// One beacon instance serves the engine loop and the backfill worker
	// (it is safe for concurrent use), so the own-share cache the engine
	// fills makes catch-up shares for normally-traversed rounds free.
	bcn := cfg.Beacon
	if bcn == nil {
		bcn = beacon.New(cfg.Keys.Beacon, cfg.Priv.Beacon, self, cfg.Keys.GenesisSeed)
	}
	nd.bfw = backfill.New(bcn, cfg.Endpoint, backfill.Options{Registry: cfg.Registry, Checkpoints: nd.store})

	var ob *obs.Observer
	if cfg.Registry != nil {
		ob = obs.NewObserver(obs.ObserverConfig{
			Registry: cfg.Registry, Tracer: cfg.Tracer, Party: int(self), Health: cfg.Health,
		})
	}

	ecfg := core.Config{
		Self:               self,
		Keys:               cfg.Keys,
		Priv:               cfg.Priv,
		Beacon:             bcn,
		Catchup:            nd.bfw,
		DeltaBound:         cfg.DeltaBound,
		Epsilon:            cfg.Epsilon,
		PruneDepth:         cfg.PruneDepth,
		WAL:                nd.wal,
		Checkpoints:        nd.store,
		CheckpointInterval: interval,
	}
	hooks := cfg.Hooks
	if rep := cfg.Replica; rep != nil {
		ecfg.Payload = rep.Queue
		ecfg.StateSnapshot = rep.KV.Snapshot
		ecfg.StateRestore = rep.KV.Restore
		then := hooks.OnCommit
		hooks.OnCommit = func(b *types.Block, now time.Duration) {
			rep.commit(b)
			if then != nil {
				then(b, now)
			}
		}
	}
	ecfg.Hooks = core.ObservedHooks(ob, hooks)
	overlay := Overlay{Fanout: cfg.GossipFanout, Seed: cfg.GossipSeed, Registry: cfg.Registry}
	if overlay.Seed == 0 {
		overlay.Seed = 42
	}
	// The verify pipeline in front delivers the stack's input verified.
	var eng engine.Engine
	nd.Engine, eng, err = Stack(ecfg, cfg.Wrap, cfg.Mode, overlay, true)
	if err != nil {
		return nil, fmt.Errorf("node: party %d: %w", self, err)
	}
	if g, ok := eng.(*gossip.Engine); ok {
		nd.peers = g.Peers()
	}
	if nd.wal != nil {
		// Replay the persisted rounds (rebuilding the replica through the
		// commit hook) before the runner delivers any traffic.
		if _, err = nd.Engine.Recover(); err != nil {
			return nil, fmt.Errorf("node: party %d recover: %w", self, err)
		}
	}

	clk := cfg.Clock
	if clk == nil {
		clk = clock.NewWall()
	}
	nd.runner = runtime.NewRunner(eng, cfg.Endpoint, clk, n)
	nd.runner.SetTransportStats(cfg.Stats)
	nd.runner.SetObserver(ob)
	nd.runner.SetBackfillWorker(nd.bfw)
	// Last, because nothing after it can fail: the pipeline's workers
	// start in its constructor.
	nd.runner.SetVerifyPipeline(verify.New(pool.NewVerifier(cfg.Keys, pool.VerifyFull),
		verify.Options{Registry: cfg.Registry}))
	return nd, nil
}

// Peers returns the party's overlay neighbours under ICC1, nil otherwise.
// It is diagnostic: nothing in the node reads it, and a test compares it
// with the neighbours of the simulated party built from the same keys.
func (nd *Node) Peers() []types.PartyID { return nd.peers }

// Start opens the gateway and launches the event loop.
func (nd *Node) Start() {
	if nd.replica != nil {
		nd.replica.Gateway.Start()
	}
	nd.runner.Start()
}

// Stop shuts the node down and returns once its goroutines have exited:
// the gateway first, so in-flight receipts resolve with ErrNotRunning
// instead of waiting on a node that will never commit again; then the
// event loop with its verify pipeline and backfill worker; then the WAL
// and checkpoint store, so the flush captures everything the loop
// appended; the endpoint last. Idempotent, and safe on a node that was
// never started.
func (nd *Node) Stop() { nd.stop(false) }

// Kill stops the node the way kill -9 would: the WAL abandons whatever
// it had not yet synced instead of flushing it.
func (nd *Node) Kill() { nd.stop(true) }

func (nd *Node) stop(crash bool) {
	nd.once.Do(func() {
		if nd.replica != nil {
			nd.replica.Gateway.Stop()
		}
		nd.runner.Stop()
		if crash {
			nd.wal.Crash()
		} else {
			// Nothing to do about a close error at shutdown: a log that
			// could not sync has already gone degraded and said so.
			_ = nd.wal.Close()
		}
		nd.store.Close()
		_ = nd.ep.Close() // likewise: the node is gone either way
	})
}

// Replica is the replicated state machine one party runs on top of
// consensus: the queue its proposals are cut from, the KV committed
// payloads are applied to, and the client gateway in front of both.
type Replica struct {
	Queue   *statemachine.Queue
	KV      *statemachine.KV
	Gateway *gateway.Gateway
}

// NewReplica builds an empty replica. A party that runs no node (crashed
// from birth) can still hold one: its gateway never starts, so clients
// get ErrNotRunning instead of commands rotting in a dead queue.
func NewReplica(opts gateway.Options) *Replica {
	q, kv := statemachine.NewQueue(), statemachine.NewKV()
	return &Replica{Queue: q, KV: kv, Gateway: gateway.New(q, kv, opts)}
}

// commit applies one committed block. The order is the contract: the KV
// first, so a reader released by the advancing commit index sees the
// write; the queue trim before the gateway acknowledges, so an
// acknowledged command is never proposed again.
func (r *Replica) commit(b *types.Block) {
	_ = r.KV.Apply(b.Payload) // a payload that does not decode changes nothing, on every replica alike
	r.Queue.MarkCommitted(b.Payload)
	r.Gateway.ObserveCommit(uint64(b.Round), b.Payload)
}
