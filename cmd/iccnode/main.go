// Command iccnode runs one ICC consensus party over TCP. Point n
// processes (one per party) at the same key directory (produced by
// cmd/icckeygen) and peer list, and they form a Byzantine fault-tolerant
// replicated state machine: each node proposes synthetic load (or none),
// and prints every block it commits.
//
// Example 4-node cluster on localhost:
//
//	icckeygen -n 4 -dir /tmp/keys
//	for i in 0 1 2 3; do
//	  iccnode -keys /tmp/keys -self $i \
//	    -peers 127.0.0.1:9000,127.0.0.1:9001,127.0.0.1:9002,127.0.0.1:9003 &
//	done
//
// Add -mode icc1 to every node to disseminate over the gossip overlay
// (ICC1), or -mode icc2 for erasure-coded reliable broadcast (ICC2).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"icc/internal/core"
	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/keys"
	"icc/internal/gateway"
	"icc/internal/metrics"
	"icc/internal/node"
	"icc/internal/obs"
	"icc/internal/statemachine"
	"icc/internal/transport"
	"icc/internal/types"
)

func main() {
	var (
		keyDir     = flag.String("keys", "icc-keys", "key directory from icckeygen")
		certScheme = flag.String("cert-scheme", "", "expected certificate scheme of the key material (multisig or bls); empty accepts whatever the key files declare")
		self       = flag.Int("self", -1, "this node's party index")
		peers      = flag.String("peers", "", "comma-separated host:port list, one per party, in index order")
		mode       = flag.String("mode", "icc0", "block dissemination: icc0 (direct broadcast), icc1 (gossip overlay) or icc2 (erasure-coded reliable broadcast); the same on every node")
		bound      = flag.Duration("bound", 200*time.Millisecond, "partial-synchrony bound Δbnd")
		epsilon    = flag.Duration("epsilon", 500*time.Millisecond, "ε governor (block-rate limiter)")
		load       = flag.Int("load", 10, "synthetic commands submitted per second (0 = none)")
		quiet      = flag.Bool("quiet", false, "suppress per-block output")

		// Verification pipeline: inbound signatures are checked on a
		// worker pool so the sequential engine handles pre-verified input.
		verifyWorkers = flag.Int("verify-workers", 0, "verification worker pool size (0 = GOMAXPROCS, negative = verify inline on the engine loop)")

		// Catch-up backfill: beacon shares for lagging peers that miss the
		// own-share cache are signed off the engine loop.
		shareCache = flag.Int("share-cache", 0, "beacon own-share cache capacity (0 = default 1024, negative = disabled)")

		// Durability: a crash-consistent write-ahead log plus periodic
		// signed checkpoints. Restarting with the same -wal-dir resumes
		// from the persisted rounds instead of round 1.
		walDir       = flag.String("wal-dir", "", "persist consensus state under this directory (empty = in-memory only)")
		ckptInterval = flag.Uint64("checkpoint-interval", 64, "certify a signed state checkpoint every N finalized rounds (0 = disabled; requires -wal-dir)")

		// Client ingress: bounds for the gateway backlog. The HTTP API
		// (/v1/submit /v1/read /v1/wait) shares the -metrics-addr server.
		gatewayBacklog = flag.Int("gateway-backlog", 0, "admitted-but-unfinalized command bound; submits are rejected (HTTP 429) at the bound (0 = default 4096, negative = unbounded)")

		// Observability: one HTTP server exposing Prometheus metrics, a
		// commit-recency health probe, the protocol event trace, and pprof.
		metricsAddr = flag.String("metrics-addr", "", "serve /metrics, /healthz, /trace, /debug/pprof and the /v1 client API on this address (empty = disabled)")
		stallAfter  = flag.Duration("stall-after", 30*time.Second, "report unhealthy when no block committed for this long")
		traceCap    = flag.Int("trace-cap", obs.DefaultTraceCap, "protocol event ring capacity (/trace)")

		// Chaos flags: wrap the transport in a fault-injection layer, for
		// exercising a live cluster's robustness from the command line.
		chaosDrop  = flag.Float64("chaos-drop", 0, "probability of dropping an outbound message")
		chaosDup   = flag.Float64("chaos-dup", 0, "probability of duplicating an outbound message")
		chaosDelay = flag.Float64("chaos-delay", 0, "probability of delaying an outbound message")
		chaosMax   = flag.Duration("chaos-max-delay", 50*time.Millisecond, "upper bound for injected delays")
		chaosUntil = flag.Duration("chaos-until", 0, "confine chaos to the first duration of the run (0 = forever)")
		chaosSeed  = flag.Int64("chaos-seed", 1, "seed for the deterministic fault schedule")
	)
	flag.Parse()
	cfg := nodeConfig{
		keyDir:        *keyDir,
		certScheme:    *certScheme,
		self:          *self,
		peers:         *peers,
		mode:          *mode,
		bound:         *bound,
		epsilon:       *epsilon,
		load:          *load,
		quiet:         *quiet,
		gwBacklog:     *gatewayBacklog,
		metricsAddr:   *metricsAddr,
		stallAfter:    *stallAfter,
		traceCap:      *traceCap,
		verifyWorkers: *verifyWorkers,
		shareCache:    *shareCache,
		walDir:        *walDir,
		ckptInterval:  *ckptInterval,
		plan: transport.FaultPlan{
			Seed:        *chaosSeed,
			DropRate:    *chaosDrop,
			DupRate:     *chaosDup,
			DelayRate:   *chaosDelay,
			MaxDelay:    *chaosMax,
			FaultsUntil: *chaosUntil,
		},
	}
	if err := run(cfg); err != nil {
		fmt.Fprintf(os.Stderr, "iccnode: %v\n", err)
		os.Exit(1)
	}
}

// nodeConfig carries the parsed command line.
type nodeConfig struct {
	keyDir        string
	certScheme    string
	self          int
	peers         string
	mode          string
	bound         time.Duration
	epsilon       time.Duration
	load          int
	quiet         bool
	gwBacklog     int
	metricsAddr   string
	stallAfter    time.Duration
	traceCap      int
	verifyWorkers int
	shareCache    int
	walDir        string
	ckptInterval  uint64
	plan          transport.FaultPlan
}

// chaosEnabled reports whether the plan injects any fault at all.
func chaosEnabled(p transport.FaultPlan) bool {
	return p.DropRate > 0 || p.DupRate > 0 || p.DelayRate > 0 || len(p.Partitions) > 0
}

func run(cfg nodeConfig) error {
	mode, err := node.ParseMode(cfg.mode)
	if err != nil {
		return fmt.Errorf("-mode: %w", err)
	}
	pub := &keys.Public{}
	if err := readJSON(filepath.Join(cfg.keyDir, "public.json"), pub); err != nil {
		return err
	}
	self := cfg.self
	if self < 0 || self >= pub.N {
		return fmt.Errorf("-self %d out of range for %d-party key material", self, pub.N)
	}
	priv := &keys.Private{}
	if err := readJSON(filepath.Join(cfg.keyDir, fmt.Sprintf("party%d.json", self)), priv); err != nil {
		return err
	}
	if cfg.certScheme != "" {
		want, err := aggsig.ParseSchemeID(cfg.certScheme)
		if err != nil {
			return err
		}
		if got := pub.CertScheme(); got != want {
			return fmt.Errorf("-cert-scheme %s, but key material in %s was dealt for %s", want, cfg.keyDir, got)
		}
	}
	addrs := strings.Split(cfg.peers, ",")
	if len(addrs) != pub.N {
		return fmt.Errorf("-peers lists %d addresses, key material has %d parties", len(addrs), pub.N)
	}
	addrMap := make(map[types.PartyID]string, pub.N)
	for i, a := range addrs {
		addrMap[types.PartyID(i)] = strings.TrimSpace(a)
	}

	// One registry + tracer for the whole node: engine phases, event
	// loop, and transport all land in the same exposition.
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(cfg.traceCap)
	health := obs.NewHealthTracker()
	stats := metrics.NewTransportStatsOn(reg, tracer)
	tcp, err := transport.NewTCPWithOptions(types.PartyID(self), addrMap, transport.TCPOptions{Stats: stats})
	if err != nil {
		return err
	}
	var ep transport.Endpoint = tcp
	var faulty *transport.Faulty
	plan := cfg.plan
	if chaosEnabled(plan) {
		faulty = transport.NewFaulty(tcp, types.PartyID(self), plan)
		ep = faulty
		fmt.Printf("chaos enabled: drop=%.2f dup=%.2f delay=%.2f (max %v, until %v, seed %d)\n",
			plan.DropRate, plan.DupRate, plan.DelayRate, plan.MaxDelay, plan.FaultsUntil, plan.Seed)
	}
	defer ep.Close() // the node closes it on Stop; this covers the error paths before there is one

	// Print a transport-health line on the way out, so operators can see
	// queue evictions, redials, write failures, and inbox overflows.
	defer func() {
		fmt.Printf("transport health: %s\n", stats.Detail())
		if faulty != nil {
			fs := faulty.Stats()
			fmt.Printf("chaos injected: dropped=%d duplicated=%d delayed=%d cut=%d\n",
				fs.Dropped, fs.Duplicated, fs.Delayed, fs.Cut)
		}
	}()

	// The replica's gateway is this node's client surface: typed-error
	// admission over the queue, finality receipts, token-gated local
	// reads. The /v1 HTTP API fronts it on the metrics listener.
	rep := node.NewReplica(gateway.Options{Party: self, MaxBacklog: cfg.gwBacklog, Registry: reg})
	gw, kv := rep.Gateway, rep.KV
	committed := 0
	nd, err := node.New(node.Config{
		Self:               types.PartyID(self),
		Keys:               pub,
		Priv:               *priv,
		Endpoint:           ep,
		Mode:               mode,
		DeltaBound:         cfg.bound,
		Epsilon:            cfg.epsilon,
		ShareCacheSize:     cfg.shareCache,
		Replica:            rep,
		Dir:                cfg.walDir,
		CheckpointInterval: types.Round(cfg.ckptInterval),
		PruneDepth:         core.DefaultPruneDepth,
		VerifyWorkers:      cfg.verifyWorkers,
		Registry:           reg,
		Tracer:             tracer,
		Health:             health,
		Stats:              stats,
		Hooks: core.Hooks{
			OnCommit: func(b *types.Block, now time.Duration) {
				committed++
				if !cfg.quiet {
					fmt.Printf("committed round %d: %d payload bytes (proposer P%d, total %d blocks, state %s)\n",
						b.Round, len(b.Payload), b.Proposer, committed, kv.StateHash().Short())
				}
			},
		},
	})
	if err != nil {
		return err
	}
	if resumed := nd.Engine.CurrentRound(); resumed > 1 && !cfg.quiet {
		fmt.Printf("recovered durable state: resuming at round %d\n", resumed)
	}
	// Runs after nd.Stop (LIFO): if this node fell behind the prune
	// horizon with no checkpoint path, say so on the way out instead of
	// leaving a silently stalled process in the logs.
	defer func() {
		if err := nd.Engine.ResyncLost(); err != nil {
			fmt.Printf("warning: %v\n", err)
		}
	}()
	nd.Start()
	defer nd.Stop()
	fmt.Printf("party %d of %d listening on %s (t=%d tolerated faults)\n", self, pub.N, tcp.Addr(), pub.T)

	if cfg.metricsAddr != "" {
		srv, err := obs.Serve(cfg.metricsAddr, obs.HandlerOptions{
			Registry: reg,
			Tracer:   tracer,
			Health:   func() obs.Health { return health.Health(cfg.stallAfter) },
			Ingress:  gateway.NewHandler([]*gateway.Gateway{gw}, 0),
		})
		if err != nil {
			return fmt.Errorf("metrics server: %w", err)
		}
		defer srv.Close()
		fmt.Printf("observability on http://%s (/metrics /healthz /trace /debug/pprof), client API under /v1\n", srv.Addr())
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)

	if cfg.load > 0 {
		// Synthetic load goes through the gateway like any client:
		// admission-controlled, acknowledged only at finality (the ack
		// latency lands in icc_gateway_commit_latency_seconds). Ticks
		// rejected under backpressure are dropped, keeping the loop open.
		ticker := time.NewTicker(time.Second / time.Duration(cfg.load))
		defer ticker.Stop()
		ctx := context.Background()
		seq := uint64(0)
		for {
			select {
			case <-stop:
				return nil
			case <-ticker.C:
				seq++
				_, err := gw.Submit(ctx, statemachine.Command{
					Client: uint64(self),
					Seq:    seq,
					Op:     statemachine.OpSet,
					Key:    fmt.Sprintf("node%d/key%d", self, seq%100),
					Value:  []byte(time.Now().Format(time.RFC3339Nano)),
				})
				if err != nil && !cfg.quiet && !errors.Is(err, gateway.ErrBacklogFull) {
					fmt.Printf("load submit: %v\n", err)
				}
			}
		}
	}
	<-stop
	return nil
}

func readJSON(path string, v interface{}) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return fmt.Errorf("parsing %s: %w", path, err)
	}
	return nil
}
