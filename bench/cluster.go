package main

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"icc/internal/adversary"
	"icc/internal/backfill"
	"icc/internal/beacon"
	"icc/internal/clock"
	"icc/internal/core"
	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/gateway"
	"icc/internal/gossip"
	"icc/internal/metrics"
	"icc/internal/obs"
	"icc/internal/pool"
	"icc/internal/runtime"
	"icc/internal/statemachine"
	"icc/internal/transport"
	"icc/internal/types"
	"icc/internal/verify"
)

// workload is one fixed cluster configuration. The load placed on it is
// the same for all (load.go); what differs is which layers do the work.
type workload struct {
	name       string
	why        string
	n          int
	gossip     bool // ICC1 overlay as icc.NewLocalCluster configures it
	tcp        bool // TCP loopback instead of transport.Inproc
	simBeacon  bool // beacon.NewSimulated instead of the DLEQ beacon
	deltaBound time.Duration
	epsilon    time.Duration
	silent     int // party wrapped in adversary.NewSilentLeader; −1 for none
}

// Every workload runs under the ε governor or a timeout, at well under
// two cores: on this two-core sandbox a CPU-saturated cluster repeats only
// to within 15–25 % from run to run (the host's own speed drifts), which
// no bound the contract allows can gate. CPU cost is read from the traced
// run instead; README.md has the measurements behind this.
var workloads = []workload{
	{
		name: "steady-n4", n: 4, deltaBound: 100 * time.Millisecond, epsilon: 50 * time.Millisecond, silent: -1,
		why: "ICC0, DLEQ beacon, epsilon=50ms: the 20 ms beacon reveal is a third of each round, so beacon and engine-loop gains move finality and commits_per_s here most.",
	},
	{
		name: "paced-n4", n: 4, deltaBound: 100 * time.Millisecond, epsilon: 100 * time.Millisecond, silent: -1,
		why: "Same with epsilon=100ms: the governor sets the round, so CPU savings move commits_per_s half as much; waiting and inclusion fixes move finality.",
	},
	{
		name: "tcp-gossip-n13", n: 13, gossip: true, tcp: true, simBeacon: true, deltaBound: 100 * time.Millisecond, epsilon: 50 * time.Millisecond, silent: -1,
		why: "ICC1 over TCP loopback, beacon simulated: transport, codec, gossip, verify and multisig do the work; the only workload where wire bytes should move.",
	},
	{
		name: "leaderfail-n4", n: 4, simBeacon: true, deltaBound: 20 * time.Millisecond, silent: 3,
		why: "One silent leader, no governor: a quarter of rounds take the timeout path with requests kept on schedule; a gain bought with late timers shows as a loss.",
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// dealSeed fixes the key material, and with it the DLEQ beacon's leader
// schedule, for every run of every seed: how long a command waits for its
// own replica to lead is a property of the workload, not run-to-run noise.
const dealSeed = 1

// seededReader is a sha256-counter byte stream (internal/harness deals
// its campaign keys the same way).
type seededReader struct {
	seed, ctr uint64
	buf       []byte
}

func (r *seededReader) Read(p []byte) (int, error) {
	for n := 0; n < len(p); {
		if len(r.buf) == 0 {
			var block [16]byte
			binary.LittleEndian.PutUint64(block[:8], r.seed)
			binary.LittleEndian.PutUint64(block[8:], r.ctr)
			r.ctr++
			sum := sha256.Sum256(block[:])
			r.buf = sum[:]
		}
		c := copy(p[n:], r.buf)
		r.buf = r.buf[c:]
		n += c
	}
	return len(p), nil
}

// commitRec is one block one party committed.
type commitRec struct {
	round    types.Round
	proposer types.PartyID
	hash     hash.Digest
	at       time.Duration // since the cluster's epoch, taken as the hook starts
}

// enterRec is one round one party entered.
type enterRec struct {
	round  types.Round
	leader types.PartyID
	at     time.Duration
}

// partyLog is what the bench records about one party from outside it.
// Commits are always logged (the agreement check needs them); proposals
// and round entries only in a traced run.
type partyLog struct {
	mu       sync.Mutex
	commits  []commitRec // consecutive rounds, in chain order
	proposes map[types.Round]time.Duration
	enters   []enterRec
}

func (l *partyLog) proposed(k types.Round, at time.Duration) {
	l.mu.Lock()
	l.proposes[k] = at
	l.mu.Unlock()
}

// commitOf returns the party's commit of round k.
func (l *partyLog) commitOf(k types.Round) (commitRec, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.commits) == 0 || k < l.commits[0].round {
		return commitRec{}, false
	}
	i := int(k - l.commits[0].round)
	if i >= len(l.commits) || l.commits[i].round != k {
		return commitRec{}, false
	}
	return l.commits[i], true
}

func (l *partyLog) proposeOf(k types.Round) (time.Duration, bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	at, ok := l.proposes[k]
	return at, ok
}

// cluster is a live n-party deployment in this process. It mirrors
// icc.NewLocalCluster field for field, built from the constructors the
// facade itself uses, so that the bench can stand on the interface
// boundaries between the layers. Durability (WAL, checkpoints) and the
// observability HTTP server are left out; README.md lists what a
// refactor may not rename without a benchmark issue.
type cluster struct {
	w      workload
	c      *counters
	epoch  time.Time
	honest []int // parties that take load and count towards commits

	gws     []*gateway.Gateway
	kvs     []*statemachine.KV
	logs    []*partyLog
	runners []*runtime.Runner
	tcps    []*transport.TCP
	hub     *transport.Inproc
}

func (cl *cluster) since() time.Duration { return time.Since(cl.epoch) }

func newCluster(w workload, traced bool) (*cluster, error) {
	n := w.n
	pub, privs, err := keys.DealScheme(&seededReader{seed: dealSeed}, n, aggsig.SchemeMultisig)
	if err != nil {
		return nil, fmt.Errorf("dealing keys: %w", err)
	}
	cl := &cluster{
		w:     w,
		c:     &counters{traced: traced},
		epoch: time.Now(),
		gws:   make([]*gateway.Gateway, n),
		kvs:   make([]*statemachine.KV, n),
		logs:  make([]*partyLog, n),
	}
	reg := obs.NewRegistry()
	tracer := obs.NewTracer(0)
	health := obs.NewHealthTracker()
	stats := metrics.NewTransportStatsOn(reg, tracer)

	eps := make([]transport.Endpoint, n)
	if w.tcp {
		if err := cl.listenTCP(stats); err != nil {
			cl.stop()
			return nil, err
		}
		for i, t := range cl.tcps {
			eps[i] = t
		}
	} else {
		cl.hub = transport.NewInproc(n)
		cl.hub.SetStats(stats)
		for i := range eps {
			eps[i] = cl.hub.Endpoint(types.PartyID(i))
		}
	}

	clk := clock.NewWall()
	for i := 0; i < n; i++ {
		i := i
		pid := types.PartyID(i)
		if i != w.silent {
			cl.honest = append(cl.honest, i)
		}
		queue := statemachine.NewQueue()
		kv := statemachine.NewKV()
		gw := gateway.New(queue, kv, gateway.Options{Party: i, Registry: reg})
		log := &partyLog{proposes: make(map[types.Round]time.Duration)}
		cl.kvs[i], cl.gws[i], cl.logs[i] = kv, gw, log

		ob := obs.NewObserver(obs.ObserverConfig{Registry: reg, Tracer: tracer, Party: i, Health: health})
		var raw beacon.Source
		if w.simBeacon {
			raw = beacon.NewSimulated(n, pid, pub.GenesisSeed)
		} else {
			raw = beacon.New(pub.Beacon, privs[i].Beacon, pid, pub.GenesisSeed)
		}
		ep := &meteredEndpoint{Endpoint: eps[i], c: cl.c}
		// The backfill worker signs and sends from its own goroutines,
		// outside every engine span, so it gets the undecorated beacon.
		bfw := backfill.New(raw, ep, backfill.Options{Registry: reg})

		bcn, payload := raw, core.PayloadSource(queue)
		var verifier pool.Verifier = pool.NewVerifier(pub, pool.VerifyFull)
		hooks := core.Hooks{
			OnCommit: func(b *types.Block, _ time.Duration) {
				at := cl.since()
				_ = kv.Apply(b.Payload)
				queue.MarkCommitted(b.Payload)
				gw.ObserveCommit(uint64(b.Round), b.Payload)
				rec := commitRec{round: b.Round, proposer: b.Proposer, hash: b.Hash(), at: at}
				log.mu.Lock()
				log.commits = append(log.commits, rec)
				log.mu.Unlock()
				if traced {
					cl.c.v[cCommitNs].Add(int64(cl.since() - at))
				}
			},
		}
		if traced {
			bcn = newTracedBeacon(raw, cl.c)
			payload = &tracedPayload{inner: queue, cl: cl, log: log}
			verifier = &tracedVerifier{inner: verifier, c: cl.c}
			hooks.OnEnterRound = func(k types.Round, _ time.Duration) {
				leader, _ := raw.Leader(k)
				log.mu.Lock()
				log.enters = append(log.enters, enterRec{round: k, leader: leader, at: cl.since()})
				log.mu.Unlock()
			}
		}
		inner := core.NewEngine(core.Config{
			Self:       pid,
			Keys:       pub,
			Priv:       privs[i],
			Beacon:     bcn,
			Catchup:    bfw,
			DeltaBound: w.deltaBound,
			Epsilon:    w.epsilon,
			Payload:    payload,
			Pool:       pool.Options{Policy: pool.VerifyPreVerified},
			Hooks:      core.ObservedHooks(ob, hooks),
		})
		var eng engine.Engine = inner
		if i == w.silent {
			eng = adversary.NewSilentLeader(inner)
		}
		if traced {
			eng = &tracedEngine{Engine: eng, c: cl.c, ns: cInnerNs, msgs: cInnerMsgs}
		}
		if w.gossip {
			g, err := gossip.New(gossip.Config{
				Self:             pid,
				N:                n,
				Fanout:           defaultFanout(n),
				Seed:             42,
				ShareBatchWindow: 2 * time.Millisecond,
				AdaptiveBatch:    true,
				Aggregate:        true,
				TrustShares:      true,
				Keys:             pub,
			}, eng)
			if err != nil {
				cl.stop()
				return nil, fmt.Errorf("party %d gossip: %w", i, err)
			}
			eng = g
		}
		if traced {
			eng = &tracedEngine{Engine: eng, c: cl.c, ns: cOuterNs, msgs: cOuterMsgs}
		}
		r := runtime.NewRunner(eng, ep, clk, n)
		r.SetTransportStats(stats)
		r.SetObserver(ob)
		r.SetBackfillWorker(bfw)
		r.SetVerifyPipeline(verify.New(verifier, verify.Options{Registry: reg}))
		cl.runners = append(cl.runners, r)
	}
	return cl, nil
}

// listenTCP opens one loopback endpoint per party on a port the kernel
// picks, then tells every endpoint where its peers listen.
func (cl *cluster) listenTCP(stats *metrics.TransportStats) error {
	n := cl.w.n
	addrs := make(map[types.PartyID]string, n)
	for i := 0; i < n; i++ {
		addrs[types.PartyID(i)] = "127.0.0.1:0"
	}
	for i := 0; i < n; i++ {
		t, err := transport.NewTCPWithOptions(types.PartyID(i), addrs,
			transport.TCPOptions{RedialMax: 500 * time.Millisecond, Stats: stats})
		if err != nil {
			return fmt.Errorf("party %d tcp: %w", i, err)
		}
		cl.tcps = append(cl.tcps, t)
	}
	for i, t := range cl.tcps {
		for j, peer := range cl.tcps {
			if i != j {
				t.SetPeerAddr(types.PartyID(j), peer.Addr())
			}
		}
	}
	return nil
}

// defaultFanout is the facade's overlay degree: ≈ 2·log₂(n) + 2.
func defaultFanout(n int) int {
	f := 2
	for v := n; v > 1; v >>= 1 {
		f += 2
	}
	if f > n-1 {
		f = n - 1
	}
	return f
}

func (cl *cluster) start() {
	for i, r := range cl.runners {
		cl.gws[i].Start()
		r.Start()
	}
}

// stop shuts the cluster down in the facade's order and returns once
// every goroutine it started has exited.
func (cl *cluster) stop() {
	for _, g := range cl.gws {
		if g != nil {
			g.Stop()
		}
	}
	for _, r := range cl.runners {
		r.Stop()
	}
	if cl.hub != nil {
		cl.hub.Close()
	}
	for _, t := range cl.tcps {
		_ = t.Close() // nothing to report: the run's results are already taken
	}
}

// waitCommits blocks until every honest party has committed min blocks.
func (cl *cluster) waitCommits(min int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		if cl.minCommits(0, time.Duration(1<<62)) >= min {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%s: fewer than %d commits on some party after %v", cl.w.name, min, timeout)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// minCommits counts the blocks committed in [from, to) by the honest
// party that committed the fewest.
func (cl *cluster) minCommits(from, to time.Duration) int {
	least := -1
	for _, p := range cl.honest {
		l := cl.logs[p]
		l.mu.Lock()
		count := 0
		for _, rec := range l.commits {
			if rec.at >= from && rec.at < to {
				count++
			}
		}
		l.mu.Unlock()
		if least < 0 || count < least {
			least = count
		}
	}
	return least
}

// checkAgreement compares, round by round, the block hashes the parties
// committed, and returns how many rounds disagree.
func (cl *cluster) checkAgreement() int {
	seen := make(map[types.Round]hash.Digest)
	bad := 0
	for _, l := range cl.logs {
		l.mu.Lock()
		for _, rec := range l.commits {
			if h, ok := seen[rec.round]; !ok {
				seen[rec.round] = rec.hash
			} else if h != rec.hash {
				bad++
			}
		}
		l.mu.Unlock()
	}
	return bad
}
