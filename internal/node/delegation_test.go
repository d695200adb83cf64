package node_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"icc/internal/adversary"
	"icc/internal/beacon"
	"icc/internal/core"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/gateway"
	"icc/internal/node"
	"icc/internal/simnet"
	"icc/internal/statemachine"
	"icc/internal/types"
)

// The shape of TestCommandsRideOtherPartiesBlocks: commands of one client,
// one every interval, admitted at party home only.
const (
	rideN, rideHome, rideClient, rideCommands = 4, 2, 9, 40
	rideEvery                                 = 10 * time.Millisecond
	rideEpsilon                               = 30 * time.Millisecond // the next leader is known when shares are cast
)

func rideCommand(s int) statemachine.Command {
	return statemachine.Command{
		Client: rideClient, Seq: uint64(s), Op: statemachine.OpSet,
		Key: fmt.Sprintf("k%d", s), Value: []byte{byte(s)},
	}
}

type rideCmd struct{ client, seq uint64 }

// rideLog records every party's commits and every forwarded-command outcome.
type rideLog struct {
	mu       sync.Mutex
	proposer map[types.Round]types.PartyID // as party home committed them
	carried  []map[rideCmd]types.Round     // per party: the round that committed a command
	offers   map[string]int                // outcome → commands, all parties
	twice    []string
}

func newRideLog() *rideLog {
	l := &rideLog{proposer: make(map[types.Round]types.PartyID), offers: make(map[string]int)}
	for i := 0; i < rideN; i++ {
		l.carried = append(l.carried, make(map[rideCmd]types.Round))
	}
	return l
}

func (l *rideLog) commit(t *testing.T, i int, b *types.Block) {
	cmds, err := statemachine.DecodePayload(b.Payload)
	if err != nil {
		t.Errorf("party %d committed a payload that does not decode in round %d: %v", i, b.Round, err)
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if i == rideHome {
		l.proposer[b.Round] = b.Proposer
	}
	for _, cm := range cmds {
		id := rideCmd{cm.Client, cm.Seq}
		if first, dup := l.carried[i][id]; dup {
			l.twice = append(l.twice, fmt.Sprintf("party %d: command %v in rounds %d and %d", i, id, first, b.Round))
		}
		l.carried[i][id] = b.Round
	}
}

func (l *rideLog) offer(_ types.PartyID, _ types.Round, cmds int, outcome string, _ time.Duration) {
	l.mu.Lock()
	l.offers[outcome] += cmds
	l.mu.Unlock()
}

// homeHasAll reports whether party home has committed every command.
func (l *rideLog) homeHasAll() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.carried[rideHome]) == rideCommands
}

// allApplied reports whether every replica has applied every command.
func allApplied(kvs []*statemachine.KV) bool {
	for _, kv := range kvs {
		if kv.AppliedSeq(rideClient) != rideCommands {
			return false
		}
	}
	return true
}

// check asserts, once every party has applied every command, that most
// commands were committed in blocks other parties proposed, that offers
// were merged, and that no command entered the chain or a replica twice.
func (l *rideLog) check(t *testing.T, kvs []*statemachine.KV) {
	t.Helper()
	l.mu.Lock()
	defer l.mu.Unlock()
	byOthers := 0
	for _, k := range l.carried[rideHome] {
		if l.proposer[k] != rideHome {
			byOthers++
		}
	}
	t.Logf("%d of %d commands committed in other parties' blocks; offers %v", byOthers, rideCommands, l.offers)
	if l.offers[core.OfferMerged] == 0 {
		t.Errorf("no forwarded command was ever merged: %v", l.offers)
	}
	// Party home leads one round in four; most commands must not have
	// waited for that (before delegated payloads: none).
	if byOthers < rideCommands/3 {
		t.Errorf("only %d of %d commands were committed in blocks of parties other than %d", byOthers, rideCommands, rideHome)
	}
	for i, kv := range kvs {
		if ops := kv.AppliedOps(); ops != rideCommands {
			t.Errorf("party %d applied %d operations, want %d", i, ops, rideCommands)
		}
	}
	for _, msg := range l.twice {
		t.Error(msg)
	}
}

// TestCommandsRideOtherPartiesBlocks: in every dissemination mode,
// commands admitted at one party only are committed in blocks that other
// parties proposed (delegated payloads, DESIGN.md §19) — before, a command
// could enter the chain in its own party's blocks alone — and no command
// enters the chain twice. ICC1 and ICC2 run on the live stack, the
// commands submitted through party home's gateway and acknowledged there.
// ICC0 runs on simnet: its rounds are the shortest, and on the live stack
// under -race how many offers beat the leader's quorum depended on the
// host's load, so the floor below held or failed with it.
func TestCommandsRideOtherPartiesBlocks(t *testing.T) {
	t.Run("icc0", func(t *testing.T) {
		l := newRideLog()
		l.check(t, rideOnSimnet(t, l))
	})
	for _, mode := range []struct {
		name string
		mode node.Mode
	}{{"icc1", node.ICC1}, {"icc2", node.ICC2}} {
		mode := mode
		t.Run(mode.name, func(t *testing.T) {
			l := newRideLog()
			c, kvs := rideLive(t, l, mode.mode)
			l.check(t, kvs)
			c.agree()
		})
	}
}

// rideLive runs the commands through party home's gateway on a live
// cluster and returns once every one is acknowledged and applied
// everywhere.
func rideLive(t *testing.T, l *rideLog, mode node.Mode) (*testCluster, []*statemachine.KV) {
	c := newTestCluster(t, rideN, false)
	gws := make([]*gateway.Gateway, rideN)
	kvs := make([]*statemachine.KV, rideN)
	c.buildAll(rideN, func(i int, cfg *node.Config) {
		cfg.Mode = mode
		cfg.Epsilon = rideEpsilon
		cfg.Replica = node.NewReplica(gateway.Options{Party: i})
		gws[i], kvs[i] = cfg.Replica.Gateway, cfg.Replica.KV
		logCommit := cfg.Hooks.OnCommit
		cfg.Hooks.OnCommit = func(b *types.Block, now time.Duration) {
			logCommit(b, now)
			l.commit(t, i, b)
		}
		cfg.Hooks.OnPayloadOffer = l.offer
	})

	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	receipts := make([]*gateway.Receipt, rideCommands)
	for s := range receipts {
		r, err := gws[rideHome].Submit(ctx, rideCommand(s+1))
		if err != nil {
			t.Fatalf("submit %d: %v", s+1, err)
		}
		receipts[s] = r
		time.Sleep(rideEvery)
	}
	for s, r := range receipts {
		if _, err := r.Wait(ctx); err != nil {
			t.Fatalf("command %d was not acknowledged: %v", s+1, err)
		}
	}
	// The replica acks inside the commit hook, before the caller's
	// OnCommit has logged the block.
	waitFor(t, 5*time.Second, "party home acknowledged commands it has not logged", l.homeHasAll)
	waitFor(t, 30*time.Second, "not every party applied all commands", func() bool { return allApplied(kvs) })
	return c, kvs
}

// rideOnSimnet runs the ICC0 stack node.Stack builds on simnet, with the
// live cluster's Δbnd and beacon, admitting the commands into party
// home's queue at their virtual times, until every party applied them all.
func rideOnSimnet(t *testing.T, l *rideLog) []*statemachine.KV {
	const seed = 5
	pub, privs, err := keys.Deal(rand.New(rand.NewSource(seed)), rideN)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Options{Seed: seed, Delay: simnet.Uniform{Min: 100 * time.Microsecond, Max: 2 * time.Millisecond}})
	kvs := make([]*statemachine.KV, rideN)
	for i := 0; i < rideN; i++ {
		i, pid := i, types.PartyID(i)
		q, kv := statemachine.NewQueue(), statemachine.NewKV()
		kvs[i] = kv
		_, eng, err := node.Stack(core.Config{
			Self: pid, Keys: pub, Priv: privs[i],
			Beacon:     beacon.NewSimulated(rideN, pid, pub.GenesisSeed),
			DeltaBound: 50 * time.Millisecond, Epsilon: rideEpsilon,
			Payload: q,
			Hooks: core.Hooks{
				OnCommit: func(b *types.Block, _ time.Duration) {
					_ = kv.Apply(b.Payload) // a payload that does not decode is reported by commit
					q.MarkCommitted(b.Payload)
					l.commit(t, i, b)
				},
				OnPayloadOffer: l.offer,
			},
		}, nil, node.ICC0, node.Overlay{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if i == rideHome {
			eng = &rideSubmitter{Engine: eng, t: t, q: q}
		}
		net.AddNode(eng, true)
	}
	net.Start()
	if !net.RunUntil(func() bool { return allApplied(kvs) }, time.Minute) {
		t.Fatal("not every party applied all commands")
	}
	return kvs
}

// rideSubmitter admits command s into its party's queue once virtual time
// reaches (s−1)·rideEvery, as the gateway would on a live node.
type rideSubmitter struct {
	engine.Engine
	t    *testing.T
	q    *statemachine.Queue
	sent int
}

func (s *rideSubmitter) submit(now time.Duration) {
	for s.sent < rideCommands && time.Duration(s.sent)*rideEvery <= now {
		s.sent++
		if err := s.q.TrySubmit(rideCommand(s.sent)); err != nil {
			s.t.Fatalf("submit %d: %v", s.sent, err)
		}
	}
}

func (s *rideSubmitter) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	s.submit(now)
	return s.Engine.HandleMessage(from, m, now)
}

func (s *rideSubmitter) Tick(now time.Duration) []engine.Output {
	s.submit(now)
	return s.Engine.Tick(now)
}

// steadySubmitter admits one command of its own client into its party's
// queue every interval of virtual time until stop, waking for each as a
// gateway's admission would, and records when each was admitted.
type steadySubmitter struct {
	engine.Engine
	q        *statemachine.Queue
	client   uint64
	every    time.Duration
	stop     time.Duration
	admitted []time.Duration // by Seq−1
}

func (s *steadySubmitter) due() time.Duration { return time.Duration(len(s.admitted)) * s.every }

func (s *steadySubmitter) submit(now time.Duration) {
	for s.due() < s.stop && s.due() <= now {
		seq := uint64(len(s.admitted) + 1)
		if err := s.q.TrySubmit(statemachine.Command{Client: s.client, Seq: seq, Op: statemachine.OpSet, Key: "k", Value: []byte{byte(seq)}}); err != nil {
			panic(err)
		}
		s.admitted = append(s.admitted, now)
	}
}

func (s *steadySubmitter) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	s.submit(now)
	return s.Engine.HandleMessage(from, m, now)
}

func (s *steadySubmitter) Tick(now time.Duration) []engine.Output {
	s.submit(now)
	return s.Engine.Tick(now)
}

func (s *steadySubmitter) NextWake(now time.Duration) (time.Duration, bool) {
	at, ok := s.Engine.NextWake(now)
	if due := max(s.due(), now+1); s.due() < s.stop && (!ok || due < at) {
		return due, true
	}
	return at, ok
}

// TestCommandsAdmittedInASilentRoundRideRankOnesBlock: at n = 4, ε = 0
// and Δbnd = 20 ms (the bench's leaderfail-n4 shape), party 3 never
// disseminates its blocks. In a round it leads, rank 1 cuts the round's
// block at Δprop(1) = 40 ms. A command admitted at another party in the
// first 30 ms of that round goes to rank 1 from Δprop(0) + Δbnd = 20 ms
// on, and rides rank 1's block, not a later one.
func TestCommandsAdmittedInASilentRoundRideRankOnesBlock(t *testing.T) {
	const (
		n, silent = 4, 3
		every     = 3 * time.Millisecond
		load      = 5 * time.Second
		seed      = 23
	)
	pub, privs, err := keys.Deal(rand.New(rand.NewSource(seed)), n)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Options{Seed: seed, Delay: simnet.Uniform{Min: 100 * time.Microsecond, Max: 2 * time.Millisecond}})
	entered := make([]map[types.Round]time.Duration, n)
	perms := make([]map[types.Round][]types.PartyID, n)
	committedIn := make([]map[uint64]types.Round, n) // at the home party: Seq → round
	subs := make([]*steadySubmitter, n)
	for i := 0; i < n; i++ {
		i, pid := i, types.PartyID(i)
		entered[i], perms[i], committedIn[i] = make(map[types.Round]time.Duration), make(map[types.Round][]types.PartyID), make(map[uint64]types.Round)
		q, kv := statemachine.NewQueue(), statemachine.NewKV()
		bcn := beacon.NewSimulated(n, pid, pub.GenesisSeed)
		var wrap func(*core.Engine) engine.Engine
		if i == silent {
			wrap = adversary.NewSilentLeader
		}
		_, eng, err := node.Stack(core.Config{
			Self: pid, Keys: pub, Priv: privs[i],
			Beacon: bcn, DeltaBound: 20 * time.Millisecond,
			Payload: q,
			Hooks: core.Hooks{
				OnEnterRound: func(k types.Round, now time.Duration) {
					entered[i][k] = now
					perms[i][k], _ = bcn.Permutation(k)
				},
				OnCommit: func(b *types.Block, _ time.Duration) {
					_ = kv.Apply(b.Payload)
					q.MarkCommitted(b.Payload)
					cmds, _ := statemachine.DecodePayload(b.Payload)
					for _, c := range cmds {
						if c.Client == uint64(i+1) {
							committedIn[i][c.Seq] = b.Round
						}
					}
				},
			},
		}, wrap, node.ICC0, node.Overlay{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if i != silent {
			subs[i] = &steadySubmitter{Engine: eng, q: q, client: uint64(i + 1), every: every, stop: load}
			eng = subs[i]
		}
		net.AddNode(eng, i != silent)
	}
	net.Start()
	done := func() bool {
		for i, s := range subs {
			if s != nil && (s.due() < load || len(committedIn[i]) < len(s.admitted)) {
				return false
			}
		}
		return true
	}
	if !net.RunUntil(done, load+30*time.Second) {
		t.Fatal("not every command was committed at its home party")
	}
	checked, late := 0, 0
	for i, s := range subs {
		if s == nil {
			continue
		}
		for k, at := range entered[i] {
			perm := perms[i][k]
			if len(perm) < 2 || perm[0] != silent || perm[1] == types.PartyID(i) {
				continue
			}
			for seq, a := range s.admitted {
				if a < at || a >= at+30*time.Millisecond {
					continue
				}
				checked++
				if got := committedIn[i][uint64(seq+1)]; got != k {
					late++
					if late <= 5 {
						t.Errorf("party %d admitted Seq %d %v into silent round %d; it rode round %d's block", i, seq+1, a-at, k, got)
					}
				}
			}
		}
	}
	if checked < 20 {
		t.Fatalf("only %d commands were admitted early in a silent round led by party %d", checked, silent)
	}
	if late > 0 {
		t.Errorf("%d of %d commands admitted early in a silent round missed rank 1's block", late, checked)
	}
	t.Logf("%d commands admitted in the first 30 ms of silent rounds rode rank 1's block", checked-late)
}

// TestCommandsAdmittedInTheThirdQuarterRideTheRoundsBlock: at n = 4,
// ε = 50 ms and Δbnd = 100 ms (the bench's steady-n4 shape) the leader
// cuts round k's block no earlier than 3ε/4 (Δntry(0) less its measured
// margin, ε/4 at most on these links). A command admitted at another
// party between ε/2 and 3ε/4 into round k, less two link delays (the
// forward's, and the leader's lead in entering the round), reaches the
// leader before its cut and rides round k's block. With the cut at ε/2
// every one of them waited for round k+1.
func TestCommandsAdmittedInTheThirdQuarterRideTheRoundsBlock(t *testing.T) {
	const (
		n          = 4
		deltaBound = 100 * time.Millisecond
		epsilon    = 50 * time.Millisecond
		maxLink    = 2 * time.Millisecond
		every      = 3 * time.Millisecond
		load       = 5 * time.Second
		seed       = 29
	)
	pub, privs, err := keys.Deal(rand.New(rand.NewSource(seed)), n)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Options{Seed: seed, Delay: simnet.Uniform{Min: 100 * time.Microsecond, Max: maxLink}})
	entered := make([]map[types.Round]time.Duration, n)
	leaders := make([]map[types.Round]types.PartyID, n)
	committedIn := make([]map[uint64]types.Round, n) // at the home party: Seq → round
	subs := make([]*steadySubmitter, n)
	for i := 0; i < n; i++ {
		i, pid := i, types.PartyID(i)
		entered[i], leaders[i], committedIn[i] = make(map[types.Round]time.Duration), make(map[types.Round]types.PartyID), make(map[uint64]types.Round)
		q, kv := statemachine.NewQueue(), statemachine.NewKV()
		bcn := beacon.NewSimulated(n, pid, pub.GenesisSeed)
		_, eng, err := node.Stack(core.Config{
			Self: pid, Keys: pub, Priv: privs[i],
			Beacon: bcn, DeltaBound: deltaBound, Epsilon: epsilon,
			Payload: q,
			Hooks: core.Hooks{
				OnEnterRound: func(k types.Round, now time.Duration) {
					entered[i][k] = now
					if perm, ok := bcn.Permutation(k); ok {
						leaders[i][k] = perm[0]
					}
				},
				OnCommit: func(b *types.Block, _ time.Duration) {
					_ = kv.Apply(b.Payload)
					q.MarkCommitted(b.Payload)
					cmds, _ := statemachine.DecodePayload(b.Payload)
					for _, c := range cmds {
						if c.Client == uint64(i+1) {
							committedIn[i][c.Seq] = b.Round
						}
					}
				},
			},
		}, nil, node.ICC0, node.Overlay{}, true)
		if err != nil {
			t.Fatal(err)
		}
		subs[i] = &steadySubmitter{Engine: eng, q: q, client: uint64(i + 1), every: every, stop: load}
		net.AddNode(subs[i], true)
	}
	net.Start()
	done := func() bool {
		for i, s := range subs {
			if s.due() < load || len(committedIn[i]) < len(s.admitted) {
				return false
			}
		}
		return true
	}
	if !net.RunUntil(done, load+30*time.Second) {
		t.Fatal("not every command was committed at its home party")
	}
	from, until := epsilon/2, 3*epsilon/4-2*maxLink
	checked, late := 0, 0
	for i, s := range subs {
		for k, at := range entered[i] {
			if leader, ok := leaders[i][k]; !ok || leader == types.PartyID(i) {
				continue
			}
			for seq, a := range s.admitted {
				if a < at+from || a >= at+until {
					continue
				}
				checked++
				if got := committedIn[i][uint64(seq+1)]; got != k {
					late++
					if late <= 5 {
						t.Errorf("party %d admitted Seq %d %v into round %d; it rode round %d's block", i, seq+1, a-at, k, got)
					}
				}
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d commands were admitted between %v and %v into a round another party led", checked, from, until)
	}
	if late > 0 {
		t.Errorf("%d of %d commands admitted between %v and %v into a round missed its block", late, checked, from, until)
	}
	t.Logf("%d commands admitted between %v and %v into a round another party led rode its block", checked-late, from, until)
}

// TestStackForwardsTheAdmissionWake: whatever the mode and with a
// Byzantine filter in between, the outermost layer of a stack over a
// command queue hands the runner that queue's admission signal.
func TestStackForwardsTheAdmissionWake(t *testing.T) {
	const n = 4
	pub, privs, err := keys.Deal(rand.New(rand.NewSource(1)), n)
	if err != nil {
		t.Fatal(err)
	}
	for _, mode := range []node.Mode{node.ICC0, node.ICC1, node.ICC2} {
		q := statemachine.NewQueue()
		_, eng, err := node.Stack(core.Config{
			Self: 0, Keys: pub, Priv: privs[0],
			Beacon:  beacon.NewSimulated(n, 0, pub.GenesisSeed),
			Payload: q,
		}, adversary.NewSilentLeader, mode, node.Overlay{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if engine.WakeOf(eng) != q.Wake() {
			t.Errorf("%v: the stack does not hand out the queue's admission signal", mode)
		}
	}
}
