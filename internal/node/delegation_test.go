package node_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

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

// rideLog records every party's commits and every offer outcome.
type rideLog struct {
	mu       sync.Mutex
	proposer map[types.Round]types.PartyID // as party home committed them
	carried  []map[rideCmd]types.Round     // per party: the round that committed a command
	offers   map[string]int                // outcome → count, all parties
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

func (l *rideLog) offer(_ types.PartyID, _ types.Round, _ int, outcome string, _ time.Duration) {
	l.mu.Lock()
	l.offers[outcome]++
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
		t.Errorf("no offer was ever merged: %v", l.offers)
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
