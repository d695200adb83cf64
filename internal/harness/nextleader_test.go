package harness

// The next-leader cell of the adversary campaign (make chaos): forwarded
// commands (core/delegate.go) under a Byzantine party that misuses the
// stream from either end. Its safety argument is DESIGN.md §19's Seq
// rule: a held command enters a payload only behind its client's
// previous Seq, so nothing a forward does — lost, late, out of order,
// repeated, or made up with a Seq nobody reaches — can make a replica's
// per-client watermark pass an honest command it has not applied.

import (
	"math/rand"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/core"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/node"
	"icc/internal/simnet"
	"icc/internal/statemachine"
	"icc/internal/types"
)

// mangledInbox is a Byzantine party's view of the forwards sent to it: it
// drops a third of them, holds the rest back to hand them over later in
// reverse order, and hands an old one over again now and then. Its blocks
// are cut from what is left, so every leader round it holds shows what a
// leader that drops, reorders and replays forwards can do to them.
type mangledInbox struct {
	engine.Engine
	rng     *rand.Rand
	stashed []*types.PayloadOffer
	seen    []*types.PayloadOffer
	from    map[*types.PayloadOffer]types.PartyID
}

func (m *mangledInbox) HandleMessage(from types.PartyID, msg types.Message, now time.Duration) []engine.Output {
	o, ok := msg.(*types.PayloadOffer)
	if !ok {
		return append(m.release(now), m.Engine.HandleMessage(from, msg, now)...)
	}
	switch m.rng.Intn(3) {
	case 0: // dropped
	default:
		m.from[o] = from
		m.stashed = append(m.stashed, o)
	}
	return nil
}

func (m *mangledInbox) Tick(now time.Duration) []engine.Output {
	return append(m.release(now), m.Engine.Tick(now)...)
}

// release hands the stashed forwards over newest first, and with them,
// one time in four, a replay of one handed over before.
func (m *mangledInbox) release(now time.Duration) []engine.Output {
	var outs []engine.Output
	for i := len(m.stashed) - 1; i >= 0; i-- {
		o := m.stashed[i]
		outs = append(outs, m.Engine.HandleMessage(m.from[o], o, now)...)
		m.seen = append(m.seen, o)
	}
	m.stashed = m.stashed[:0]
	if len(m.seen) > 0 && m.rng.Intn(4) == 0 {
		o := m.seen[m.rng.Intn(len(m.seen))]
		outs = append(outs, m.Engine.HandleMessage(m.from[o], o, now)...)
	}
	return outs
}

// junkSender is a Byzantine party that runs the protocol honestly but,
// every interval, forwards to every other party: Seqs of the honest
// clients no one will reach (gapped), copies of commands already
// committed (replays) with and without the honest clients' real
// content, a payload past the size bound, and a flood of its own
// client's commands, gapped too, that fill its share at every party
// within two seconds.
type junkSender struct {
	engine.Engine
	n         int
	every     time.Duration
	next      time.Duration
	committed []statemachine.Command // as the party committed them
	round     uint64
}

func (j *junkSender) junk(now time.Duration) []engine.Output {
	if now < j.next {
		return nil
	}
	j.next = now + j.every
	j.round++
	var cmds []statemachine.Command
	for c := uint64(1); c <= 3; c++ {
		cmds = append(cmds, statemachine.Command{Client: c, Seq: 1_000_000 + j.round, Op: statemachine.OpSet, Key: "gapped", Value: []byte("junk")})
	}
	if k := len(j.committed); k > 0 {
		replay := j.committed[int(j.round)%k]
		cmds = append(cmds, replay)
		replay.Value, replay.Key = []byte("junk"), "replayed"
		cmds = append(cmds, replay)
	}
	flood := make([]statemachine.Command, 50)
	for i := range flood {
		flood[i] = statemachine.Command{Client: 99, Seq: 2 + j.round*1000 + uint64(i), Op: statemachine.OpSet, Key: "flood", Value: make([]byte, 1<<10)}
	}
	var outs []engine.Output
	for p := 0; p < j.n; p++ {
		to := types.PartyID(p)
		if to == j.ID() {
			continue
		}
		outs = append(outs,
			engine.Unicast(to, &types.PayloadOffer{Round: types.Round(j.round), Payload: statemachine.EncodePayload(cmds)}),
			engine.Unicast(to, &types.PayloadOffer{Round: types.Round(j.round), Payload: statemachine.EncodePayload(flood)}))
		if j.round%50 == 1 {
			outs = append(outs, engine.Unicast(to, &types.PayloadOffer{Round: types.Round(j.round), Payload: make([]byte, types.MaxPayloadBytes+1)}))
		}
	}
	return outs
}

func (j *junkSender) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	return append(j.Engine.HandleMessage(from, m, now), j.junk(now)...)
}

func (j *junkSender) Tick(now time.Duration) []engine.Output {
	return append(j.Engine.Tick(now), j.junk(now)...)
}

func (j *junkSender) NextWake(now time.Duration) (time.Duration, bool) {
	at, ok := j.Engine.NextWake(now)
	if due := max(j.next, now+1); !ok || due < at {
		return due, true
	}
	return at, ok
}

// TestChaosNextLeader runs four parties, three of them honest with a
// steady stream of their own clients' commands, and one Byzantine party
// that either mangles the forwards it is sent or sends junk ones. The
// oracle: the honest replicas end in one state, and each applied every
// command of every honest client, so none was skipped by a watermark
// that passed it.
//
// Mutation check: with the Seq rule's test in Queue.GetPayload removed,
// both cells fail: the mangled leader merges a client's later commands
// ahead of the ones it dropped or reordered, the junk sender's gapped
// Seqs are merged, and honest writes go missing on every honest party.
func TestChaosNextLeader(t *testing.T) {
	for _, tc := range []struct {
		name string
		wrap func(eng engine.Engine, rng *rand.Rand) engine.Engine
	}{
		{"byzantine-leader", func(eng engine.Engine, rng *rand.Rand) engine.Engine {
			return &mangledInbox{Engine: eng, rng: rng, from: make(map[*types.PayloadOffer]types.PartyID)}
		}},
		{"byzantine-sender", func(eng engine.Engine, _ *rand.Rand) engine.Engine {
			return &junkSender{Engine: eng, n: 4, every: 20 * time.Millisecond}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) { runNextLeaderCell(t, tc.wrap) })
	}
}

func runNextLeaderCell(t *testing.T, wrap func(engine.Engine, *rand.Rand) engine.Engine) {
	const (
		n, byz = 4, 3
		every  = 5 * time.Millisecond
		load   = 10 * time.Second
	)
	pub, privs, err := keys.Deal(rand.New(rand.NewSource(17)), n)
	if err != nil {
		t.Fatal(err)
	}
	net := simnet.New(simnet.Options{Seed: 17, Delay: simnet.Uniform{Min: time.Millisecond, Max: 15 * time.Millisecond}})
	kvs := make([]*statemachine.KV, n)
	var feeders []*feeder
	var junk *junkSender
	for i := 0; i < n; i++ {
		pid := types.PartyID(i)
		q, kv := statemachine.NewQueue(), statemachine.NewKV()
		kvs[i] = kv
		var onCommit func(*types.Block)
		_, eng, err := node.Stack(core.Config{
			Self: pid, Keys: pub, Priv: privs[i],
			Beacon:     beacon.NewSimulated(n, pid, pub.GenesisSeed),
			DeltaBound: 50 * time.Millisecond, Epsilon: 20 * time.Millisecond,
			Payload: q,
			Hooks: core.Hooks{OnCommit: func(b *types.Block, _ time.Duration) {
				_ = kv.Apply(b.Payload)
				q.MarkCommitted(b.Payload)
				if onCommit != nil {
					onCommit(b)
				}
			}},
		}, nil, node.ICC0, node.Overlay{}, true)
		if err != nil {
			t.Fatal(err)
		}
		if i == byz {
			eng = wrap(eng, rand.New(rand.NewSource(int64(i))))
			if j, ok := eng.(*junkSender); ok {
				junk = j
				onCommit = func(b *types.Block) {
					cmds, _ := statemachine.DecodePayload(b.Payload)
					junk.committed = append(junk.committed, cmds...)
				}
			}
			net.AddNode(eng, false)
			continue
		}
		f := &feeder{Engine: eng, q: q, client: uint64(i + 1), every: every, stop: load}
		feeders = append(feeders, f)
		net.AddNode(f, true)
	}
	net.Start()
	drained := func() bool {
		if net.Now() < load {
			return false
		}
		for _, f := range feeders {
			for p := 0; p < n; p++ {
				if p != byz && kvs[p].AppliedSeq(f.client) < f.sent {
					return false
				}
			}
		}
		return true
	}
	if !net.RunUntil(drained, load+time.Minute) {
		t.Error("not every honest command was applied on every honest party")
	}
	for p := 0; p < n; p++ {
		if p == byz {
			continue
		}
		if kvs[p].StateHash() != kvs[0].StateHash() {
			t.Errorf("honest party %d ends in a state different from party 0's", p)
		}
		for _, f := range feeders {
			skipped := 0
			for seq := uint64(1); seq <= f.sent; seq++ {
				if _, ok := kvs[p].Get(feederKey(f.client, seq)); !ok {
					skipped++
				}
			}
			if skipped > 0 || kvs[p].AppliedSeq(f.client) != f.sent {
				t.Errorf("party %d: client %d applied up to Seq %d of %d, %d of its writes missing", p, f.client, kvs[p].AppliedSeq(f.client), f.sent, skipped)
			}
		}
	}
}
