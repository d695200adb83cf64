package experiments

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"icc/internal/adversary"
	"icc/internal/beacon"
	"icc/internal/core"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/node"
	"icc/internal/simnet"
	"icc/internal/statemachine"
	"icc/internal/types"
)

// The virtual-time twin (E30): each workload of the repository benchmark
// (bench/, BENCHMARK.json) run through node.Stack on simnet, with the
// bench's load, so that protocol waiting is measured apart from processor
// time. The bench's number minus the twin's is the residual: what CPU,
// event-loop queueing and the sockets cost.

// twinShape is one bench workload's shape, as bench/cluster.go's table
// sets it: n, dissemination mode, Δbnd, ε and the silent party (−1 for
// none). The DLEQ beacon of the two n = 4 ICC0 workloads is simulated
// here, as is every link. E32 and E36 vary the link delay and the
// leader's cut.
type twinShape struct {
	name                string
	n                   int
	mode                node.Mode
	deltaBound, epsilon time.Duration
	silent              int
	link                time.Duration   // mean one-way link delay, spread ±60 %; 0: the bench's twinLinks
	prop                types.DelayFunc // a fixed Δprop in place of the measured cut (nil: the engine's own)
}

// links is the shape's delay model.
func (s twinShape) links() simnet.DelayModel {
	if s.link == 0 {
		return twinLinks
	}
	return simnet.Uniform{Min: s.link * 2 / 5, Max: s.link * 8 / 5}
}

var twinShapes = []twinShape{
	{"steady-n4", 4, node.ICC0, 100 * time.Millisecond, 50 * time.Millisecond, -1, 0, nil},
	{"paced-n4", 4, node.ICC0, 100 * time.Millisecond, 100 * time.Millisecond, -1, 0, nil},
	{"tcp-gossip-n13", 13, node.ICC1, 100 * time.Millisecond, 50 * time.Millisecond, -1, 0, nil},
	{"leaderfail-n4", 4, node.ICC0, 20 * time.Millisecond, 0, 3, 0, nil},
}

// The bench's load (bench/load.go): an open loop of 200 commands/s from 8
// clients, each pinned to one honest party, 64-byte values; latencies are
// measured after a 2 s warm-up. Links take 75–300 µs.
const (
	twinRate       = 200
	twinClients    = 8
	twinValueBytes = 64
	twinWarmUp     = 2 * time.Second
	twinDrain      = 10 * time.Second
)

var twinLinks = simnet.Uniform{Min: 75 * time.Microsecond, Max: 300 * time.Microsecond}

// twinResult is one twin run: the bench's end-to-end latency and commit
// rate in virtual time, and what the stream of forwarded commands cost.
type twinResult struct {
	p50, p90    time.Duration
	commitsPerS float64
	failed      int // measured commands never committed at their home
	forwards    int // PayloadOffer messages sent in the window
	fwdBytes    int // their encoded bytes
	commits     int // blocks the slowest honest party committed in the window
	shares      int // notarization shares honest parties cast in the window
	lateShares  int // of them, for a block that arrived after its Δntry
}

// twinRun is the state of one run: the load's schedule and what each
// party's commits say about it.
type twinRun struct {
	honest   []int
	queues   []*statemachine.Queue // per party; one shared queue in shared mode
	homed    [][]int               // per party: the commands it admits, in due order
	next     []int                 // per party: index into homed of the next to admit
	due      []time.Duration
	home     []int
	cmds     []statemachine.Command
	done     []time.Duration // commit at the home party, 0 until then
	commitAt [][]time.Duration
	t1       time.Duration // end of the measured window
	res      twinResult
}

// twinParty admits its commands into its queue at their due times, as a
// gateway would, waking at the next one through NextWake, and counts the
// forwards its stack sends.
type twinParty struct {
	engine.Engine
	run  *twinRun
	self int
}

func (p *twinParty) admit(now time.Duration) {
	r := p.run
	for r.next[p.self] < len(r.homed[p.self]) {
		i := r.homed[p.self][r.next[p.self]]
		if r.due[i] > now {
			return
		}
		r.next[p.self]++
		if err := r.queues[p.self].TrySubmit(r.cmds[i]); err != nil {
			panic(fmt.Sprintf("experiments: twin admission: %v", err))
		}
	}
}

func (p *twinParty) count(now time.Duration, outs []engine.Output) []engine.Output {
	if now < twinWarmUp || now >= p.run.t1 {
		return outs
	}
	for _, o := range outs {
		if _, ok := o.Msg.(*types.PayloadOffer); ok {
			p.run.res.forwards++
			p.run.res.fwdBytes += len(types.Marshal(o.Msg))
		}
	}
	return outs
}

func (p *twinParty) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	p.admit(now)
	return p.count(now, p.Engine.HandleMessage(from, m, now))
}

func (p *twinParty) Tick(now time.Duration) []engine.Output {
	p.admit(now)
	return p.count(now, p.Engine.Tick(now))
}

func (p *twinParty) NextWake(now time.Duration) (time.Duration, bool) {
	at, ok := p.Engine.NextWake(now)
	r := p.run
	if r.next[p.self] < len(r.homed[p.self]) {
		if due := max(r.due[r.homed[p.self][r.next[p.self]]], now+1); !ok || due < at {
			return due, true
		}
	}
	return at, ok
}

// undelegated hides a queue's forwarding half: every party cuts from the
// one shared queue instead.
type undelegated struct{ q *statemachine.Queue }

func (u undelegated) GetPayload(k types.Round, parent *types.Block, lookup func(hash.Digest) *types.Block) []byte {
	return u.q.GetPayload(k, parent, lookup)
}

// runTwin runs one shape for the warm-up and window of virtual time. With
// shared, all parties cut their blocks from one queue that every command
// enters: what a leader could propose if it saw every party's commands at
// its cut, the bound on what forwarding can win.
func runTwin(s twinShape, seed int64, window time.Duration, shared bool) twinResult {
	pub, privs, err := keys.Deal(rand.New(rand.NewSource(seed)), s.n)
	if err != nil {
		panic(fmt.Sprintf("experiments: twin keys: %v", err))
	}
	total := int((twinWarmUp + window).Seconds() * twinRate)
	r := &twinRun{
		queues:   make([]*statemachine.Queue, s.n),
		homed:    make([][]int, s.n),
		next:     make([]int, s.n),
		due:      make([]time.Duration, total),
		home:     make([]int, total),
		cmds:     make([]statemachine.Command, total),
		done:     make([]time.Duration, total),
		commitAt: make([][]time.Duration, s.n),
		t1:       twinWarmUp + window,
	}
	for p := 0; p < s.n; p++ {
		if p != s.silent {
			r.honest = append(r.honest, p)
		}
	}
	for i := range r.cmds {
		client := i % twinClients
		value := make([]byte, twinValueBytes)
		value[0] = byte(i)
		r.cmds[i] = statemachine.Command{
			Client: uint64(client + 1), Seq: uint64(i/twinClients + 1), Op: statemachine.OpSet,
			Key: fmt.Sprintf("c%d/k%02d", client+1, (i/twinClients)%64), Value: value,
		}
		r.due[i] = time.Duration(i) * time.Second / twinRate
		r.home[i] = r.honest[client%len(r.honest)]
		r.homed[r.home[i]] = append(r.homed[r.home[i]], i)
	}
	inWindow := func(now time.Duration) bool { return now >= twinWarmUp && now < r.t1 }
	one := statemachine.NewQueue()
	net := simnet.New(simnet.Options{Seed: seed, Delay: s.links()})
	for p := 0; p < s.n; p++ {
		p, pid := p, types.PartyID(p)
		r.queues[p] = one
		var payload core.PayloadSource = undelegated{one}
		if !shared {
			r.queues[p] = statemachine.NewQueue()
			payload = r.queues[p]
		}
		q, kv := r.queues[p], statemachine.NewKV()
		var wrap func(*core.Engine) engine.Engine
		if p == s.silent {
			wrap = adversary.NewSilentLeader
		}
		ce, eng, err := node.Stack(core.Config{
			Self: pid, Keys: pub, Priv: privs[p],
			Beacon:     beacon.NewSimulated(s.n, pid, pub.GenesisSeed),
			DeltaBound: s.deltaBound, Epsilon: s.epsilon,
			Payload: payload,
			Hooks: core.Hooks{OnNotarizationShare: func(_ types.Round, late, now time.Duration) {
				if p != s.silent && inWindow(now) {
					r.res.shares++
					if late > 0 {
						r.res.lateShares++
					}
				}
			}, OnCommit: func(b *types.Block, now time.Duration) {
				_ = kv.Apply(b.Payload)
				q.MarkCommitted(b.Payload)
				r.commitAt[p] = append(r.commitAt[p], now)
				cmds, _ := statemachine.DecodePayload(b.Payload)
				for _, c := range cmds {
					if c.Seq == 0 || c.Client == 0 || c.Client > twinClients {
						continue
					}
					i := int(c.Seq-1)*twinClients + int(c.Client-1)
					if i < total && r.home[i] == p && r.done[i] == 0 {
						r.done[i] = now
					}
				}
			}},
		}, wrap, s.mode, node.Overlay{Seed: 42}, true)
		if err != nil {
			panic(fmt.Sprintf("experiments: twin party %d: %v", p, err))
		}
		if s.prop != nil {
			ce.SetProposalDelay(s.prop)
		}
		net.AddNode(&twinParty{Engine: eng, run: r, self: p}, p != s.silent)
	}
	net.Start()
	measured := r.done[int(twinWarmUp.Seconds()*twinRate):]
	t1 := r.t1
	net.RunUntil(func() bool {
		if net.Now() < t1 {
			return false
		}
		for _, at := range measured {
			if at == 0 {
				return false
			}
		}
		return true
	}, t1+twinDrain)

	finality := make([]time.Duration, len(measured))
	due := r.due[len(r.due)-len(measured):]
	for i, at := range measured {
		finality[i] = time.Duration(1 << 62) // never committed: beyond any percentile
		if at != 0 {
			finality[i] = at - due[i]
		} else {
			r.res.failed++
		}
	}
	sort.Slice(finality, func(i, j int) bool { return finality[i] < finality[j] })
	r.res.p50, r.res.p90 = nearestRank(finality, 0.5), nearestRank(finality, 0.9)
	r.res.commits = -1
	for _, p := range r.honest {
		count := 0
		for _, at := range r.commitAt[p] {
			if inWindow(at) {
				count++
			}
		}
		if r.res.commits < 0 || count < r.res.commits {
			r.res.commits = count
		}
	}
	r.res.commitsPerS = float64(r.res.commits) / window.Seconds()
	return r.res
}

// nearestRank is the bench's percentile: the nearest-rank p-quantile of
// sorted samples.
func nearestRank(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(sorted))))
	return sorted[max(rank, 1)-1]
}

// Twin reproduces the bench's workloads in virtual time (E30): per
// workload, the twin's finality p50/p90 and commit rate, the same with
// one queue shared by all parties, and the stream's forwards per commit.
func Twin(scale Scale) *Table {
	t := &Table{
		ID:    "E30",
		Title: "virtual-time twin of the bench workloads: what the protocol timers explain",
		Columns: []string{"workload", "twin p50", "twin p90", "twin blk/s", "failed",
			"shared p50", "shared p90", "shared blk/s", "fwd msgs/commit", "fwd bytes/party/commit"},
		Notes: []string{
			"node.Stack on simnet with the bench's shape and load: 200 cmd/s from 8 clients pinned to honest parties, 2 s warm-up; links 75–300 µs, beacon simulated, no TCP, no processor time",
			"shared: every party cuts from one queue all commands enter (no forwarding) — the bound on what forwarding can win",
			"residual = bench − twin is processor time plus event-loop queueing (EXPERIMENTS.md E30)",
		},
	}
	window := time.Duration(float64(20*time.Second) * scaleFactor(scale))
	for _, s := range twinShapes {
		res := runTwin(s, 1, window, false)
		sh := runTwin(s, 1, window, true)
		perCommit := func(v, parties int) string {
			if res.commits == 0 {
				return "–"
			}
			return fmt.Sprintf("%.2f", float64(v)/float64(parties)/float64(res.commits))
		}
		t.AddRow(s.name, twinMs(res.p50), twinMs(res.p90), fmt.Sprintf("%.2f", res.commitsPerS), fmt.Sprintf("%d", res.failed),
			twinMs(sh.p50), twinMs(sh.p90), fmt.Sprintf("%.2f", sh.commitsPerS),
			perCommit(res.forwards, 1), perCommit(res.fwdBytes, s.n))
	}
	return t
}

func twinMs(d time.Duration) string {
	return fmt.Sprintf("%.1fms", float64(d)/float64(time.Millisecond))
}

// cutLinkDelays are E32's and E36's mean one-way link delays: the bench's
// loopback, then up to a fifth of Δbnd.
var cutLinkDelays = []time.Duration{200 * time.Microsecond, 2 * time.Millisecond, 5 * time.Millisecond, 10 * time.Millisecond, 20 * time.Millisecond}

// cutAtHalf is Δprop(r) = 2Δbnd·r + ε/2, the leader's cut from E28 until
// E32 moved it to 3ε/4.
func cutAtHalf(deltaBound, epsilon time.Duration) types.DelayFunc {
	return func(r types.Rank) time.Duration { return 2*deltaBound*time.Duration(r) + epsilon/2 }
}

// cutAtThreeQuarters is types.StandardDelays' Δprop, whose 3ε/4 the
// leader cut at from E32 until E36 measured its margin, fixed.
func cutAtThreeQuarters(deltaBound, epsilon time.Duration) types.DelayFunc {
	prop, _ := types.StandardDelays(deltaBound, epsilon)
	return prop
}

// CutOnSlowLinks (E32, E36) runs the steady-n4 and tcp-gossip-n13 twins
// over slower and slower links with the leader's cut fixed at ε/2 and at
// 3ε/4, and measured (the engine's own: Δntry(0) less the quorum-rank lag
// of the others' blocks). A later cut lets more commands ride the round's
// block; once the block no longer reaches a quorum by their Δntry(0),
// each round grows by the excess, and blocks/s falls. The measured cut
// moves with the links.
func CutOnSlowLinks(scale Scale) *Table {
	t := &Table{
		ID:    "E36",
		Title: "the leader's cut fixed at ε/2 and 3ε/4, and measured, over slower links (virtual-time twin)",
		Columns: []string{"workload", "link", "p50 ε/2", "p50 3ε/4", "p50 meas", "p90 ε/2", "p90 3ε/4", "p90 meas",
			"blk/s ε/2", "blk/s 3ε/4", "blk/s meas", "late ε/2", "late 3ε/4", "late meas", "failed"},
		Notes: []string{
			"E30's twin (bench shape and load, seed 1) with links spread ±60 % around the mean one-way delay shown",
			"meas: the engine's measured cut, Δntry(0) − m with m the (n−t−1)-th smallest of the other parties' slots, each the second largest of that party's latest 8 lag samples",
			"late: notarization shares cast for a block that arrived after the party's Δntry, of all shares",
			"failed: measured commands never committed, all three cuts",
		},
	}
	window := time.Duration(float64(20*time.Second) * scaleFactor(scale))
	for _, s := range twinShapes {
		if s.name != "steady-n4" && s.name != "tcp-gossip-n13" {
			continue
		}
		for _, link := range cutLinkDelays {
			s := s
			s.link = link
			meas := runTwin(s, 1, window, false)
			s.prop = cutAtThreeQuarters(s.deltaBound, s.epsilon)
			std := runTwin(s, 1, window, false)
			s.prop = cutAtHalf(s.deltaBound, s.epsilon)
			half := runTwin(s, 1, window, false)
			late := func(res twinResult) string {
				if res.shares == 0 {
					return "–"
				}
				return fmt.Sprintf("%.1f%%", 100*float64(res.lateShares)/float64(res.shares))
			}
			blk := func(res twinResult) string { return fmt.Sprintf("%.2f", res.commitsPerS) }
			t.AddRow(s.name, twinMs(link), twinMs(half.p50), twinMs(std.p50), twinMs(meas.p50),
				twinMs(half.p90), twinMs(std.p90), twinMs(meas.p90),
				blk(half), blk(std), blk(meas), late(half), late(std), late(meas),
				fmt.Sprintf("%d", half.failed+std.failed+meas.failed))
		}
	}
	return t
}
