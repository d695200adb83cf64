package experiments

import (
	"fmt"
	"sync"
	"time"

	"icc/internal/baseline"
	"icc/internal/beacon"
	"icc/internal/engine"
	"icc/internal/harness"
	"icc/internal/oracle"
	"icc/internal/pool"
	"icc/internal/simnet"
	"icc/internal/types"
)

// WeakAdaptiveAdversary reproduces the §1.1 comparison of leader
// predictability (experiment E10): an adversary that needs κ rounds to
// complete a corruption silences upcoming leaders as soon as it learns
// who they are.
//
//   - ICC reveals the round-(k+1) beacon only while round k runs (the
//     pipelining of Fig. 1), so with κ = 1 the adversary compromises
//     every leader just in time — the protocol stays live through the
//     rank-1+ fallback at reduced speed — and with κ ≥ 2 ("weak"
//     adaptive, the paper's case) corruption always lands on a party
//     whose leadership round has already passed: no effect at all.
//   - HotStuff with fixed round-robin rotation publishes its entire
//     leader schedule in advance, so any κ lets the adversary mute every
//     view's leader and progress collapses to view timeouts ("O(n)
//     leader changes"; in fact with every leader muted, no QC ever
//     forms).
//
// The mute model: a corrupted party transmits nothing while its
// corruption is active (one round/view), then the mobile adversary moves
// on — always within a budget of t simultaneous corruptions (only one is
// ever needed here).
func WeakAdaptiveAdversary(scale Scale) *Table {
	const n = 7
	const delta = 10 * time.Millisecond
	const bound = 50 * time.Millisecond
	t := &Table{
		ID:      "E10",
		Title:   fmt.Sprintf("weak adaptive adversary: throughput vs corruption lag κ (n=%d, δ=%v, Δbnd=%v)", n, delta, bound),
		Columns: []string{"protocol", "κ (rounds to corrupt)", "commits/s", "vs uncorrupted"},
		Notes: []string{
			"ICC leaders are drawn per round from the random beacon, revealed one round ahead (pipelining)",
			"HotStuff baseline uses fixed round-robin rotation: the whole leader schedule is public",
		},
	}
	window := time.Duration(scale.scaleInt(60)) * time.Second

	// Reference runs without an adversary.
	iccBase := iccAdaptiveRun(n, delta, bound, window, -1)
	hsBase := hotstuffMutedRun(n, delta, bound, window, false)
	t.AddRow("ICC0", "-", rate(iccBase, window), "100%")
	t.AddRow("HotStuff (fixed rotation)", "-", rate(hsBase, window), "100%")

	for _, kappa := range []int{1, 2, 3} {
		commits := iccAdaptiveRun(n, delta, bound, window, kappa)
		t.AddRow("ICC0", fmt.Sprintf("%d", kappa), rate(commits, window),
			fmt.Sprintf("%.0f%%", 100*float64(commits)/float64(iccBase)))
	}
	// HotStuff: the schedule is known infinitely far ahead, so the lag
	// is irrelevant — one run covers every κ.
	muted := hotstuffMutedRun(n, delta, bound, window, true)
	t.AddRow("HotStuff (fixed rotation)", "any", rate(muted, window),
		fmt.Sprintf("%.0f%%", 100*float64(muted)/float64(hsBase)))
	return t
}

func rate(commits int64, window time.Duration) string {
	return fmt.Sprintf("%.1f", float64(commits)/window.Seconds())
}

// muteFilter drops every output of the inner engine while muted()
// reports true.
type muteFilter struct {
	inner engine.Engine
	muted func(round types.Round) bool
}

func (m *muteFilter) ID() types.PartyID { return m.inner.ID() }
func (m *muteFilter) Init(now time.Duration) []engine.Output {
	round := m.inner.CurrentRound()
	return m.filter(round, m.inner.Init(now))
}
func (m *muteFilter) HandleMessage(from types.PartyID, msg types.Message, now time.Duration) []engine.Output {
	round := m.inner.CurrentRound()
	return m.filter(round, m.inner.HandleMessage(from, msg, now))
}
func (m *muteFilter) Tick(now time.Duration) []engine.Output {
	round := m.inner.CurrentRound()
	return m.filter(round, m.inner.Tick(now))
}
func (m *muteFilter) NextWake(now time.Duration) (time.Duration, bool) { return m.inner.NextWake(now) }
func (m *muteFilter) CurrentRound() types.Round                        { return m.inner.CurrentRound() }

// filter drops the outputs if the party was muted in the round/view the
// inner call STARTED in — the round during which the outputs were
// produced (the engine may advance rounds within one call).
func (m *muteFilter) filter(round types.Round, outs []engine.Output) []engine.Output {
	if m.muted(round) {
		return nil
	}
	return outs
}

// iccAdaptiveRun runs ICC0 with the lag-κ leader-muting adversary and
// returns committed blocks. kappa < 0 disables the adversary.
func iccAdaptiveRun(n int, delta, bound, window time.Duration, kappa int) int64 {
	// The simulated beacon chain is deterministic from the genesis seed,
	// which lets the experiment compute, for every round k, who its
	// leader is — exactly the knowledge the adversary gains when the
	// round-k beacon is revealed (during round k−1, due to pipelining).
	// A lag of κ means the corruption of leader(k), ordered at the
	// earliest possible moment (round k−1), is active during rounds
	// [k−1+κ, k+κ). It hits round k iff κ = 1.
	//
	// Under that model the adversary mutes party p during round r iff p
	// is the leader of round r and κ = 1 — larger lags always miss. We
	// still compute the schedule explicitly to keep the model honest.
	leaders := make(map[types.Round]types.PartyID)
	var mu sync.Mutex
	var schedule *beacon.Simulated
	var scheduled types.Round

	opts := harness.Options{
		N:          n,
		Seed:       10100 + int64(kappa),
		Delay:      simnet.Fixed{D: delta},
		DeltaBound: bound,
		SimBeacon:  true,
		Verify:     pool.VerifyPreVerified,
		PruneDepth: simPruneDepth,
	}
	var pubSeed []byte
	opts.WrapEngine = func(p types.PartyID, e engine.Engine) engine.Engine {
		if kappa < 0 {
			return e
		}
		return &muteFilter{inner: e, muted: func(r types.Round) bool {
			mu.Lock()
			defer mu.Unlock()
			// Lazily extend the leader schedule by advancing a private
			// copy of the deterministic simulated beacon chain.
			if schedule == nil {
				schedule = beacon.NewSimulated(n, 0, pubSeed)
			}
			for scheduled < r {
				k := scheduled + 1
				for i := 0; i < n; i++ {
					share := &types.BeaconShare{Round: k, Signer: types.PartyID(i), Share: make([]byte, 97)}
					_, _ = schedule.AddShare(share)
				}
				if _, ok := schedule.Reveal(k); !ok {
					return false
				}
				if l, ok := schedule.Leader(k); ok {
					leaders[k] = l
				}
				scheduled = k
			}
			// Corruption of leader(r), ordered in round r−1, is active
			// during rounds [r−1+κ, r+κ): it mutes round r iff κ == 1.
			return kappa == 1 && leaders[r] == p
		}}
	}
	c, err := harness.New(opts)
	if err != nil {
		panic(fmt.Sprintf("experiments: %v", err))
	}
	pubSeed = c.Pub.GenesisSeed
	c.Start()
	c.Net.Run(window)
	safe("weak-adaptive", c.Judge(oracle.Safety))
	return c.Rec.Summarize().CommittedBlocks
}

// hotstuffMutedRun runs the HotStuff baseline, optionally muting every
// view's (publicly known) leader during its view.
func hotstuffMutedRun(n int, delta, bound, window time.Duration, mute bool) int64 {
	nw := simnet.New(simnet.Options{Seed: 10200, Delay: simnet.Fixed{D: delta}})
	log := oracle.NewLog(n)
	for i := 0; i < n; i++ {
		h := baseline.NewHotStuff(baseline.HotStuffConfig{
			Self: types.PartyID(i), N: n, DeltaBound: bound,
			OnCommit: log.Decided(types.PartyID(i)),
		})
		var eng engine.Engine = h
		if mute {
			pid := types.PartyID(i)
			eng = &muteFilter{inner: h, muted: func(r types.Round) bool {
				// Round-robin: leader(v) = v mod n is public forever.
				return types.PartyID(uint64(r)%uint64(n)) == pid
			}}
		}
		nw.AddNode(eng, true)
	}
	nw.Start()
	nw.Run(window)
	safe("hotstuff", oracle.Judge(log, oracle.Expect{Holds: oracle.Safety}))
	var commits int64
	for p := 0; p < n; p++ {
		commits += int64(log.Len(types.PartyID(p)))
	}
	return commits / int64(n)
}
