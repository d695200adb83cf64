package simnet

import (
	"math/rand"
	"testing"
	"time"

	"icc/internal/engine"
	"icc/internal/metrics"
	"icc/internal/types"
)

// echoEngine broadcasts one beacon-share message at Init, counts
// everything it receives, and requests a tick at a fixed period.
type echoEngine struct {
	id       types.PartyID
	received int
	ticks    int
	period   time.Duration
	lastWake time.Duration
	history  []string
}

func (e *echoEngine) ID() types.PartyID { return e.id }

func (e *echoEngine) Init(now time.Duration) []engine.Output {
	return []engine.Output{engine.Broadcast(&types.BeaconShare{Round: 1, Signer: e.id, Share: []byte{byte(e.id)}})}
}

func (e *echoEngine) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	e.received++
	e.history = append(e.history, from.String())
	return nil
}

func (e *echoEngine) Tick(now time.Duration) []engine.Output {
	e.ticks++
	e.lastWake = now + e.period
	return nil
}

func (e *echoEngine) NextWake(now time.Duration) (time.Duration, bool) {
	if e.period == 0 || e.ticks >= 3 {
		return 0, false
	}
	return now + e.period, true
}

func (e *echoEngine) CurrentRound() types.Round { return 1 }

func build(t *testing.T, n int, opts Options) (*Network, []*echoEngine) {
	t.Helper()
	nw := New(opts)
	engines := make([]*echoEngine, n)
	for i := 0; i < n; i++ {
		engines[i] = &echoEngine{id: types.PartyID(i)}
		nw.AddNode(engines[i], true)
	}
	return nw, engines
}

func TestBroadcastReachesEveryoneExceptSender(t *testing.T) {
	nw, engines := build(t, 5, Options{Seed: 1, Delay: Fixed{D: 10 * time.Millisecond}})
	nw.Start()
	nw.Run(time.Second)
	for i, e := range engines {
		if e.received != 4 {
			t.Fatalf("engine %d received %d messages, want 4", i, e.received)
		}
	}
	if nw.Now() != time.Second {
		t.Fatalf("final time %v, want 1s", nw.Now())
	}
}

func TestDeterminism(t *testing.T) {
	run := func() []string {
		nw, engines := build(t, 6, Options{Seed: 42, Delay: Uniform{Min: time.Millisecond, Max: 50 * time.Millisecond}})
		nw.Start()
		nw.Run(time.Second)
		var all []string
		for _, e := range engines {
			all = append(all, e.history...)
		}
		return all
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("different event counts: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("delivery order diverged at %d: %s vs %s", i, a[i], b[i])
		}
	}
}

func TestCrashStopsDelivery(t *testing.T) {
	nw, engines := build(t, 3, Options{Seed: 7, Delay: Fixed{D: 5 * time.Millisecond}})
	nw.Crash(2)
	nw.Start()
	nw.Run(time.Second)
	if engines[2].received != 0 {
		t.Fatalf("crashed node received %d messages", engines[2].received)
	}
	// Others still hear each other AND the crashed node's Init broadcast
	// (crash only stops reception here; silent-from-birth behaviour is an
	// adversary-engine concern).
	if engines[0].received != 2 {
		t.Fatalf("node 0 received %d, want 2", engines[0].received)
	}
}

func TestTicksFollowNextWake(t *testing.T) {
	nw := New(Options{Seed: 1, Delay: Fixed{D: time.Millisecond}})
	e := &echoEngine{id: 0, period: 100 * time.Millisecond}
	nw.AddNode(e, true)
	nw.Start()
	nw.Run(time.Second)
	if e.ticks != 3 {
		t.Fatalf("ticks = %d, want 3 (engine stops asking after 3)", e.ticks)
	}
}

func TestRecorderCountsSends(t *testing.T) {
	rec := metrics.NewRecorder(4)
	nw, _ := build(t, 4, Options{Seed: 1, Delay: Fixed{D: time.Millisecond}, Recorder: rec})
	nw.Start()
	nw.Run(time.Second)
	s := rec.Summarize()
	// 4 nodes broadcast once each to 3 peers.
	if s.TotalMsgs != 12 {
		t.Fatalf("total messages = %d, want 12", s.TotalMsgs)
	}
	if got := rec.RoundMsgs(1); got != 12 {
		t.Fatalf("round-1 message complexity = %d, want 12", got)
	}
	if s.TotalBytes <= 0 || s.MaxPartyBytes <= 0 {
		t.Fatal("byte accounting missing")
	}
}

func TestRunUntil(t *testing.T) {
	nw, engines := build(t, 3, Options{Seed: 1, Delay: Fixed{D: 10 * time.Millisecond}})
	nw.Start()
	ok := nw.RunUntil(func() bool { return engines[0].received == 2 }, time.Second)
	if !ok {
		t.Fatal("predicate never satisfied")
	}
	if nw.Now() != 10*time.Millisecond {
		t.Fatalf("predicate satisfied at %v, want 10ms", nw.Now())
	}
	if !nw.RunUntil(func() bool { return true }, 0) {
		t.Fatal("trivially-true predicate failed")
	}
	if nw.RunUntil(func() bool { return false }, 20*time.Millisecond) {
		t.Fatal("impossible predicate succeeded")
	}
}

func TestWANMatrixBounds(t *testing.T) {
	const n = 10
	m := NewWANMatrix(n, 6*time.Millisecond, 110*time.Millisecond, 3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			if m.Base[i][j] != m.Base[j][i] {
				t.Fatal("matrix not symmetric")
			}
			d, ok := m.Sample(rng, types.PartyID(i), types.PartyID(j), 100)
			if !ok {
				t.Fatal("WAN matrix dropped a message")
			}
			if d < 3*time.Millisecond || d > 60*time.Millisecond {
				t.Fatalf("one-way delay %v outside [3ms, 60ms]", d)
			}
		}
	}
	if m.MaxOneWay() < 3*time.Millisecond {
		t.Fatal("MaxOneWay too small")
	}
}

func TestBandwidthAddsTransmissionTime(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := Bandwidth{Inner: Fixed{D: 10 * time.Millisecond}, BytesPerSec: 1000}
	d, ok := b.Sample(rng, 0, 1, 500) // 500 bytes at 1000 B/s = 500ms
	if !ok || d != 510*time.Millisecond {
		t.Fatalf("bandwidth delay = %v, want 510ms", d)
	}
}

func TestAsyncWindowsInflateDelays(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	aw := &AsyncWindows{
		Inner:   Fixed{D: 10 * time.Millisecond},
		Windows: []Window{{From: 100 * time.Millisecond, To: 200 * time.Millisecond}},
		Extra:   time.Second,
	}
	aw.SetNow(50 * time.Millisecond)
	d, _ := aw.Sample(rng, 0, 1, 0)
	if d != 10*time.Millisecond {
		t.Fatalf("outside window: %v", d)
	}
	aw.SetNow(150 * time.Millisecond)
	d, _ = aw.Sample(rng, 0, 1, 0)
	// 10ms base + 1s extra + 50ms residual window = 1.06s
	if d != 10*time.Millisecond+time.Second+50*time.Millisecond {
		t.Fatalf("inside window: %v", d)
	}
}

func TestPartitionHoldsCrossGroupTraffic(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	p := &Partition{
		Inner:   Fixed{D: 10 * time.Millisecond},
		Windows: []Window{{From: 100 * time.Millisecond, To: 300 * time.Millisecond}},
		Group:   map[types.PartyID]int{2: 1}, // {0,1} | {2}
	}
	p.SetNow(150 * time.Millisecond)
	d, ok := p.Sample(rng, 0, 2, 0)
	// Held at the cut for the remaining 150ms of the window, then the
	// 10ms residual delay.
	if !ok || d != 150*time.Millisecond+10*time.Millisecond {
		t.Fatalf("cross-group delay inside window = %v, want 160ms", d)
	}
	d, ok = p.Sample(rng, 0, 1, 0)
	if !ok || d != 10*time.Millisecond {
		t.Fatalf("same-group delay inside window = %v, want 10ms", d)
	}
	p.SetNow(400 * time.Millisecond)
	d, ok = p.Sample(rng, 0, 2, 0)
	if !ok || d != 10*time.Millisecond {
		t.Fatalf("cross-group delay after window = %v, want 10ms", d)
	}
}

func TestPartitionEndToEnd(t *testing.T) {
	// Groups {0,1} | {2} with the cut open from the very start: the Init
	// broadcasts (sent at t=0) between groups are held until the window
	// closes at 100ms, while intra-group traffic flows normally.
	pm := &Partition{
		Inner:   Fixed{D: 10 * time.Millisecond},
		Windows: []Window{{From: 0, To: 100 * time.Millisecond}},
		Group:   map[types.PartyID]int{2: 1},
	}
	nw, engines := build(t, 3, Options{Seed: 4, Delay: pm})
	nw.Start()
	nw.Run(50 * time.Millisecond)
	if engines[2].received != 0 {
		t.Fatalf("partitioned node received %d messages during the window", engines[2].received)
	}
	if engines[0].received != 1 || engines[1].received != 1 {
		t.Fatalf("intra-group delivery broken: %d/%d", engines[0].received, engines[1].received)
	}
	nw.Run(time.Second)
	for i, e := range engines {
		if e.received != 2 {
			t.Fatalf("engine %d received %d after heal, want 2 (nothing lost)", i, e.received)
		}
	}
}

// exceptEngine broadcasts to everyone but party 0 at Init: the zero
// PartyID, which an Output without an explicit flag could not leave out.
type exceptEngine struct{ echoEngine }

func (e *exceptEngine) Init(time.Duration) []engine.Output {
	return []engine.Output{engine.BroadcastExcept(0, &types.BeaconShare{Round: 1, Signer: e.id})}
}

func TestBroadcastExceptLeavesOneOut(t *testing.T) {
	rec := metrics.NewRecorder(4)
	nw := New(Options{Seed: 1, Delay: Fixed{D: 10 * time.Millisecond}, Recorder: rec})
	engines := make([]*exceptEngine, 4)
	for i := range engines {
		engines[i] = &exceptEngine{echoEngine{id: types.PartyID(i)}}
		nw.AddNode(engines[i], true)
	}
	nw.Start()
	nw.Run(time.Second)
	// Party 0 is skipped by the other three; everyone else hears the
	// three others (party 0's own broadcast skips only itself).
	for i, e := range engines {
		want := 3
		if i == 0 {
			want = 0
		}
		if e.received != want {
			t.Errorf("engine %d received %d messages, want %d", i, e.received, want)
		}
	}
	if got := rec.Summarize().TotalMsgs; got != 3+3*2 {
		t.Errorf("recorder counted %d messages sent, want %d", got, 3+3*2)
	}
}
