package runtime

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"icc/internal/clock"
	"icc/internal/engine"
	"icc/internal/metrics"
	"icc/internal/obs"
	"icc/internal/pool"
	"icc/internal/transport"
	"icc/internal/types"
	"icc/internal/verify"
)

// pingEngine broadcasts one message at Init, counts receipts, and asks
// for a tick shortly after start.
type pingEngine struct {
	mu       sync.Mutex
	id       types.PartyID
	received int
	ticks    int
	wakeAt   time.Duration
	woken    bool
}

func (p *pingEngine) ID() types.PartyID { return p.id }

func (p *pingEngine) Init(now time.Duration) []engine.Output {
	return []engine.Output{engine.Broadcast(&types.BeaconShare{Round: 1, Signer: p.id, Share: []byte{byte(p.id)}})}
}

func (p *pingEngine) HandleMessage(_ types.PartyID, _ types.Message, _ time.Duration) []engine.Output {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.received++
	return nil
}

func (p *pingEngine) Tick(now time.Duration) []engine.Output {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.ticks++
	p.woken = true
	return nil
}

func (p *pingEngine) NextWake(now time.Duration) (time.Duration, bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.woken {
		return 0, false
	}
	return p.wakeAt, true
}

func (p *pingEngine) CurrentRound() types.Round { return 1 }

func (p *pingEngine) snapshot() (int, int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.received, p.ticks
}

func TestRunnersExchangeMessages(t *testing.T) {
	const n = 3
	hub := transport.NewInproc(n)
	defer hub.Close()
	clk := clock.NewWall()
	engines := make([]*pingEngine, n)
	runners := make([]*Runner, n)
	for i := 0; i < n; i++ {
		engines[i] = &pingEngine{id: types.PartyID(i), wakeAt: 20 * time.Millisecond}
		runners[i] = NewRunner(engines[i], hub.Endpoint(types.PartyID(i)), clk, n)
		runners[i].Start()
	}
	defer func() {
		for _, r := range runners {
			r.Stop()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		ok := true
		for _, e := range engines {
			recv, ticks := e.snapshot()
			if recv != n-1 || ticks == 0 {
				ok = false
				break
			}
		}
		if ok {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, e := range engines {
		recv, ticks := e.snapshot()
		t.Logf("engine %d: received %d, ticks %d", i, recv, ticks)
	}
	t.Fatal("runners did not exchange messages and tick")
}

// failingEndpoint wraps an Endpoint, failing every send to one party.
type failingEndpoint struct {
	transport.Endpoint
	failTo types.PartyID
}

func (f *failingEndpoint) Send(to types.PartyID, m types.Message) error {
	if to == f.failTo {
		return errors.New("injected send failure")
	}
	return f.Endpoint.Send(to, m)
}

// TestBroadcastContinuesPastFailingPeer is the regression test for
// runner.send's error handling: a failed send to one peer must not stop
// the broadcast reaching the remaining peers, and the failure must be
// counted rather than silently swallowed.
func TestBroadcastContinuesPastFailingPeer(t *testing.T) {
	const n = 4
	hub := transport.NewInproc(n)
	defer hub.Close()
	reg := obs.NewRegistry()
	stats := metrics.NewTransportStatsOn(reg, nil)
	clk := clock.NewWall()
	engines := make([]*pingEngine, n)
	runners := make([]*Runner, n)
	for i := 0; i < n; i++ {
		engines[i] = &pingEngine{id: types.PartyID(i), wakeAt: time.Hour, woken: true}
		var ep transport.Endpoint = hub.Endpoint(types.PartyID(i))
		if i == 0 {
			// Party 0 cannot reach party 2 at all.
			ep = &failingEndpoint{Endpoint: ep, failTo: 2}
		}
		runners[i] = NewRunner(engines[i], ep, clk, n)
		runners[i].SetTransportStats(stats)
		runners[i].Start()
	}
	defer func() {
		for _, r := range runners {
			r.Stop()
		}
	}()
	// Party 0's Init broadcast must still reach parties 1 and 3; with
	// everyone broadcasting once, party 2 receives only n-2 messages.
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		r1, _ := engines[1].snapshot()
		r2, _ := engines[2].snapshot()
		r3, _ := engines[3].snapshot()
		if r1 == n-1 && r3 == n-1 && r2 == n-2 {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if r1, _ := engines[1].snapshot(); r1 != n-1 {
		t.Fatalf("party 1 received %d of %d broadcasts", r1, n-1)
	}
	if r3, _ := engines[3].snapshot(); r3 != n-1 {
		t.Fatalf("party 3 received %d of %d broadcasts", r3, n-1)
	}
	if r2, _ := engines[2].snapshot(); r2 != n-2 {
		t.Fatalf("party 2 received %d, want %d (only the failing link is cut)", r2, n-2)
	}
	if got := reg.Snapshot().Get("icc_transport_send_errors_total"); got != 1 {
		t.Fatalf("send errors = %v, want exactly 1 (party 0's broadcast to party 2)", got)
	}
}

func TestStopIsIdempotentAndTerminates(t *testing.T) {
	hub := transport.NewInproc(1)
	defer hub.Close()
	e := &pingEngine{id: 0, wakeAt: time.Hour}
	r := NewRunner(e, hub.Endpoint(0), clock.NewWall(), 1)
	r.Start()
	done := make(chan struct{})
	go func() {
		r.Stop()
		r.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung")
	}
}

func TestRunnerExitsWhenInboxCloses(t *testing.T) {
	hub := transport.NewInproc(1)
	e := &pingEngine{id: 0, wakeAt: time.Hour}
	r := NewRunner(e, hub.Endpoint(0), clock.NewWall(), 1)
	r.Start()
	hub.Close() // closes the inbox channel
	done := make(chan struct{})
	go func() {
		r.Stop() // must return promptly because the loop already exited
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("runner did not exit on closed inbox")
	}
}

// exceptEngine broadcasts to everyone but party 0 at Init: the zero
// PartyID, which an Output without an explicit flag could not leave out.
type exceptEngine struct{ pingEngine }

func (p *exceptEngine) Init(time.Duration) []engine.Output {
	return []engine.Output{engine.BroadcastExcept(0, &types.BeaconShare{Round: 1, Signer: p.id})}
}

func TestRunnerHonoursBroadcastExcept(t *testing.T) {
	const n = 4
	hub := transport.NewInproc(n)
	defer hub.Close()
	clk := clock.NewWall()
	engines := make([]*exceptEngine, n)
	runners := make([]*Runner, n)
	for i := 0; i < n; i++ {
		engines[i] = &exceptEngine{pingEngine{id: types.PartyID(i), wakeAt: time.Hour}}
		runners[i] = NewRunner(engines[i], hub.Endpoint(types.PartyID(i)), clk, n)
		runners[i].Start()
	}
	defer func() {
		for _, r := range runners {
			r.Stop()
		}
	}()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		done := true
		for _, e := range engines[1:] {
			if recv, _ := e.snapshot(); recv != n-1 {
				done = false
			}
		}
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for i, e := range engines {
		want := n - 1
		if i == 0 {
			want = 0 // left out by the other three
		}
		if recv, _ := e.snapshot(); recv != want {
			t.Errorf("engine %d received %d messages, want %d", i, recv, want)
		}
	}
}

// wakingEngine is a pingEngine with a wake channel, as a core.Engine over
// a command queue has.
type wakingEngine struct {
	pingEngine
	wake chan struct{}
}

func (w *wakingEngine) Wake() <-chan struct{} { return w.wake }

// TestRunnerTicksOnAnAdmissionWake: an engine that waits on no timer is
// ticked when its wake channel fires, and the observer counts the wake
// apart from timer ticks, whose lateness it records.
func TestRunnerTicksOnAnAdmissionWake(t *testing.T) {
	hub := transport.NewInproc(1)
	defer hub.Close()
	eng := &wakingEngine{pingEngine: pingEngine{wakeAt: time.Millisecond}, wake: make(chan struct{}, 1)}
	reg := obs.NewRegistry()
	r := NewRunner(eng, hub.Endpoint(0), clock.NewWall(), 1)
	r.SetObserver(obs.NewObserver(obs.ObserverConfig{Registry: reg}))
	r.Start()
	defer r.Stop()
	waitTicks := func(want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if _, ticks := eng.snapshot(); ticks >= want {
				return
			}
			time.Sleep(time.Millisecond)
		}
		t.Fatalf("the engine was not ticked %d times", want)
	}
	waitTicks(1) // the timer tick it asked for; from then on it waits on nothing
	eng.wake <- struct{}{}
	waitTicks(2)
	snap := reg.Snapshot()
	if got := snap.Get("icc_runtime_admission_wakes_total"); got != 1 {
		t.Fatalf("%v admission wakes counted, want 1", got)
	}
	if got := snap.Get("icc_runtime_tick_late_seconds_count"); got != 1 {
		t.Fatalf("%v timer ticks timed, want the 1 timer tick", got)
	}
}

// slowEngine is a pingEngine whose every message takes a while.
type slowEngine struct{ pingEngine }

func (s *slowEngine) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	time.Sleep(20 * time.Millisecond)
	return s.pingEngine.HandleMessage(from, m, now)
}

// TestInboxWaitCountsFromArrival: icc_runtime_inbox_wait_seconds times
// each message from the instant the transport decoded it to its delivery,
// through the verify pipeline when there is one: three messages that
// arrive together behind a 20 ms engine call wait 0, 20 and 40 ms.
func TestInboxWaitCountsFromArrival(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		hub := transport.NewInproc(2)
		eng := &slowEngine{pingEngine{id: 0, woken: true}}
		reg := obs.NewRegistry()
		r := NewRunner(eng, hub.Endpoint(0), clock.NewWall(), 2)
		r.SetObserver(obs.NewObserver(obs.ObserverConfig{Registry: reg}))
		if pipelined {
			r.SetVerifyPipeline(verify.New(pool.NewVerifier(nil, pool.VerifyFull), verify.Options{Workers: 1}))
		}
		r.Start()
		peer := hub.Endpoint(1)
		for k := types.Round(1); k <= 3; k++ {
			if err := peer.Send(0, &types.BeaconShare{Round: k, Signer: 1, Share: []byte{1}}); err != nil {
				t.Fatal(err)
			}
		}
		deadline := time.Now().Add(5 * time.Second)
		for recv, _ := eng.snapshot(); recv < 3 && time.Now().Before(deadline); recv, _ = eng.snapshot() {
			time.Sleep(time.Millisecond)
		}
		r.Stop()
		hub.Close()
		snap := reg.Snapshot()
		if got := snap.Get("icc_runtime_inbox_wait_seconds_count"); got != 3 {
			t.Fatalf("pipelined=%v: %v messages timed, want 3", pipelined, got)
		}
		if got := snap.Get("icc_runtime_inbox_wait_seconds_sum"); got < 0.055 {
			t.Fatalf("pipelined=%v: waits sum to %.3fs, want at least the 20 + 40 ms the last two queued", pipelined, got)
		}
	}
}

// TestTurnSecondsTimesEachEngineCall: icc_runtime_turn_seconds times the
// engine call alone, labelled by what made it: a message whose
// HandleMessage sleeps 20 ms lands in the 10–25 ms bucket of
// call="message", and the one timer tick under call="tick".
func TestTurnSecondsTimesEachEngineCall(t *testing.T) {
	hub := transport.NewInproc(2)
	defer hub.Close()
	eng := &slowEngine{pingEngine{id: 0, wakeAt: time.Millisecond}}
	reg := obs.NewRegistry()
	r := NewRunner(eng, hub.Endpoint(0), clock.NewWall(), 2)
	r.SetObserver(obs.NewObserver(obs.ObserverConfig{Registry: reg}))
	r.Start()
	if err := hub.Endpoint(1).Send(0, &types.BeaconShare{Round: 1, Signer: 1, Share: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for recv, ticks := eng.snapshot(); (recv < 1 || ticks < 1) && time.Now().Before(deadline); recv, ticks = eng.snapshot() {
		time.Sleep(time.Millisecond)
	}
	r.Stop()
	var text strings.Builder
	if err := reg.WritePrometheus(&text); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`icc_runtime_turn_seconds_bucket{call="message",le="0.01"} 0`,
		`icc_runtime_turn_seconds_bucket{call="message",le="0.025"} 1`,
		`icc_runtime_turn_seconds_count{call="message"} 1`,
		`icc_runtime_turn_seconds_count{call="tick"} 1`,
		`icc_runtime_turn_seconds_count{call="wake"} 0`,
	} {
		if !strings.Contains(text.String(), want+"\n") {
			t.Errorf("no line %q in\n%s", want, grepLines(text.String(), "icc_runtime_turn_seconds"))
		}
	}
}

func grepLines(text, prefix string) string {
	var keep []string
	for _, l := range strings.Split(text, "\n") {
		if strings.HasPrefix(l, prefix) {
			keep = append(keep, l)
		}
	}
	return strings.Join(keep, "\n")
}
