package runtime

import (
	"errors"
	"sync"
	"testing"
	"time"

	"icc/internal/clock"
	"icc/internal/engine"
	"icc/internal/metrics"
	"icc/internal/transport"
	"icc/internal/types"
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
	stats := metrics.NewTransportStats()
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
	if snap := stats.Detail(); snap.SendErrors != 1 {
		t.Fatalf("send errors = %d, want exactly 1 (party 0's broadcast to party 2)", snap.SendErrors)
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
