// Package runtime hosts a consensus engine on real time: a goroutine
// event loop that feeds the engine received messages and timer ticks and
// pushes its outputs into a transport. The same engine code that runs
// under the discrete-event simulator runs here unchanged.
package runtime

import (
	"sync"
	"time"

	"icc/internal/backfill"
	"icc/internal/clock"
	"icc/internal/engine"
	"icc/internal/metrics"
	"icc/internal/obs"
	"icc/internal/transport"
	"icc/internal/types"
	"icc/internal/verify"
)

// Runner drives one engine.
type Runner struct {
	eng   engine.Engine
	ep    transport.Endpoint
	clk   clock.Clock
	n     int
	stats *metrics.TransportStats
	obs   *obs.Observer
	pipe  *verify.Pipeline
	bfill *backfill.Worker

	stop     chan struct{}
	stopOnce sync.Once
	wg       sync.WaitGroup
}

// NewRunner assembles a runner for an n-party cluster.
func NewRunner(eng engine.Engine, ep transport.Endpoint, clk clock.Clock, n int) *Runner {
	return &Runner{
		eng:  eng,
		ep:   ep,
		clk:  clk,
		n:    n,
		stop: make(chan struct{}),
	}
}

// SetTransportStats attaches transport-health counters: send failures
// observed by the event loop are recorded there instead of vanishing.
// Call before Start.
func (r *Runner) SetTransportStats(s *metrics.TransportStats) { r.stats = s }

// SetObserver attaches an event-loop observer: messages and ticks
// delivered to the engine are counted on its registry. Call before
// Start. A nil observer is a no-op.
func (r *Runner) SetObserver(ob *obs.Observer) { r.obs = ob }

// SetVerifyPipeline interposes a parallel verification pipeline between
// the transport inbox and the engine: inbound envelopes are handed to
// the pipeline's workers, and only verified envelopes reach
// HandleMessage. The engine's pool should then run pool.VerifyPreVerified
// so signatures are not checked twice. Call before Start; the runner
// closes the pipeline on Stop. A nil pipeline keeps the synchronous
// path (the engine verifies inline).
func (r *Runner) SetVerifyPipeline(p *verify.Pipeline) { r.pipe = p }

// SetBackfillWorker ties a catch-up backfill worker's lifecycle to the
// runner: the worker (already wired into the engine as its
// core.CatchupProvider) is closed on Stop, after the event loop exits.
// Call before Start. A nil worker is a no-op.
func (r *Runner) SetBackfillWorker(w *backfill.Worker) { r.bfill = w }

// Start launches the event loop.
func (r *Runner) Start() {
	r.wg.Add(1)
	go r.loop()
}

// Stop terminates the loop, waits for it to exit, and closes the
// verification pipeline and backfill worker if attached.
func (r *Runner) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.wg.Wait()
	if r.pipe != nil {
		r.pipe.Close()
	}
	if r.bfill != nil {
		r.bfill.Close()
	}
}

func (r *Runner) loop() {
	defer r.wg.Done()
	r.send(r.eng.Init(r.clk.Now()))
	r.noteRound()

	// With a pipeline, raw envelopes detour through the worker pool and
	// come back on verified; without one they are handled inline.
	var verified <-chan transport.Envelope
	if r.pipe != nil {
		verified = r.pipe.Out()
	}

	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	for {
		r.armTimer(timer)
		select {
		case <-r.stop:
			return
		case env, ok := <-r.ep.Inbox():
			if !ok {
				return
			}
			if r.pipe != nil {
				// Never block on a full submission queue: this loop is
				// also the sole drain of the verified channel, so it
				// must keep consuming while it waits for queue space.
				// The timer stays armed here too — under sustained
				// inbound pressure this inner loop can run for a long
				// time, and the engine's timeouts (resync Status, delay
				// bounds) must keep firing or a saturated party silently
				// loses its stall recovery.
				for !r.pipe.TrySubmit(env) {
					if r.pipe.Closed() {
						return
					}
					select {
					case <-r.stop:
						return
					case v := <-verified:
						r.obs.MessageReceived()
						r.send(r.eng.HandleMessage(v.From, v.Msg, r.clk.Now()))
						r.noteRound()
						// HandleMessage can pull NextWake earlier (a
						// notarization starts a delay-bound window); with
						// the stale deadline the tick would fire late for
						// as long as inbound pressure keeps us in this
						// loop.
						r.armTimer(timer)
					case <-timer.C:
						r.obs.TickFired()
						r.send(r.eng.Tick(r.clk.Now()))
						r.noteRound()
						r.armTimer(timer)
					}
				}
				continue
			}
			r.obs.MessageReceived()
			r.send(r.eng.HandleMessage(env.From, env.Msg, r.clk.Now()))
			r.noteRound()
		case env := <-verified:
			r.obs.MessageReceived()
			r.send(r.eng.HandleMessage(env.From, env.Msg, r.clk.Now()))
			r.noteRound()
		case <-timer.C:
			r.obs.TickFired()
			r.send(r.eng.Tick(r.clk.Now()))
			r.noteRound()
		}
	}
}

// noteRound feeds the engine's working round to the verification
// pipeline after every engine interaction, so its behind-frontier
// shedding predicate tracks actual progress. Called only from the event
// loop goroutine (CurrentRound is not synchronized).
func (r *Runner) noteRound() {
	if r.pipe != nil {
		r.pipe.NoteEngineRound(r.eng.CurrentRound())
	}
}

// armTimer resets the timer to the engine's next wake point.
func (r *Runner) armTimer(timer *time.Timer) {
	if !timer.Stop() {
		select {
		case <-timer.C:
		default:
		}
	}
	now := r.clk.Now()
	if at, ok := r.eng.NextWake(now); ok {
		d := at - now
		if d < 0 {
			d = 0
		}
		timer.Reset(d)
		return
	}
	timer.Reset(time.Hour) // no pending wake: idle heartbeat
}

// send pushes engine outputs into the transport. Failures are counted,
// never fatal: recovery is protocol-level (echo, catch-up), and a
// broadcast keeps attempting the remaining peers so one sick peer never
// costs the healthy ones their copy.
func (r *Runner) send(outs []engine.Output) {
	for _, o := range outs {
		if o.Broadcast {
			for p := 0; p < r.n; p++ {
				pid := types.PartyID(p)
				if pid == r.eng.ID() || o.Skips(pid) {
					continue
				}
				if err := r.ep.Send(pid, o.Msg); err != nil {
					r.stats.SendError()
				}
			}
			continue
		}
		if err := r.ep.Send(o.To, o.Msg); err != nil {
			r.stats.SendError()
		}
	}
}
