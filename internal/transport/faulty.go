package transport

import (
	"math/rand"
	"sync"
	"time"

	"icc/internal/types"
)

// FaultPlan is a deterministic, seedable fault schedule for a Faulty
// endpoint. Probabilistic faults (drop, duplicate, delay) are drawn
// from a rand stream seeded with Seed, so given the same sequence of
// Send calls the same faults occur; timed partitions are purely a
// function of elapsed time. Rates are probabilities in [0, 1].
type FaultPlan struct {
	Seed int64

	// DropRate silently discards an outbound message.
	DropRate float64
	// DupRate transmits an outbound message twice.
	DupRate float64
	// DelayRate holds an outbound message for a uniform random delay in
	// (0, MaxDelay], reordering it behind later traffic.
	DelayRate float64
	MaxDelay  time.Duration

	// FaultsUntil, if positive, confines the probabilistic faults to the
	// first FaultsUntil of the endpoint's lifetime — after that the
	// network is clean, the configuration chaos tests use to assert
	// "finalization resumes after the faults end".
	FaultsUntil time.Duration

	// Partitions are timed bidirectional cuts between party sets.
	Partitions []PartitionWindow
}

// PartitionWindow severs all traffic between the parties in A and the
// parties in B (both directions) during [From, To), measured from the
// endpoint's creation. Messages crossing the cut are black-holed, as on
// a real partition — recovery is the protocol's job.
type PartitionWindow struct {
	From, To time.Duration
	A, B     []types.PartyID
}

// cut reports whether the window severs the (from, to) link at offset t.
func (w PartitionWindow) cut(from, to types.PartyID, t time.Duration) bool {
	if t < w.From || t >= w.To {
		return false
	}
	return (containsParty(w.A, from) && containsParty(w.B, to)) ||
		(containsParty(w.B, from) && containsParty(w.A, to))
}

func containsParty(set []types.PartyID, p types.PartyID) bool {
	for _, q := range set {
		if q == p {
			return true
		}
	}
	return false
}

// FaultyStats counts the faults a Faulty endpoint has injected.
type FaultyStats struct {
	Dropped    int64 // outbound messages discarded by DropRate
	Duplicated int64 // outbound messages sent twice
	Delayed    int64 // outbound messages held for reordering
	Cut        int64 // messages black-holed by a partition (both directions)
}

// Faulty wraps an Endpoint with fault injection, so the identical
// engine + runner stack that runs in production can be exercised under
// message drops, duplication, reordering, and timed partitions — the
// message-adversary behaviours the paper's robustness claims are about.
// Outbound messages pass through the probabilistic fault schedule;
// partitions are enforced on both the send and receive side, so a
// partition holds even when the remote endpoint is not wrapped.
type Faulty struct {
	inner Endpoint
	self  types.PartyID
	plan  FaultPlan

	out  chan Envelope
	done chan struct{}
	wg   sync.WaitGroup
	once sync.Once

	// now returns the elapsed offset used for windows; replaceable in
	// tests for deterministic timing.
	now func() time.Duration

	mu    sync.Mutex
	rng   *rand.Rand
	stats FaultyStats

	closeErr error
}

// NewFaulty wraps inner, which speaks for party self, in the given
// fault plan. The plan's time windows start now.
func NewFaulty(inner Endpoint, self types.PartyID, plan FaultPlan) *Faulty {
	start := time.Now()
	f := &Faulty{
		inner: inner,
		self:  self,
		plan:  plan,
		out:   make(chan Envelope, inboxSize),
		done:  make(chan struct{}),
		now:   func() time.Duration { return time.Since(start) },
		rng:   rand.New(rand.NewSource(plan.Seed)),
	}
	f.wg.Add(1)
	go f.pump()
	return f
}

// Stats returns a snapshot of the injected-fault counters.
func (f *Faulty) Stats() FaultyStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// partitioned reports whether the link between self and peer is cut.
func (f *Faulty) partitioned(peer types.PartyID, t time.Duration) bool {
	for _, w := range f.plan.Partitions {
		if w.cut(f.self, peer, t) {
			return true
		}
	}
	return false
}

// roll draws this message's probabilistic fault decisions.
func (f *Faulty) roll(t time.Duration) (drop, dup bool, delay time.Duration) {
	if f.plan.FaultsUntil > 0 && t >= f.plan.FaultsUntil {
		return false, false, 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.plan.DropRate > 0 && f.rng.Float64() < f.plan.DropRate {
		f.stats.Dropped++
		return true, false, 0
	}
	if f.plan.DupRate > 0 && f.rng.Float64() < f.plan.DupRate {
		f.stats.Duplicated++
		dup = true
	}
	if f.plan.DelayRate > 0 && f.plan.MaxDelay > 0 && f.rng.Float64() < f.plan.DelayRate {
		f.stats.Delayed++
		delay = time.Duration(1 + f.rng.Int63n(int64(f.plan.MaxDelay)))
	}
	return false, dup, delay
}

// Send implements Endpoint, applying the fault schedule.
func (f *Faulty) Send(to types.PartyID, m types.Message) error {
	t := f.now()
	if f.partitioned(to, t) {
		f.mu.Lock()
		f.stats.Cut++
		f.mu.Unlock()
		return nil // black-holed, as on a real partition
	}
	drop, dup, delay := f.roll(t)
	if drop {
		return nil
	}
	if delay > 0 {
		f.wg.Add(1)
		go func() {
			defer f.wg.Done()
			timer := time.NewTimer(delay)
			defer timer.Stop()
			select {
			case <-f.done:
			case <-timer.C:
				_ = f.inner.Send(to, m) // late send: endpoint may have closed
			}
		}()
		if !dup {
			return nil
		}
		// dup + delay: one copy now, one late — maximal reordering.
	}
	err := f.inner.Send(to, m)
	if dup && delay == 0 {
		_ = f.inner.Send(to, m)
	}
	return err
}

// pump forwards the inner inbox, enforcing partitions on the receive
// side too (bidirectional cut even against unwrapped remotes). An
// envelope keeps the arrival instant the inner transport stamped.
func (f *Faulty) pump() {
	defer f.wg.Done()
	defer close(f.out)
	for {
		var env Envelope
		var ok bool
		select {
		case <-f.done:
			return
		case env, ok = <-f.inner.Inbox():
			if !ok {
				return
			}
		}
		if f.partitioned(env.From, f.now()) {
			f.mu.Lock()
			f.stats.Cut++
			f.mu.Unlock()
			continue
		}
		select {
		case f.out <- env:
		default:
			// Mirror endpoint overflow semantics: drop on overload.
		}
	}
}

// Inbox implements Endpoint.
func (f *Faulty) Inbox() <-chan Envelope { return f.out }

// Close implements Endpoint. It closes the inner endpoint (whose inbox
// closure drains the pump) and waits for all injected goroutines.
func (f *Faulty) Close() error {
	f.once.Do(func() {
		close(f.done)
		f.closeErr = f.inner.Close()
		f.wg.Wait()
	})
	return f.closeErr
}

var _ Endpoint = (*Faulty)(nil)
