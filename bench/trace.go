package main

import (
	"sync"
	"sync/atomic"
	"time"

	"icc/internal/beacon"
	"icc/internal/core"
	"icc/internal/crypto/hash"
	"icc/internal/engine"
	"icc/internal/pool"
	"icc/internal/transport"
	"icc/internal/types"
)

// ctr names one cluster-wide counter. Every decorator adds to these from
// whatever goroutine the decorated call runs on; a run reads them twice
// (window start and end) and reports the difference.
type ctr int

const (
	// Always counted, traced or not (wire_bytes_per_commit is end to end).
	cSends ctr = iota
	cBytes

	// Traced runs only.
	cOuterNs // engine calls as the runner sees them (outside gossip)
	cOuterMsgs
	cInnerNs // engine calls below the dissemination wrapper (outside core)
	cInnerMsgs
	cBeaconNs
	cRevealNs // Reveal calls that made a round's value known
	cReveals
	cRevealShares // shares held when those calls combined
	cPayloadNs
	cPayloadCalls
	cCommitNs // the OnCommit hook: KV apply, queue trim, gateway acks
	cVerifyNs
	cVerifyCalls
	cVerifyRejects
	cSendNs
	cSubmitNs
	cSubmits
	numCtr
)

// numKinds bounds the per-kind byte table (types.Kind is a small enum).
const numKinds = 32

// counters is one cluster's measurement state.
type counters struct {
	v      [numCtr]atomic.Int64
	byKind [numKinds]atomic.Int64

	// traced is fixed at assembly: false leaves every boundary but the
	// byte count and the commit log undecorated.
	traced bool
	// sample holds the first messages sent, for the codec replay.
	sampleMu sync.Mutex
	sample   []types.Message
}

// codecSample is how many messages the codec replay covers.
const codecSample = 1000

func (c *counters) keep(m types.Message) {
	c.sampleMu.Lock()
	if len(c.sample) < codecSample {
		c.sample = append(c.sample, m)
	}
	c.sampleMu.Unlock()
}

type snapshot struct {
	v      [numCtr]int64
	byKind [numKinds]int64
}

// add charges the time since start to one span total.
func (c *counters) add(ns ctr, start time.Time) {
	c.v[ns].Add(int64(time.Since(start)))
}

// span is add plus a call count.
func (c *counters) span(ns, calls ctr, start time.Time) {
	c.add(ns, start)
	c.v[calls].Add(1)
}

func (c *counters) snapshot() snapshot {
	var s snapshot
	for i := range c.v {
		s.v[i] = c.v[i].Load()
	}
	for i := range c.byKind {
		s.byKind[i] = c.byKind[i].Load()
	}
	return s
}

// sub returns the counts accumulated between two snapshots.
func (s snapshot) sub(earlier snapshot) snapshot {
	for i := range s.v {
		s.v[i] -= earlier.v[i]
	}
	for i := range s.byKind {
		s.byKind[i] -= earlier.byKind[i]
	}
	return s
}

// layerBusy is the self time of each layer over a window: a layer's span
// total minus the span totals of the layers it calls into. The nesting
// is fixed by how the cluster is assembled: runner → [outer] gossip →
// [inner] core → {beacon, payload source, commit hook}; the verifier
// runs on the pipeline's workers and Send on the runner after the
// engine call returned, so neither nests under the engine.
type layerBusy struct {
	gossip, core, beacon, statemachine, verify, transport, gateway time.Duration
}

func (s snapshot) busy() layerBusy {
	d := func(c ctr) time.Duration { return time.Duration(s.v[c]) }
	sm := d(cPayloadNs) + d(cCommitNs)
	return layerBusy{
		gossip:       d(cOuterNs) - d(cInnerNs),
		core:         d(cInnerNs) - d(cBeaconNs) - sm,
		beacon:       d(cBeaconNs),
		statemachine: sm,
		verify:       d(cVerifyNs),
		transport:    d(cSendNs),
		gateway:      d(cSubmitNs),
	}
}

func (b layerBusy) total() time.Duration {
	return b.gossip + b.core + b.beacon + b.statemachine + b.verify + b.transport + b.gateway
}

// meteredEndpoint counts messages and encoded bytes handed to Send. The
// size of the last message is kept, so a broadcast (the same pointer to
// every peer in turn) is marshalled for measurement once. In a traced
// run it also times Send, splits bytes by message kind, and keeps the
// first messages for the codec replay.
type meteredEndpoint struct {
	transport.Endpoint
	c *counters

	mu       sync.Mutex // the backfill worker sends from its own goroutine
	last     types.Message
	lastSize int64
}

func (e *meteredEndpoint) Send(to types.PartyID, m types.Message) error {
	e.mu.Lock()
	if m != e.last {
		e.last, e.lastSize = m, int64(len(types.Marshal(m)))
		if e.c.traced {
			e.c.keep(m)
		}
	}
	size := e.lastSize
	e.mu.Unlock()
	e.c.v[cSends].Add(1)
	e.c.v[cBytes].Add(size)
	if !e.c.traced {
		return e.Endpoint.Send(to, m)
	}
	if k := int(m.Kind()); k < numKinds {
		e.c.byKind[k].Add(size)
	}
	start := time.Now()
	err := e.Endpoint.Send(to, m)
	e.c.add(cSendNs, start)
	return err
}

// tracedEngine times the calls that do protocol work. ID, NextWake and
// CurrentRound pass through the embedded engine untimed.
type tracedEngine struct {
	engine.Engine
	c        *counters
	ns, msgs ctr
}

func (e *tracedEngine) Init(now time.Duration) []engine.Output {
	start := time.Now()
	out := e.Engine.Init(now)
	e.c.add(e.ns, start)
	return out
}

func (e *tracedEngine) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	start := time.Now()
	out := e.Engine.HandleMessage(from, m, now)
	e.c.span(e.ns, e.msgs, start)
	return out
}

func (e *tracedEngine) Tick(now time.Duration) []engine.Output {
	start := time.Now()
	out := e.Engine.Tick(now)
	e.c.add(e.ns, start)
	return out
}

// tracedBeacon times the beacon calls that can do cryptographic or
// per-round work; the map lookups (Have, Digest, RankOf, Leader,
// ShareCount, CachedShareForRound, InstallDigest) pass through untimed.
// It is used only from its party's engine loop.
type tracedBeacon struct {
	beacon.Source
	c        *counters
	held     map[types.Round]int64 // shares admitted per unrevealed round
	revealed types.Round           // highest round a Reveal call made known
}

func newTracedBeacon(inner beacon.Source, c *counters) *tracedBeacon {
	return &tracedBeacon{Source: inner, c: c, held: make(map[types.Round]int64)}
}

func (b *tracedBeacon) ShareForRound(k types.Round) (*types.BeaconShare, error) {
	defer b.c.add(cBeaconNs, time.Now())
	return b.Source.ShareForRound(k)
}

func (b *tracedBeacon) AddShare(s *types.BeaconShare) (bool, error) {
	defer b.c.add(cBeaconNs, time.Now())
	added, err := b.Source.AddShare(s)
	if added && s.Round > b.revealed {
		b.held[s.Round]++
	}
	return added, err
}

func (b *tracedBeacon) Reveal(k types.Round) (hash.Digest, bool) {
	start := time.Now()
	d, ok := b.Source.Reveal(k)
	b.c.add(cBeaconNs, start)
	if ok && k > b.revealed {
		b.revealed = k
		b.c.span(cRevealNs, cReveals, start)
		b.c.v[cRevealShares].Add(b.held[k])
		for r := range b.held {
			if r <= k {
				delete(b.held, r)
			}
		}
	}
	return d, ok
}

func (b *tracedBeacon) Permutation(k types.Round) ([]types.PartyID, bool) {
	defer b.c.add(cBeaconNs, time.Now())
	return b.Source.Permutation(k)
}

func (b *tracedBeacon) Prune(before types.Round) {
	defer b.c.add(cBeaconNs, time.Now())
	b.Source.Prune(before)
}

// tracedVerifier times the signature checks the verify pipeline's
// workers make and counts the ones that fail.
type tracedVerifier struct {
	inner pool.Verifier
	c     *counters
}

func (v *tracedVerifier) check(start time.Time, err error) error {
	v.c.span(cVerifyNs, cVerifyCalls, start)
	if err != nil {
		v.c.v[cVerifyRejects].Add(1)
	}
	return err
}

func (v *tracedVerifier) Authenticator(a *types.Authenticator) error {
	return v.check(time.Now(), v.inner.Authenticator(a))
}

func (v *tracedVerifier) NotarizationShare(s *types.NotarizationShare) error {
	return v.check(time.Now(), v.inner.NotarizationShare(s))
}

func (v *tracedVerifier) Notarization(nz *types.Notarization) error {
	return v.check(time.Now(), v.inner.Notarization(nz))
}

func (v *tracedVerifier) FinalizationShare(s *types.FinalizationShare) error {
	return v.check(time.Now(), v.inner.FinalizationShare(s))
}

func (v *tracedVerifier) Finalization(f *types.Finalization) error {
	return v.check(time.Now(), v.inner.Finalization(f))
}

// tracedPayload times GetPayload and notes when its party proposed each
// round, which is the moment a command enters the block that may commit.
type tracedPayload struct {
	inner core.PayloadSource
	cl    *cluster
	log   *partyLog
}

func (p *tracedPayload) GetPayload(round types.Round, parent *types.Block, lookup func(hash.Digest) *types.Block) []byte {
	start := time.Now()
	out := p.inner.GetPayload(round, parent, lookup)
	p.cl.c.span(cPayloadNs, cPayloadCalls, start)
	p.log.proposed(round, p.cl.since())
	return out
}
