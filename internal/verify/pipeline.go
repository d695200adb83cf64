// Package verify implements the parallel verification pipeline that
// sits between a runtime transport inbox and the sequential consensus
// engine. Signature checking dominates the engine's critical path under
// load — every inbound authenticator, share, and quorum aggregate costs
// an ed25519 verification — yet it is stateless and embarrassingly
// parallel. The pipeline moves that work onto a pool of workers so the
// single-threaded engine (which the determinism argument of DESIGN.md
// depends on) only ever handles pre-verified input.
//
// Admission is two-laned: resynchronisation traffic (stall Statuses,
// answers to them, backfill replies — bundles carrying the
// types.Bundle Resync marker, or recognisably stale aggregates) is
// dequeued with strict priority over the live firehose, so a rejoining
// party's catch-up can never be starved by tip-of-chain traffic (the
// laggard-ingest livelock documented after E21). Resync bundles are
// additionally verified chain-aware: one full check of the highest
// aggregate admits the whole hash-linked prefix (chain.go). While the
// party is far behind the observed frontier, live artifacts beyond a
// fixed window are shed at admission — they would sit unusable in the
// queue and are re-learned through catch-up anyway.
//
// Ordering: workers complete out of order, so two messages from the
// same peer may reach the engine reordered. The ICC protocols are
// insensitive to this — every artifact is a self-contained addition to
// a monotone pool, and the paper's network model (§1) already delivers
// with arbitrary per-link delay. The simulation harness keeps the
// synchronous in-engine verification path precisely because its
// determinism contract is stronger than the live runtime's.
//
// Beacon shares pass through unverified by design: checking a share for
// round k needs the round-(k−1) beacon value, which only the engine
// tracks, and beacon.Combine verifies lazily at threshold (t+1 shares)
// anyway. Beacon outputs pass through too, for the same reason; the ICC1
// overlay verifies each one before it installs it.
//
// A multisig certificate is its signers' shares side by side: a signer
// whose identical share this pipeline has verified, or this party sent,
// is not checked again (processAggregate).
package verify

import (
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"icc/internal/crypto"
	"icc/internal/crypto/hash"
	"icc/internal/obs"
	"icc/internal/pool"
	"icc/internal/transport"
	"icc/internal/types"
)

const (
	// behindWindow is how many rounds past the engine's own round live
	// artifacts are still admitted while the party lags the observed
	// peer frontier; shed artifacts count as
	// icc_verify_rejects_total{reason="behind"}. Half a catch-up batch
	// (core's resyncBatch = 128): wide enough that normal jitter never
	// sheds, narrow enough that a 500-round rejoin is not drowned by tip
	// traffic it cannot use.
	behindWindow = 64
	// cacheSize bounds the verified-digest cache and the verified-
	// statement cache alike.
	cacheSize = 8192
	// minQueue is the least capacity of each lane and of Out; a lane
	// holds 4 × Workers otherwise. A full lane makes Submit block,
	// applying backpressure to the transport reader rather than
	// buffering without bound.
	minQueue = 64
)

// Lane labels for the icc_verify_lane_depth gauge family.
const (
	LaneLive   = "live"
	LaneResync = "resync"
)

// Options tunes a Pipeline. The zero value selects sensible defaults.
type Options struct {
	// Workers is the number of verification goroutines; 0 selects
	// GOMAXPROCS.
	Workers int
	// Registry receives the pipeline's instruments (nil → none).
	Registry *obs.Registry
}

// lane identifies a submission queue.
type lane int

const (
	laneLive lane = iota
	laneResync
)

// Pipeline verifies inbound envelopes on a worker pool. Create with
// New, feed with Submit, consume verified envelopes from Out, and
// Close when done. All methods are safe for concurrent use; Submit and
// Out are safe against a concurrent Close.
type Pipeline struct {
	verifier pool.Verifier
	liveIn   chan transport.Envelope
	resyncIn chan transport.Envelope
	out      chan transport.Envelope
	done     chan struct{}
	wg       sync.WaitGroup
	once     sync.Once

	// cache makes re-gossiped and resync'd artifacts free: one that
	// verified once is admitted on digest match without re-running its
	// signature checks. It holds this party's own shares too (NoteOwn), and
	// a multisig certificate's signer whose share it holds is not checked
	// again (processAggregate). It is this party's alone: a memo shared
	// between parties would let one party's check stand for another's.
	// stmts holds verified aggregate statements (kind,
	// round, proposer, blockHash), admitting signer-subset variants of an
	// already-verified quorum certificate (see processAggregate).
	cache *digestCache
	stmts *digestCache

	// engineRound mirrors the hosted engine's working round (the runner
	// refreshes it after every engine call); frontier is the highest
	// round seen on a *verified* notarization or finalization — forged
	// rounds cannot move it, so a Byzantine sender cannot trip the
	// shedding predicate.
	engineRound atomic.Uint64
	frontier    atomic.Uint64

	queueDepth      *obs.Gauge
	laneLiveDepth   *obs.Gauge
	laneResyncDepth *obs.Gauge
	latency         *obs.Histogram
	verified        *obs.Counter
	chainAdmit      *obs.Counter
	cacheHits       *obs.Counter
	cacheMiss       *obs.Counter
	rejects         *obs.CounterVec
}

// New builds and starts a pipeline verifying against v — typically
// pool.NewVerifier(pub, pool.VerifyFull). v must be safe for concurrent
// use.
func New(v pool.Verifier, opts Options) *Pipeline {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	queue := max(4*workers, minQueue)
	p := &Pipeline{
		verifier: v,
		liveIn:   make(chan transport.Envelope, queue),
		resyncIn: make(chan transport.Envelope, queue),
		out:      make(chan transport.Envelope, queue),
		done:     make(chan struct{}),
		cache:    newDigestCache(cacheSize),
		stmts:    newDigestCache(cacheSize),
	}
	if reg := opts.Registry; reg != nil {
		p.queueDepth = reg.Gauge("icc_verify_queue_depth", "Envelopes waiting for a verification worker (all lanes).")
		laneDepth := reg.GaugeVec("icc_verify_lane_depth", "Envelopes waiting for a verification worker, by lane.", "lane")
		p.laneLiveDepth = laneDepth.With(LaneLive)
		p.laneResyncDepth = laneDepth.With(LaneResync)
		p.latency = reg.Histogram("icc_verify_latency_seconds", "Per-envelope verification latency.", nil)
		p.verified = reg.Counter("icc_verify_verified_total", "Artifacts that passed signature verification.")
		p.chainAdmit = reg.Counter("icc_verify_chain_admitted_total", "Artifacts admitted by hash linkage to a verified aggregate instead of per-artifact verification.")
		p.cacheHits = reg.Counter("icc_verify_cache_hits_total", "Artifacts admitted from the verified-digest cache.")
		p.cacheMiss = reg.Counter("icc_verify_cache_misses_total", "Artifacts that required fresh verification.")
		p.rejects = reg.CounterVec("icc_verify_rejects_total", "Inbound artifacts rejected at admission, by reason.", "reason")
	}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.worker()
	}
	return p
}

// NoteEngineRound records the hosted engine's working round. The runner
// calls it after every engine interaction; the shedding predicate
// reads it.
func (p *Pipeline) NoteEngineRound(k types.Round) { p.engineRound.Store(uint64(k)) }

// Frontier reports the highest round observed on a verified
// notarization or finalization (the pipeline's view of the cluster
// tip). Exposed for tests and diagnostics.
func (p *Pipeline) Frontier() types.Round { return types.Round(p.frontier.Load()) }

// noteFrontier ratchets the observed frontier up to k.
func (p *Pipeline) noteFrontier(k types.Round) {
	for {
		cur := p.frontier.Load()
		if uint64(k) <= cur || p.frontier.CompareAndSwap(cur, uint64(k)) {
			return
		}
	}
}

// behind reports whether the engine lags the observed frontier by more
// than the shedding window, and the highest round still admitted.
func (p *Pipeline) behind() (uint64, bool) {
	limit := p.engineRound.Load() + behindWindow
	return limit, p.frontier.Load() > limit
}

// classify routes an envelope to a lane: resync-marked bundles take the
// priority lane, everything else is live. Every producer of recovery
// traffic (core's resync, catch-up and checkpoint transfer, and the
// backfill worker) sets the marker.
func classify(m types.Message) lane {
	if b, ok := m.(*types.Bundle); ok && b.Resync {
		return laneResync
	}
	return laneLive
}

// roundOf extracts the protocol round an artifact belongs to, or 0 for
// kinds the shedder must never touch (control traffic, gossip refs,
// RBC fragments — layers with their own admission logic).
func roundOf(m types.Message) uint64 {
	switch v := m.(type) {
	case *types.BlockMsg:
		if v.Block != nil {
			return uint64(v.Block.Round)
		}
	case *types.Authenticator:
		return uint64(v.Round)
	case *types.NotarizationShare:
		return uint64(v.Round)
	case *types.Notarization:
		return uint64(v.Round)
	case *types.FinalizationShare:
		return uint64(v.Round)
	case *types.Finalization:
		return uint64(v.Round)
	case *types.BeaconShare:
		return uint64(v.Round)
	case *types.PayloadOffer:
		return uint64(v.Round)
	}
	return 0
}

// shedLive drops live-lane artifacts beyond the admission window while
// the party is behind. It returns the (possibly filtered) message and
// whether anything at all survives. Shed artifacts are counted as
// rejects with reason "behind" — they are not errors, but the operator
// watching a rejoin should see where the firehose went.
func (p *Pipeline) shedLive(m types.Message) (types.Message, bool) {
	limit, isBehind := p.behind()
	if !isBehind {
		return m, true
	}
	drop := func(sub types.Message) bool { return roundOf(sub) > limit }
	if b, ok := m.(*types.Bundle); ok {
		kept := make([]types.Message, 0, len(b.Messages))
		for _, sub := range b.Messages {
			if drop(sub) {
				p.rejectBehind()
				continue
			}
			kept = append(kept, sub)
		}
		if len(kept) == 0 {
			return nil, false
		}
		if len(kept) == len(b.Messages) {
			return b, true
		}
		return &types.Bundle{Messages: kept, Resync: b.Resync}, true
	}
	if sb, ok := m.(*types.ShareBundle); ok {
		keep := func(groups []types.ShareGroup) []types.ShareGroup {
			kept := make([]types.ShareGroup, 0, len(groups))
			for i := range groups {
				if uint64(groups[i].Round) > limit {
					p.rejectBehind()
					continue
				}
				kept = append(kept, groups[i])
			}
			return kept
		}
		notar, final := keep(sb.Notar), keep(sb.Final)
		beacon := make([]*types.BeaconShare, 0, len(sb.Beacon))
		for _, s := range sb.Beacon {
			if uint64(s.Round) > limit {
				p.rejectBehind()
				continue
			}
			beacon = append(beacon, s)
		}
		if len(notar)+len(final)+len(beacon) == 0 {
			return nil, false
		}
		return &types.ShareBundle{Notar: notar, Final: final, Beacon: beacon}, true
	}
	if drop(m) {
		p.rejectBehind()
		return nil, false
	}
	return m, true
}

func (p *Pipeline) rejectBehind() { p.rejects.With("behind").Inc() }

// admit classifies and (for the live lane) sheds one envelope. ok=false
// means the envelope was consumed entirely by the shedder and nothing
// is to be queued.
func (p *Pipeline) admit(env transport.Envelope) (transport.Envelope, lane, bool) {
	ln := classify(env.Msg)
	if ln == laneLive {
		msg, keep := p.shedLive(env.Msg)
		if !keep {
			return env, ln, false
		}
		env.Msg = msg
	}
	return env, ln, true
}

// enqueued/dequeued keep the depth gauges in step with the lanes.
func (p *Pipeline) enqueued(ln lane) {
	p.queueDepth.Add(1)
	if ln == laneResync {
		p.laneResyncDepth.Add(1)
	} else {
		p.laneLiveDepth.Add(1)
	}
}

func (p *Pipeline) dequeued(ln lane) {
	p.queueDepth.Add(-1)
	if ln == laneResync {
		p.laneResyncDepth.Add(-1)
	} else {
		p.laneLiveDepth.Add(-1)
	}
}

// Submit queues one envelope for verification. It blocks when the lane
// is full (backpressure) and reports false once the pipeline is closed.
// A caller that is also the sole consumer of Out must use TrySubmit
// and drain Out between attempts instead — blocking here while workers
// block on a full Out channel would deadlock. A true return only means
// the envelope was consumed: while the party is far behind the cluster
// frontier, live artifacts beyond the admission window are shed rather
// than queued.
func (p *Pipeline) Submit(env transport.Envelope) bool {
	env, ln, ok := p.admit(env)
	if !ok {
		return !p.Closed()
	}
	ch := p.liveIn
	if ln == laneResync {
		ch = p.resyncIn
	}
	select {
	case ch <- env:
		p.enqueued(ln)
		return true
	case <-p.done:
		return false
	}
}

// TrySubmit queues one envelope without blocking. It reports false when
// the lane is full or the pipeline is closed (distinguish with Closed).
func (p *Pipeline) TrySubmit(env transport.Envelope) bool {
	env, ln, ok := p.admit(env)
	if !ok {
		return !p.Closed()
	}
	ch := p.liveIn
	if ln == laneResync {
		ch = p.resyncIn
	}
	select {
	case ch <- env:
		p.enqueued(ln)
		return true
	default:
		return false
	}
}

// Closed reports whether Close has been called.
func (p *Pipeline) Closed() bool {
	select {
	case <-p.done:
		return true
	default:
		return false
	}
}

// Out delivers verified envelopes. An envelope whose every artifact was
// rejected never appears here.
func (p *Pipeline) Out() <-chan transport.Envelope { return p.out }

// Close stops the workers and releases the pipeline. In-flight
// envelopes may be dropped; the consensus layer tolerates message loss
// by design (resync). Safe to call more than once. Envelopes still
// buffered in the lanes are abandoned, so the depth gauges are zeroed
// here — otherwise a Prometheus scrape after shutdown would show
// phantom queue depth forever.
func (p *Pipeline) Close() {
	p.once.Do(func() { close(p.done) })
	p.wg.Wait()
	p.queueDepth.Set(0)
	p.laneLiveDepth.Set(0)
	p.laneResyncDepth.Set(0)
}

func (p *Pipeline) worker() {
	defer p.wg.Done()
	for {
		// Strict priority: a queued resync envelope is always taken
		// before any live one. The live firehose therefore cannot
		// starve catch-up — the inverse starvation (resync swamping
		// live) is bounded by the one per-peer limit on answers to a
		// Status (core's handleStatus: one answer an interval, charged
		// only when something is sent) and the size of a batch.
		select {
		case <-p.done:
			return
		case env := <-p.resyncIn:
			if !p.handle(env, laneResync) {
				return
			}
			continue
		default:
		}
		select {
		case <-p.done:
			return
		case env := <-p.resyncIn:
			if !p.handle(env, laneResync) {
				return
			}
		case env := <-p.liveIn:
			if !p.handle(env, laneLive) {
				return
			}
		}
	}
}

// handle verifies one dequeued envelope and forwards survivors. It
// reports false when the pipeline closed mid-delivery.
func (p *Pipeline) handle(env transport.Envelope, ln lane) bool {
	p.dequeued(ln)
	start := time.Now()
	msg, ok := p.process(env.Msg)
	p.latency.Observe(time.Since(start).Seconds())
	if !ok {
		return true
	}
	select {
	case p.out <- transport.Envelope{From: env.From, Msg: msg, At: env.At}:
		return true
	case <-p.done:
		return false
	}
}

// process verifies one message, returning the (possibly filtered)
// message to deliver and whether to deliver it at all.
func (p *Pipeline) process(m types.Message) (types.Message, bool) {
	switch v := m.(type) {
	case *types.Bundle:
		if v.Resync {
			return p.processResync(v)
		}
		kept := make([]types.Message, 0, len(v.Messages))
		for _, sub := range v.Messages {
			if s, ok := p.process(sub); ok {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			return nil, false
		}
		return &types.Bundle{Messages: kept, Resync: v.Resync}, true
	case *types.ShareBundle:
		return p.processShareBundle(v)
	case *types.Authenticator, *types.NotarizationShare, *types.FinalizationShare:
		if err := p.checkCached(m); err != nil {
			p.reject(err)
			return nil, false
		}
		return m, true
	case *types.Notarization, *types.Finalization:
		return p.processAggregate(m)
	default:
		// Blocks carry no signature of their own (the authenticator
		// does); beacon shares verify lazily in beacon.Combine; the
		// remaining kinds (status, gossip, RBC) are control traffic for
		// layers with their own validation.
		return m, true
	}
}

// processAggregate admits one quorum certificate. Statement-level
// admission extends the chain-aware argument of processResync to live
// traffic: with eager relay-side aggregation (internal/gossip),
// different relays legitimately combine different signer subsets over
// the same statement, producing byte-distinct certificates the digest
// cache cannot recognise. Once any certificate for a statement has
// fully verified, a later subset-variant is admitted on statement
// identity alone (icc_verify_chain_admitted_total) — the claim "this
// block is notarized/finalized" is already proven, and re-checking a
// different n−t signatures proves nothing new. As with resync chain
// admission, the admitted bytes themselves are not attested: a party
// re-serving spliced garbage Agg bytes is rejected by its receivers,
// which full-verify. DESIGN.md §11 and §14 carry the argument. The first
// certificate of a statement is checked in full, except for the
// signatures of shares this party has verified or signed (check).
func (p *Pipeline) processAggregate(m types.Message) (types.Message, bool) {
	round := types.Round(roundOf(m))
	if stmt, ok := statementOf(m); ok && p.stmts.contains(stmt) {
		p.chainAdmit.Inc()
		p.cacheInsert(m)
		p.noteFrontier(round)
		return m, true
	}
	if err := p.checkCached(m); err != nil {
		p.reject(err)
		return nil, false
	}
	p.markStatement(m)
	p.noteFrontier(round)
	return m, true
}

// processShareBundle verifies the individual shares inside a gossip
// share batch and rebuilds the bundle from the survivors. The group
// framing is transport-only and carries no signature of its own, so
// each (signer, sig) pair is checked as the share message it expands
// to; beacon shares pass through unverified per the package policy
// (beacon.Combine verifies lazily at threshold). Verified shares enter
// the digest cache under their individual encoding, so the same share
// re-arriving bare or differently grouped is admitted for free.
func (p *Pipeline) processShareBundle(b *types.ShareBundle) (types.Message, bool) {
	notar := p.filterShareGroups(b.Notar, false)
	final := p.filterShareGroups(b.Final, true)
	if len(notar)+len(final)+len(b.Beacon) == 0 {
		return nil, false
	}
	return &types.ShareBundle{Notar: notar, Final: final, Beacon: b.Beacon}, true
}

func (p *Pipeline) filterShareGroups(groups []types.ShareGroup, final bool) []types.ShareGroup {
	kept := make([]types.ShareGroup, 0, len(groups))
	for i := range groups {
		g := groups[i]
		signers := make([]types.PartyID, 0, len(g.Signers))
		sigs := make([][]byte, 0, len(g.Sigs))
		for j, signer := range g.Signers {
			if err := p.checkCached(shareOf(g.Round, g.Proposer, g.BlockHash, signer, g.Sigs[j], final)); err != nil {
				p.reject(err)
				continue
			}
			signers = append(signers, signer)
			sigs = append(sigs, g.Sigs[j])
		}
		if len(signers) == 0 {
			continue
		}
		g.Signers, g.Sigs = signers, sigs
		kept = append(kept, g)
	}
	return kept
}

// statementOf returns the digest identifying the statement a quorum
// certificate attests — (kind, round, proposer, blockHash) — which is
// invariant across the signer subsets different relays may aggregate.
func statementOf(m types.Message) (hash.Digest, bool) {
	switch v := m.(type) {
	case *types.Notarization:
		return statementKey(types.KindNotarization, v.Round, v.Proposer, v.BlockHash), true
	case *types.Finalization:
		return statementKey(types.KindFinalization, v.Round, v.Proposer, v.BlockHash), true
	}
	return hash.Digest{}, false
}

func statementKey(k types.Kind, round types.Round, proposer types.PartyID, bh hash.Digest) hash.Digest {
	b := append([]byte{byte(k)}, types.SigningBytes(round, proposer, bh)...)
	return hash.Sum(hash.DomainPayload, b)
}

// markStatement records an aggregate's statement as verified, enabling
// statement-level admission of signer-subset variants.
func (p *Pipeline) markStatement(m types.Message) {
	if stmt, ok := statementOf(m); ok {
		p.stmts.insert(stmt)
	}
}

// checkCached verifies one signed artifact, consulting the verified-
// digest cache first. Only successful verifications are cached, keyed
// by the hash of the artifact's canonical encoding — a byte-identical
// redelivery is admitted without touching the verifier.
func (p *Pipeline) checkCached(m types.Message) error {
	key := hash.Sum(hash.DomainPayload, types.Marshal(m))
	if p.cache.contains(key) {
		p.cacheHits.Inc()
		return nil
	}
	p.cacheMiss.Inc()
	if err := p.check(m); err != nil {
		return err
	}
	p.cache.insert(key)
	p.verified.Inc()
	return nil
}

// cacheInsert records an artifact as verified without running its
// checks — the chain-aware admission path, where linkage to a verified
// aggregate is the proof. A later byte-identical redelivery then hits
// the cache like any other verified artifact.
func (p *Pipeline) cacheInsert(m types.Message) {
	p.cache.insert(hash.Sum(hash.DomainPayload, types.Marshal(m)))
}

func (p *Pipeline) check(m types.Message) error {
	if cv, ok := p.verifier.(certVerifier); ok {
		switch v := m.(type) {
		case *types.Notarization:
			return cv.CertificateKnown(m, p.checkedShare(v.Round, v.Proposer, v.BlockHash, false))
		case *types.Finalization:
			return cv.CertificateKnown(m, p.checkedShare(v.Round, v.Proposer, v.BlockHash, true))
		}
	}
	switch v := m.(type) {
	case *types.Authenticator:
		return p.verifier.Authenticator(v)
	case *types.NotarizationShare:
		return p.verifier.NotarizationShare(v)
	case *types.Notarization:
		return p.verifier.Notarization(v)
	case *types.FinalizationShare:
		return p.verifier.FinalizationShare(v)
	case *types.Finalization:
		return p.verifier.Finalization(v)
	default:
		return nil
	}
}

func (p *Pipeline) reject(err error) { p.rejects.With(crypto.Reason(err)).Inc() }

// certVerifier is a pool.Verifier that can leave out of a certificate's
// check the signatures already verified as shares (pool.CryptoVerifier).
type certVerifier interface {
	CertificateKnown(m types.Message, known func(signer int, sig []byte) bool) error
}

// checkedShare reports, for one statement, whether a signer's signature
// is a share this pipeline has verified, or this party's own, byte for
// byte: then a certificate that carries it needs no second check of it.
func (p *Pipeline) checkedShare(k types.Round, prop types.PartyID, bh hash.Digest, final bool) func(int, []byte) bool {
	return func(signer int, sig []byte) bool {
		m := shareOf(k, prop, bh, types.PartyID(signer), sig, final)
		return p.cache.contains(hash.Sum(hash.DomainPayload, types.Marshal(m)))
	}
}

// shareOf is the notarization (or, final, finalization) share message
// one signer's signature on a statement stands for.
func shareOf(k types.Round, prop types.PartyID, bh hash.Digest, signer types.PartyID, sig []byte, final bool) types.Message {
	if final {
		return &types.FinalizationShare{Round: k, Proposer: prop, BlockHash: bh, Signer: signer, Sig: sig}
	}
	return &types.NotarizationShare{Round: k, Proposer: prop, BlockHash: bh, Signer: signer, Sig: sig}
}

// NoteOwn records the notarization and finalization shares signed by self
// in one message this party sends — bare, in a bundle, or in a share
// bundle — as checked: it signed them itself. The event loop calls it for
// every message it sends.
func (p *Pipeline) NoteOwn(self types.PartyID, m types.Message) {
	switch v := m.(type) {
	case *types.NotarizationShare:
		if v.Signer == self {
			p.cacheInsert(v)
		}
	case *types.FinalizationShare:
		if v.Signer == self {
			p.cacheInsert(v)
		}
	case *types.Bundle:
		for _, sub := range v.Messages {
			p.NoteOwn(self, sub)
		}
	case *types.ShareBundle:
		own := func(groups []types.ShareGroup, final bool) {
			for _, g := range groups {
				if i := slices.Index(g.Signers, self); i >= 0 {
					p.cacheInsert(shareOf(g.Round, g.Proposer, g.BlockHash, self, g.Sigs[i], final))
				}
			}
		}
		own(v.Notar, false)
		own(v.Final, true)
	}
}

// digestCache is a bounded FIFO set of verified artifact digests.
// Sized so the working set (the last few rounds of shares and
// aggregates from every peer) stays resident; under churn the oldest
// entries fall out first, which at worst costs a re-verification.
type digestCache struct {
	mu    sync.Mutex
	set   map[hash.Digest]struct{}
	order []hash.Digest // ring buffer of insertion order
	next  int           // next slot to overwrite once full
}

func newDigestCache(size int) *digestCache {
	return &digestCache{
		set:   make(map[hash.Digest]struct{}, size),
		order: make([]hash.Digest, 0, size),
	}
}

func (c *digestCache) contains(d hash.Digest) bool {
	c.mu.Lock()
	_, ok := c.set[d]
	c.mu.Unlock()
	return ok
}

func (c *digestCache) insert(d hash.Digest) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.set[d]; ok {
		return
	}
	if len(c.order) < cap(c.order) {
		c.order = append(c.order, d)
	} else {
		delete(c.set, c.order[c.next])
		c.order[c.next] = d
		c.next = (c.next + 1) % len(c.order)
	}
	c.set[d] = struct{}{}
}

// Len reports the number of cached digests (for tests).
func (c *digestCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.set)
}
