// Package verify implements the parallel verification pipeline that
// sits between a runtime transport inbox and the sequential consensus
// engine. Signature checking dominates the engine's critical path under
// load — every inbound authenticator, share, and quorum aggregate costs
// an ed25519 verification — yet it is stateless and embarrassingly
// parallel. The pipeline moves that work onto a pool of workers so the
// single-threaded engine (which the determinism argument of DESIGN.md
// depends on) only ever handles pre-verified input.
//
// Admission is two-laned: resynchronisation traffic (catch-up batches,
// stall re-broadcasts, backfill replies — bundles carrying the
// types.Bundle Resync marker, or recognisably stale aggregates) is
// dequeued with strict priority over the live firehose, so a rejoining
// party's catch-up can never be starved by tip-of-chain traffic (the
// laggard-ingest livelock documented after E21). Resync bundles are
// additionally verified chain-aware: one full check of the highest
// aggregate admits the whole hash-linked prefix (chain.go). While the
// party is far behind the observed frontier, live artifacts beyond a
// configured window are shed at admission — they would sit unusable in
// the queue and are re-learned through catch-up anyway.
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
// anyway.
package verify

import (
	"runtime"
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

// DefaultBehindWindow is how many rounds past the engine's own round
// live artifacts are still admitted while the party lags the observed
// peer frontier. Half a catch-up batch (core's resyncBatch
// = 128): wide enough that normal jitter never sheds, narrow enough
// that a 500-round rejoin is not drowned by tip traffic it cannot use.
const DefaultBehindWindow = 64

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
	// QueueSize bounds the live submission lane (0 → 4×Workers, min 64).
	// A full lane makes Submit block, applying backpressure to the
	// transport reader rather than buffering without bound.
	QueueSize int
	// ResyncQueueSize bounds the resync priority lane (0 → QueueSize).
	ResyncQueueSize int
	// CacheSize bounds the verified-digest cache (0 → 8192, negative →
	// disabled). The cache makes re-gossiped and resync'd artifacts
	// free: an artifact that verified once is admitted on digest match
	// without re-running its signature checks. The same size (and the
	// same negative-disables rule) governs the verified-statement cache
	// that admits signer-subset variants of an already-verified quorum
	// certificate (see processAggregate).
	CacheSize int
	// BehindWindow is how many rounds beyond the engine's own round
	// live artifacts are admitted while the party is behind the
	// observed peer frontier (0 → DefaultBehindWindow, negative →
	// never shed). Shed artifacts count as
	// icc_verify_rejects_total{reason="behind"}.
	BehindWindow int
	// Registry receives the pipeline's instruments (nil → none).
	Registry *obs.Registry
	// OnReject, if set, observes every artifact the pipeline drops,
	// with the claimed sender and the internal/crypto reason label.
	OnReject func(from types.PartyID, reason string)
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

	cache *digestCache
	stmts *digestCache // verified aggregate statements (kind, round, proposer, blockHash)

	window uint64 // behind-shedding window in rounds
	shed   bool   // shedding enabled

	// engineRound mirrors the hosted engine's working round (the runner
	// refreshes it after every engine call); frontier is the highest
	// round seen on a *verified* notarization or finalization — forged
	// rounds cannot move it, so a Byzantine sender cannot trip the
	// shedding predicate.
	engineRound atomic.Uint64
	frontier    atomic.Uint64

	onReject func(from types.PartyID, reason string)

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
	queue := opts.QueueSize
	if queue <= 0 {
		queue = 4 * workers
		if queue < 64 {
			queue = 64
		}
	}
	resyncQueue := opts.ResyncQueueSize
	if resyncQueue <= 0 {
		resyncQueue = queue
	}
	window := opts.BehindWindow
	if window == 0 {
		window = DefaultBehindWindow
	}
	p := &Pipeline{
		verifier: v,
		liveIn:   make(chan transport.Envelope, queue),
		resyncIn: make(chan transport.Envelope, resyncQueue),
		out:      make(chan transport.Envelope, queue),
		done:     make(chan struct{}),
		cache:    newDigestCache(opts.CacheSize),
		stmts:    newDigestCache(opts.CacheSize),
		window:   uint64(max(window, 0)),
		shed:     window > 0,
		onReject: opts.OnReject,
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
// calls it after every engine interaction; the shedding predicate and
// the resync-content heuristic read it.
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
	if !p.shed {
		return 0, false
	}
	limit := p.engineRound.Load() + p.window
	return limit, p.frontier.Load() > limit
}

// classify routes an envelope to a lane. Resync-marked bundles take the
// priority lane; so — while the party is behind — do unmarked bundles
// whose aggregates sit well below the observed frontier (catch-up
// content from a sender predating the marker). Everything else is live.
func (p *Pipeline) classify(m types.Message) lane {
	b, ok := m.(*types.Bundle)
	if !ok {
		return laneLive
	}
	if b.Resync {
		return laneResync
	}
	if _, isBehind := p.behind(); isBehind {
		// A live bundle's aggregates ride at the frontier (a proposal
		// carries its parent's notarization); catch-up content is far
		// below it. The margin keeps live proposals in the live lane.
		f := p.frontier.Load()
		for _, sub := range b.Messages {
			switch v := sub.(type) {
			case *types.Notarization:
				if uint64(v.Round)+p.window < f {
					return laneResync
				}
			case *types.Finalization:
				if uint64(v.Round)+p.window < f {
					return laneResync
				}
			}
		}
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
func (p *Pipeline) shedLive(from types.PartyID, m types.Message) (types.Message, bool) {
	limit, isBehind := p.behind()
	if !isBehind {
		return m, true
	}
	drop := func(sub types.Message) bool { return roundOf(sub) > limit }
	if b, ok := m.(*types.Bundle); ok {
		kept := make([]types.Message, 0, len(b.Messages))
		for _, sub := range b.Messages {
			if drop(sub) {
				p.rejectBehind(from)
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
					p.rejectBehind(from)
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
				p.rejectBehind(from)
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
		p.rejectBehind(from)
		return nil, false
	}
	return m, true
}

func (p *Pipeline) rejectBehind(from types.PartyID) {
	p.rejects.With("behind").Inc()
	if p.onReject != nil {
		p.onReject(from, "behind")
	}
}

// admit classifies and (for the live lane) sheds one envelope. ok=false
// means the envelope was consumed entirely by the shedder and nothing
// is to be queued.
func (p *Pipeline) admit(env transport.Envelope) (transport.Envelope, lane, bool) {
	ln := p.classify(env.Msg)
	if ln == laneLive {
		msg, keep := p.shedLive(env.From, env.Msg)
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
		// live) is bounded by the per-peer rate limit on catch-up
		// responses and the size of a batch.
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
	msg, ok := p.process(env.From, env.Msg)
	p.latency.Observe(time.Since(start).Seconds())
	if !ok {
		return true
	}
	select {
	case p.out <- transport.Envelope{From: env.From, Msg: msg}:
		return true
	case <-p.done:
		return false
	}
}

// process verifies one message, returning the (possibly filtered)
// message to deliver and whether to deliver it at all.
func (p *Pipeline) process(from types.PartyID, m types.Message) (types.Message, bool) {
	switch v := m.(type) {
	case *types.Bundle:
		if v.Resync {
			return p.processResync(from, v)
		}
		kept := make([]types.Message, 0, len(v.Messages))
		for _, sub := range v.Messages {
			if s, ok := p.process(from, sub); ok {
				kept = append(kept, s)
			}
		}
		if len(kept) == 0 {
			return nil, false
		}
		return &types.Bundle{Messages: kept, Resync: v.Resync}, true
	case *types.ShareBundle:
		return p.processShareBundle(from, v)
	case *types.Authenticator, *types.NotarizationShare, *types.FinalizationShare:
		if err := p.checkCached(m); err != nil {
			p.reject(from, err)
			return nil, false
		}
		return m, true
	case *types.Notarization, *types.Finalization:
		return p.processAggregate(from, m)
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
// which full-verify. DESIGN.md §11 and §14 carry the argument.
func (p *Pipeline) processAggregate(from types.PartyID, m types.Message) (types.Message, bool) {
	round := types.Round(roundOf(m))
	if stmt, ok := statementOf(m); ok && p.stmts != nil && p.stmts.contains(stmt) {
		p.chainAdmit.Inc()
		p.cacheInsert(m)
		p.noteFrontier(round)
		return m, true
	}
	if err := p.checkCached(m); err != nil {
		p.reject(from, err)
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
func (p *Pipeline) processShareBundle(from types.PartyID, b *types.ShareBundle) (types.Message, bool) {
	notar := p.filterShareGroups(from, b.Notar, false)
	final := p.filterShareGroups(from, b.Final, true)
	if len(notar)+len(final)+len(b.Beacon) == 0 {
		return nil, false
	}
	return &types.ShareBundle{Notar: notar, Final: final, Beacon: b.Beacon}, true
}

func (p *Pipeline) filterShareGroups(from types.PartyID, groups []types.ShareGroup, final bool) []types.ShareGroup {
	kept := make([]types.ShareGroup, 0, len(groups))
	for i := range groups {
		g := groups[i]
		signers := make([]types.PartyID, 0, len(g.Signers))
		sigs := make([][]byte, 0, len(g.Sigs))
		for j, signer := range g.Signers {
			var m types.Message
			if final {
				m = &types.FinalizationShare{Round: g.Round, Proposer: g.Proposer,
					BlockHash: g.BlockHash, Signer: signer, Sig: g.Sigs[j]}
			} else {
				m = &types.NotarizationShare{Round: g.Round, Proposer: g.Proposer,
					BlockHash: g.BlockHash, Signer: signer, Sig: g.Sigs[j]}
			}
			if err := p.checkCached(m); err != nil {
				p.reject(from, err)
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
	if p.stmts == nil {
		return
	}
	if stmt, ok := statementOf(m); ok {
		p.stmts.insert(stmt)
	}
}

// checkCached verifies one signed artifact, consulting the verified-
// digest cache first. Only successful verifications are cached, keyed
// by the hash of the artifact's canonical encoding — a byte-identical
// redelivery is admitted without touching the verifier.
func (p *Pipeline) checkCached(m types.Message) error {
	var key hash.Digest
	if p.cache != nil {
		key = hash.Sum(hash.DomainPayload, types.Marshal(m))
		if p.cache.contains(key) {
			p.cacheHits.Inc()
			return nil
		}
	}
	if err := p.check(m); err != nil {
		if p.cache != nil {
			p.cacheMiss.Inc()
		}
		return err
	}
	if p.cache != nil {
		p.cacheMiss.Inc()
		p.cache.insert(key)
	}
	p.verified.Inc()
	return nil
}

// cacheInsert records an artifact as verified without running its
// checks — the chain-aware admission path, where linkage to a verified
// aggregate is the proof. A later byte-identical redelivery then hits
// the cache like any other verified artifact.
func (p *Pipeline) cacheInsert(m types.Message) {
	if p.cache != nil {
		p.cache.insert(hash.Sum(hash.DomainPayload, types.Marshal(m)))
	}
}

func (p *Pipeline) check(m types.Message) error {
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

func (p *Pipeline) reject(from types.PartyID, err error) {
	reason := crypto.Reason(err)
	p.rejects.With(reason).Inc()
	if p.onReject != nil {
		p.onReject(from, reason)
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
	if size < 0 {
		return nil
	}
	if size == 0 {
		size = 8192
	}
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
