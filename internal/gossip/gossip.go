// Package gossip implements the peer-to-peer gossip sub-layer that
// Protocol ICC1 is designed to integrate with (paper §1, [17]). Each
// party talks only to a bounded set of neighbours; artifacts spread by
// flooding with deduplication, and large artifacts (blocks) use a lazy
// advert → request → deliver pull so that the proposer's egress is
// bounded by its fanout rather than by n — the leader-bottleneck relief
// the paper attributes to the gossip layer.
//
// The wrapper turns an ICC engine's logical broadcasts into gossip
// traffic and reassembles incoming gossip into ordinary message
// deliveries for the engine, so the consensus logic is unchanged
// (the paper: "the logic of the protocol can be easily understood
// independent of this sub-layer").
//
// Two scale-out mechanisms, both off by default, keep per-party traffic
// sublinear as the cluster grows (§1.1 argues per-party communication
// need not grow with n once signatures aggregate):
//
//   - Share batching (ShareBatchWindow > 0): instead of relaying each
//     signature share as its own frame, a relay coalesces the shares it
//     receives within the window into one ShareBundle per neighbour,
//     amortising the per-statement header across every signature.
//
//   - Eager relay-side aggregation (Aggregate): a relay that has seen a
//     threshold of notarization or finalization shares for one statement
//     combines them into the certificate itself and gossips that, then
//     stops relaying (and delivering) further shares for the statement —
//     downstream parties receive one O(threshold) certificate instead of
//     n separate shares.
package gossip

import (
	"fmt"
	"math/rand"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/types"
)

// Config tunes one party's gossip wrapper. Construct engines with New,
// which validates the configuration instead of silently repairing it.
type Config struct {
	Self types.PartyID
	N    int
	// Fanout bounds the neighbourhood size. The topology is a ring plus
	// seeded random chords, so the honest overlay stays connected. New
	// rejects values outside [2, N−1] (for N ≤ 3: exactly N−1).
	Fanout int
	// Seed makes the topology deterministic across parties. All parties
	// of a cluster must agree on it, so it is an explicit field rather
	// than a hidden default.
	Seed int64
	// EagerThreshold is the encoded-size boundary between eager push
	// (small artifacts: shares, notarizations) and lazy advert/pull
	// (blocks). Default 1024 bytes.
	EagerThreshold int
	// RequestRetry is how long a lazy fetch waits for the requested
	// artifact before asking the next advertiser. One request is in
	// flight per ref at a time — without this, a burst of adverts for a
	// popular artifact (every neighbour advertises a new certificate
	// within one delay bound) triggers one full download per advertiser.
	// Default 150ms.
	RequestRetry time.Duration
	// MaxStore caps the artifact store (FIFO eviction). Default 65536.
	MaxStore int

	// ShareBatchWindow enables share batching: signature shares queue for
	// up to this long and leave as one ShareBundle per neighbour. Zero
	// disables batching (every share relays as its own frame).
	ShareBatchWindow time.Duration
	// AdaptiveBatch makes the batch window load-adaptive: a share that
	// arrives with the queue empty and no other share seen within the
	// last window relays immediately — an idle or lightly-loaded party
	// pays no batching latency and arms no flush timer — while shares
	// arriving in bursts batch as usual. Requires ShareBatchWindow > 0.
	AdaptiveBatch bool
	// MaxBatchShares flushes a pending batch early once it holds this
	// many shares, bounding latency and frame size under load. Default
	// max(64, 2·N): at least one statement's full quorum of shares must
	// fit in a batch, or a mid-round early flush relays the shares an
	// instant before the aggregation cut-off would have suppressed them.
	MaxBatchShares int

	// Aggregate enables eager relay-side aggregation of notarization and
	// finalization shares. Requires Keys.
	Aggregate bool
	// TrustShares asserts that every share reaching this wrapper has
	// already been signature-verified (a verification pipeline fronts the
	// gossip layer, or the deployment is an honest-only simulation).
	// Aggregation then combines without re-verifying, and beacon-share
	// relaying for a round stops once a reconstruction quorum (t+1) has
	// been forwarded. Never set this for raw network input: a forged
	// share would poison aggregates and the beacon cut-off.
	TrustShares bool
	// Keys is the cluster's public key material, needed by Aggregate for
	// thresholds and share verification.
	Keys *keys.Public

	// Outputs, when non-nil, enables beacon-output relaying: the first
	// party to recover a round's beacon gossips the single verifiable
	// output (types.BeaconOutput) and every relay forwards that one
	// message while suppressing the round's remaining share flood.
	// Received outputs are verified against the beacon's global key
	// before installation unless TrustShares is set. Only beacon
	// backends with third-party-verifiable outputs implement the
	// capability (see beacon.OutputSource); the engine's beacon source
	// and this field must be the same object.
	Outputs beacon.OutputSource
}

// withDefaults fills the zero-value knobs.
func (cfg Config) withDefaults() Config {
	if cfg.EagerThreshold == 0 {
		cfg.EagerThreshold = 1024
	}
	if cfg.MaxStore == 0 {
		cfg.MaxStore = 65536
	}
	if cfg.MaxBatchShares == 0 {
		cfg.MaxBatchShares = 64
		if 2*cfg.N > cfg.MaxBatchShares {
			cfg.MaxBatchShares = 2 * cfg.N
		}
	}
	if cfg.RequestRetry == 0 {
		cfg.RequestRetry = 150 * time.Millisecond
	}
	return cfg
}

// DefaultFanout is the overlay degree of a cluster that names none:
// ≈ 2·log₂(n) + 2, clamped to n−1, which keeps the ring-plus-chords
// graph connected with overwhelming probability.
func DefaultFanout(n int) int {
	f := 2
	for v := n; v > 1; v >>= 1 {
		f += 2
	}
	if f > n-1 {
		f = n - 1
	}
	return f
}

// Validate checks the configuration. Fanout bounds are enforced, not
// clamped: a fanout the operator chose that cannot take effect is a
// deployment mistake worth surfacing.
func (cfg Config) Validate() error {
	if cfg.N < 1 {
		return fmt.Errorf("gossip: cluster size %d, need at least 1", cfg.N)
	}
	if cfg.Self < 0 || int(cfg.Self) >= cfg.N {
		return fmt.Errorf("gossip: self %d outside [0, %d)", cfg.Self, cfg.N)
	}
	lo := 2
	if cfg.N-1 < lo {
		lo = cfg.N - 1
	}
	if cfg.Fanout < lo || cfg.Fanout > cfg.N-1 {
		return fmt.Errorf("gossip: fanout %d outside [%d, %d] for %d parties", cfg.Fanout, lo, cfg.N-1, cfg.N)
	}
	if cfg.ShareBatchWindow < 0 {
		return fmt.Errorf("gossip: negative share batch window %v", cfg.ShareBatchWindow)
	}
	if cfg.RequestRetry < 0 {
		return fmt.Errorf("gossip: negative request retry %v", cfg.RequestRetry)
	}
	if cfg.MaxBatchShares < 0 {
		return fmt.Errorf("gossip: negative max batch shares %d", cfg.MaxBatchShares)
	}
	if cfg.AdaptiveBatch && cfg.ShareBatchWindow <= 0 {
		return fmt.Errorf("gossip: AdaptiveBatch requires ShareBatchWindow > 0")
	}
	if cfg.Aggregate && cfg.Keys == nil {
		return fmt.Errorf("gossip: Aggregate requires Keys")
	}
	if cfg.Keys != nil && cfg.Keys.N != cfg.N {
		return fmt.Errorf("gossip: Keys are for %d parties, config says %d", cfg.Keys.N, cfg.N)
	}
	return nil
}

// Topology builds the validated deterministic overlay: every party's
// neighbour list in a ring-plus-random-chords graph. Symmetric:
// j ∈ peers(i) iff i ∈ peers(j).
func (cfg Config) Topology() ([][]types.PartyID, error) {
	if err := cfg.withDefaults().Validate(); err != nil {
		return nil, err
	}
	return buildTopology(cfg.N, cfg.Fanout, cfg.Seed), nil
}

func buildTopology(n, fanout int, seed int64) [][]types.PartyID {
	adj := make([]map[types.PartyID]struct{}, n)
	for i := range adj {
		adj[i] = make(map[types.PartyID]struct{})
	}
	link := func(a, b int) {
		if a == b {
			return
		}
		adj[a][types.PartyID(b)] = struct{}{}
		adj[b][types.PartyID(a)] = struct{}{}
	}
	// Ring for guaranteed connectivity.
	for i := 0; i < n; i++ {
		link(i, (i+1)%n)
	}
	// Random chords until everyone reaches the fanout (or the graph is
	// complete).
	rng := rand.New(rand.NewSource(seed ^ 0x6f55a9))
	for i := 0; i < n; i++ {
		guard := 0
		for len(adj[i]) < fanout && guard < 10*n {
			link(i, rng.Intn(n))
			guard++
		}
	}
	out := make([][]types.PartyID, n)
	for i := range adj {
		peers := make([]types.PartyID, 0, len(adj[i]))
		for p := 0; p < n; p++ {
			if _, ok := adj[i][types.PartyID(p)]; ok {
				peers = append(peers, types.PartyID(p))
			}
		}
		out[i] = peers
	}
	return out
}

// pendingShare is one share awaiting a batch flush, with the peer it
// arrived from (excluded from its relay), or −1 for our own shares.
type pendingShare struct {
	msg  types.Message
	skip types.PartyID
}

// fetchState is one outstanding advert-driven fetch: the peers already
// asked, advertisers held in reserve, and the deadline after which the
// next reserve peer is asked (robustness against a non-answering or
// corrupt advertiser, without downloading one copy per advertiser).
type fetchState struct {
	asked   map[types.PartyID]struct{}
	reserve []types.PartyID
	retryAt time.Duration
}

// aggKey identifies one signing statement: the (round, proposer, block)
// triple under either the notarization or the finalization scheme.
type aggKey struct {
	final     bool
	round     types.Round
	proposer  types.PartyID
	blockHash hash.Digest
}

// aggEntry accumulates observed shares for a statement until a
// certificate exists (done), after which further shares are dead weight.
type aggEntry struct {
	sigs map[types.PartyID][]byte
	done bool
}

// aggRetainRounds bounds how long aggregation and beacon-relay state for
// old rounds is kept before Tick garbage-collects it.
const aggRetainRounds = 64

// Engine is the gossip wrapper.
type Engine struct {
	cfg   Config
	inner engine.Engine
	peers []types.PartyID

	seen  map[types.Ref]struct{}
	store map[types.Ref]types.Message
	order []types.Ref // FIFO for eviction
	// fetch tracks outstanding advert-driven downloads, one request in
	// flight per ref with further advertisers held in reserve.
	fetch map[types.Ref]*fetchState

	// Share batching state: queued shares, the deadline set when the
	// first one arrived, and (for AdaptiveBatch) when the last share was
	// seen — the idle detector.
	pending     []pendingShare
	flushAt     time.Duration
	lastShareAt time.Duration

	// Aggregation state per statement, and the count of beacon shares
	// relayed per round (for the TrustShares t+1 cut-off).
	agg         map[aggKey]*aggEntry
	beaconRelay map[types.Round]int
	// outputDone marks rounds whose beacon output has been gossiped or
	// installed: their share flood stops here.
	outputDone map[types.Round]struct{}

	out []engine.Output
}

// New builds the ICC1 dissemination wrapper around an engine, validating
// the configuration.
func New(cfg Config, inner engine.Engine) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	return &Engine{
		cfg:         cfg,
		inner:       inner,
		peers:       buildTopology(cfg.N, cfg.Fanout, cfg.Seed)[cfg.Self],
		seen:        make(map[types.Ref]struct{}),
		store:       make(map[types.Ref]types.Message),
		fetch:       make(map[types.Ref]*fetchState),
		agg:         make(map[aggKey]*aggEntry),
		beaconRelay: make(map[types.Round]int),
		outputDone:  make(map[types.Round]struct{}),
		// Start idle: under AdaptiveBatch the very first share relays
		// immediately instead of waiting out a full window.
		lastShareAt: -cfg.ShareBatchWindow,
	}, nil
}

// Peers returns this party's neighbour list.
func (g *Engine) Peers() []types.PartyID { return g.peers }

// ID implements engine.Engine.
func (g *Engine) ID() types.PartyID { return g.inner.ID() }

// CurrentRound implements engine.Engine.
func (g *Engine) CurrentRound() types.Round { return g.inner.CurrentRound() }

// NextWake implements engine.Engine: the inner engine's deadline, or the
// pending batch's flush deadline if that comes first.
func (g *Engine) NextWake(now time.Duration) (time.Duration, bool) {
	t, ok := g.inner.NextWake(now)
	if len(g.pending) > 0 {
		f := g.flushAt
		if f <= now {
			f = now + 1
		}
		if !ok || f < t {
			t, ok = f, true
		}
	}
	for _, f := range g.fetch {
		if len(f.reserve) == 0 {
			continue
		}
		r := f.retryAt
		if r <= now {
			r = now + 1
		}
		if !ok || r < t {
			t, ok = r, true
		}
	}
	return t, ok
}

// Init implements engine.Engine.
func (g *Engine) Init(now time.Duration) []engine.Output {
	g.disseminate(g.inner.Init(now), -1, now)
	g.maybeFlush(now)
	return g.drain()
}

// Tick implements engine.Engine.
func (g *Engine) Tick(now time.Duration) []engine.Output {
	g.disseminate(g.inner.Tick(now), -1, now)
	g.maybeFlush(now)
	g.retryFetches(now)
	g.gcRounds()
	return g.drain()
}

// HandleMessage implements engine.Engine: gossip control traffic is
// consumed here; artifacts are deduplicated, delivered to the inner
// engine, and relayed onward.
func (g *Engine) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	switch v := m.(type) {
	case *types.Advert:
		g.handleAdvert(from, v, now)
	case *types.Request:
		g.handleRequest(from, v)
	case *types.PayloadOffer:
		// Point-to-point and meant for this party's next proposal only:
		// straight to the engine, never stored, relayed or deduplicated.
		g.disseminate(g.inner.HandleMessage(from, v, now), -1, now)
	default:
		g.handleArtifact(from, m, now)
	}
	g.maybeFlush(now)
	return g.drain()
}

func (g *Engine) drain() []engine.Output {
	out := g.out
	g.out = nil
	return out
}

func (g *Engine) send(to types.PartyID, m types.Message) {
	g.out = append(g.out, engine.Unicast(to, m))
}

// disseminate converts the inner engine's outputs into gossip traffic.
// skip is a peer to exclude (the artifact's source), or -1.
func (g *Engine) disseminate(outs []engine.Output, skip types.PartyID, now time.Duration) {
	for _, o := range outs {
		if !o.Broadcast {
			// Unicasts (resync bundles, payload offers, Byzantine wrappers)
			// pass through unchanged.
			g.out = append(g.out, o)
			continue
		}
		// Bundles are split so each artifact gossips under its own ref
		// (a bundle's block should go lazy while its signatures go
		// eager). A broadcast that leaves one party out
		// (engine.BroadcastExcept) is gossiped like any other: the
		// overlay dedups by ref, so the party that already holds the
		// artifact never fetches it.
		if b, ok := o.Msg.(*types.Bundle); ok {
			for _, sub := range b.Messages {
				g.gossipArtifact(sub, skip, now)
			}
			continue
		}
		g.gossipArtifact(o.Msg, skip, now)
	}
}

// shareDisposition is routeShare's verdict on one artifact.
type shareDisposition int

const (
	// shareNone: not a signature share — take the generic relay path.
	shareNone shareDisposition = iota
	// shareRelay: a share, but batching is off — generic eager relay.
	shareRelay
	// shareBatched: queued into the pending ShareBundle; no frame now.
	shareBatched
	// shareCertified: the statement already has a certificate (created
	// here or observed in transit) — relaying or delivering more shares
	// for it is pure waste.
	shareCertified
	// shareDeliverOnly: don't relay, but still deliver to the inner
	// engine (a beacon share past the relay quota: the flood stops here,
	// yet the local beacon still wants every share it can get).
	shareDeliverOnly
)

// routeShare classifies an artifact and runs the share-path side effects:
// aggregation bookkeeping, the beacon relay cut-off, and batch queueing.
// skip is the source peer, or −1 for our own artifacts (which are never
// suppressed — only relayed traffic is).
func (g *Engine) routeShare(m types.Message, skip types.PartyID, now time.Duration) shareDisposition {
	switch v := m.(type) {
	case *types.NotarizationShare:
		if g.observeShare(false, v.Round, v.Proposer, v.BlockHash, v.Signer, v.Sig, now) && skip >= 0 {
			return shareCertified
		}
	case *types.FinalizationShare:
		if g.observeShare(true, v.Round, v.Proposer, v.BlockHash, v.Signer, v.Sig, now) && skip >= 0 {
			return shareCertified
		}
	case *types.BeaconShare:
		// Once the round's beacon output is known (recovered here or
		// received as a BeaconOutput), the one relayed output supersedes
		// the whole share flood. The output was verified before the mark
		// was set, so this cut-off is safe even for unverified input.
		if skip >= 0 && g.cfg.Outputs != nil {
			if _, done := g.outputDone[v.Round]; done {
				return shareDeliverOnly
			}
		}
		// Under TrustShares, t+1 relayed shares already let every party
		// reconstruct the round's beacon; the rest of the O(n) flood adds
		// nothing. Without it an adversary could spend the quota with
		// garbage shares, so the cut-off stays off for unverified input.
		if skip >= 0 && g.cfg.TrustShares {
			if g.beaconRelay[v.Round] >= types.BeaconQuorum(g.cfg.N) {
				return shareDeliverOnly
			}
			g.beaconRelay[v.Round]++
		}
	default:
		return shareNone
	}
	if g.cfg.ShareBatchWindow <= 0 {
		return shareRelay
	}
	// Adaptive mode: an isolated share on an otherwise idle party goes
	// out immediately — batching only kicks in when shares actually
	// arrive close together, so light load pays no window latency.
	if g.cfg.AdaptiveBatch && len(g.pending) == 0 && now >= g.lastShareAt+g.cfg.ShareBatchWindow {
		g.lastShareAt = now
		return shareRelay
	}
	g.lastShareAt = now
	if len(g.pending) == 0 {
		g.flushAt = now + g.cfg.ShareBatchWindow
	}
	g.pending = append(g.pending, pendingShare{msg: m, skip: skip})
	if len(g.pending) >= g.cfg.MaxBatchShares {
		g.flushShares()
	}
	return shareBatched
}

// observeShare feeds one notarization/finalization share into the
// aggregation state and reports whether the statement is already
// certified. Crossing the threshold combines the shares into the
// certificate, gossips it, and delivers it to the inner engine.
func (g *Engine) observeShare(final bool, k types.Round, prop types.PartyID, h hash.Digest, signer types.PartyID, sg []byte, now time.Duration) bool {
	if !g.cfg.Aggregate {
		return false
	}
	key := aggKey{final: final, round: k, proposer: prop, blockHash: h}
	e := g.agg[key]
	if e == nil {
		e = &aggEntry{sigs: make(map[types.PartyID][]byte)}
		g.agg[key] = e
	}
	if e.done {
		return true
	}
	if _, dup := e.sigs[signer]; !dup {
		e.sigs[signer] = sg
	}
	info, domain := g.cfg.Keys.Notary, types.DomainNotarization
	if final {
		info, domain = g.cfg.Keys.Final, types.DomainFinalization
	}
	if len(e.sigs) < info.Quorum() {
		return false
	}
	shares := make([]*aggsig.Share, 0, len(e.sigs))
	for s, sgn := range e.sigs {
		shares = append(shares, &aggsig.Share{Signer: int(s), Signature: sgn})
	}
	var agg aggsig.Certificate
	var err error
	if g.cfg.TrustShares {
		agg, err = info.CombineVerified(shares)
	} else {
		agg, err = info.Combine(domain, types.SigningBytes(k, prop, h), shares)
	}
	if err != nil {
		// Forged shares in the mix (only possible without TrustShares,
		// where Combine verifies and skips them). Keep accumulating: the
		// honest threshold is still reachable.
		return false
	}
	e.done = true
	e.sigs = nil
	var cert types.Message
	if final {
		cert = &types.Finalization{Round: k, Proposer: prop, BlockHash: h, Agg: agg.Encode()}
	} else {
		cert = &types.Notarization{Round: k, Proposer: prop, BlockHash: h, Agg: agg.Encode()}
	}
	// The certificate is our own new artifact: gossip it everywhere and
	// let the inner engine admit it (which may finish the round).
	g.gossipArtifact(cert, -1, now)
	g.disseminate(g.inner.HandleMessage(g.cfg.Self, cert, now), -1, now)
	return true
}

// noteCertificate marks a statement done when its certificate transits,
// so shares arriving after the certificate stop propagating.
func (g *Engine) noteCertificate(m types.Message) {
	if !g.cfg.Aggregate {
		return
	}
	var key aggKey
	switch v := m.(type) {
	case *types.Notarization:
		key = aggKey{round: v.Round, proposer: v.Proposer, blockHash: v.BlockHash}
	case *types.Finalization:
		key = aggKey{final: true, round: v.Round, proposer: v.Proposer, blockHash: v.BlockHash}
	default:
		return
	}
	e := g.agg[key]
	if e == nil {
		e = &aggEntry{}
		g.agg[key] = e
	}
	e.done = true
	e.sigs = nil
}

// gossipArtifact spreads one artifact we now hold.
func (g *Engine) gossipArtifact(m types.Message, skip types.PartyID, now time.Duration) {
	ref := types.RefOf(m)
	if _, dup := g.seen[ref]; dup {
		return
	}
	g.seen[ref] = struct{}{}
	g.put(ref, m)
	g.noteCertificate(m)
	switch g.routeShare(m, skip, now) {
	case shareBatched, shareCertified, shareDeliverOnly:
		return
	}
	g.relayRaw(m, ref, skip)
}

// relayRaw sends the artifact (eager) or its advert (lazy) to every peer
// except skip.
func (g *Engine) relayRaw(m types.Message, ref types.Ref, skip types.PartyID) {
	if len(types.Marshal(m)) <= g.cfg.EagerThreshold {
		for _, p := range g.peers {
			if p != skip {
				g.send(p, m)
			}
		}
		return
	}
	adv := &types.Advert{Refs: []types.Ref{ref}}
	for _, p := range g.peers {
		if p != skip {
			g.send(p, adv)
		}
	}
}

// put stores an artifact for serving, with FIFO eviction.
func (g *Engine) put(ref types.Ref, m types.Message) {
	if _, ok := g.store[ref]; ok {
		return
	}
	g.store[ref] = m
	g.order = append(g.order, ref)
	for len(g.order) > g.cfg.MaxStore {
		old := g.order[0]
		g.order = g.order[1:]
		delete(g.store, old)
	}
}

func (g *Engine) handleAdvert(from types.PartyID, adv *types.Advert, now time.Duration) {
	var want []types.Ref
	for _, ref := range adv.Refs {
		if _, have := g.store[ref]; have {
			continue
		}
		f := g.fetch[ref]
		if f == nil {
			f = &fetchState{asked: make(map[types.PartyID]struct{})}
			g.fetch[ref] = f
		}
		if _, dup := f.asked[from]; dup {
			continue
		}
		if len(f.asked) > 0 && now < f.retryAt {
			// A request is already in flight: hold this advertiser in
			// reserve instead of downloading a copy per advertiser.
			if !containsParty(f.reserve, from) {
				f.reserve = append(f.reserve, from)
			}
			continue
		}
		f.asked[from] = struct{}{}
		f.retryAt = now + g.cfg.RequestRetry
		want = append(want, ref)
	}
	if len(want) > 0 {
		g.send(from, &types.Request{Refs: want})
	}
}

// retryFetches re-requests stalled fetches from the next advertiser in
// reserve once the in-flight request's retry deadline passes.
func (g *Engine) retryFetches(now time.Duration) {
	for ref, f := range g.fetch {
		if len(f.reserve) == 0 || now < f.retryAt {
			continue
		}
		next := types.PartyID(-1)
		for len(f.reserve) > 0 {
			p := f.reserve[0]
			f.reserve = f.reserve[1:]
			if _, dup := f.asked[p]; !dup {
				next = p
				break
			}
		}
		if next < 0 {
			continue
		}
		f.asked[next] = struct{}{}
		f.retryAt = now + g.cfg.RequestRetry
		g.send(next, &types.Request{Refs: []types.Ref{ref}})
	}
}

func containsParty(list []types.PartyID, p types.PartyID) bool {
	for _, q := range list {
		if q == p {
			return true
		}
	}
	return false
}

func (g *Engine) handleRequest(from types.PartyID, req *types.Request) {
	for _, ref := range req.Refs {
		if m, ok := g.store[ref]; ok {
			g.send(from, m)
		}
	}
}

// handleArtifact processes a received artifact: dedup, relay to peers,
// deliver to the inner engine.
func (g *Engine) handleArtifact(from types.PartyID, m types.Message, now time.Duration) {
	if b, ok := m.(*types.ShareBundle); ok {
		// The bundle is transport framing, not an artifact: dedup and
		// relay operate on the individual shares it carries, so the same
		// share arriving in two differently-grouped bundles is still
		// suppressed.
		for _, sub := range b.Expand() {
			g.handleArtifact(from, sub, now)
		}
		return
	}
	if o, ok := m.(*types.BeaconOutput); ok {
		g.handleBeaconOutput(from, o, now)
		return
	}
	ref := types.RefOf(m)
	if _, dup := g.seen[ref]; dup {
		return
	}
	g.seen[ref] = struct{}{}
	g.put(ref, m)
	delete(g.fetch, ref)
	g.noteCertificate(m)
	// Relay onward before delivering (delivery may produce more output).
	switch g.routeShare(m, from, now) {
	case shareCertified:
		// The certificate supersedes the share for the relay AND for the
		// inner engine: it was delivered the moment it was created or
		// first transited, so this share would only burn a pool
		// verification.
		return
	case shareNone, shareRelay:
		g.relayRaw(m, ref, from)
	case shareBatched, shareDeliverOnly:
		// Queued for the bundle flush, or relay-capped: delivery proceeds.
	}
	// The inner engine's reactions are new artifacts of our own: gossip
	// them to all peers (including the artifact's source).
	g.disseminate(g.inner.HandleMessage(from, m, now), -1, now)
	// A delivered beacon share may have completed the round's quorum:
	// if the beacon is now recoverable, gossip the one verifiable output
	// so downstream relays stop flooding the remaining shares.
	if bs, ok := m.(*types.BeaconShare); ok {
		g.maybeEmitOutput(bs.Round, now)
	}
}

// handleBeaconOutput processes a received recovered beacon value: verify
// against the global key (unless shares are trusted), install it into
// the local beacon source, relay it onward, and stop relaying the
// round's shares. It is consumed here, not delivered to the inner
// engine — installation IS the delivery.
func (g *Engine) handleBeaconOutput(from types.PartyID, o *types.BeaconOutput, now time.Duration) {
	src := g.cfg.Outputs
	if src == nil {
		// Capability off (or beacon backend not output-verifiable): an
		// unverifiable blob from the network is dropped, and the round's
		// shares keep flowing as usual.
		return
	}
	ref := types.RefOf(o)
	if _, dup := g.seen[ref]; dup {
		return
	}
	if _, done := g.outputDone[o.Round]; done || src.Have(o.Round) {
		// Known round: nothing to install or relay (our own output
		// already made the rounds), but remember the dedup ref.
		g.seen[ref] = struct{}{}
		g.outputDone[o.Round] = struct{}{}
		return
	}
	if !g.cfg.TrustShares {
		if err := src.VerifyOutput(o.Round, o.Output); err != nil {
			// Forged — or ahead of us: verification needs R_{k−1}, which
			// we may not have yet. Not marking it seen lets a later copy
			// succeed once we catch up.
			return
		}
	}
	if err := src.InstallOutput(o.Round, o.Output); err != nil {
		return
	}
	g.seen[ref] = struct{}{}
	g.outputDone[o.Round] = struct{}{}
	g.put(ref, o)
	g.relayRaw(o, ref, from)
	// The beacon for this round just became known without any share
	// crossing the engine: poke it so a waiting round can proceed now
	// rather than at its next timer.
	g.disseminate(g.inner.Tick(now), -1, now)
}

// maybeEmitOutput gossips round k's recovered beacon output once, if the
// backend supports verifiable outputs and the round is recoverable.
func (g *Engine) maybeEmitOutput(k types.Round, now time.Duration) {
	src := g.cfg.Outputs
	if src == nil {
		return
	}
	if _, done := g.outputDone[k]; done {
		return
	}
	if _, ok := src.Reveal(k); !ok {
		return
	}
	out, ok := src.EncodeOutput(k)
	if !ok {
		return
	}
	g.outputDone[k] = struct{}{}
	g.gossipArtifact(&types.BeaconOutput{Round: k, Output: out}, -1, now)
}

// maybeFlush sends the pending ShareBundle batch once its window closed.
func (g *Engine) maybeFlush(now time.Duration) {
	if len(g.pending) > 0 && now >= g.flushAt {
		g.flushShares()
	}
}

// flushShares turns the pending shares into one ShareBundle per
// neighbour, excluding from each bundle the shares that neighbour sent
// us. Shares whose statement gained a certificate while they waited in
// the batch are dropped — downstream parties get (or already got) the
// certificate, so relaying the shares now would be pure dead weight. A
// batch that collapses to a single share for some peer goes out as the
// bare share — bundle framing would only add bytes.
func (g *Engine) flushShares() {
	pending := g.pending[:0]
	for _, ps := range g.pending {
		if !g.certified(ps.msg) {
			pending = append(pending, ps)
		}
	}
	g.pending = nil
	for _, p := range g.peers {
		b := &types.ShareBundle{}
		for _, ps := range pending {
			if ps.skip == p {
				continue
			}
			appendToBundle(b, ps.msg)
		}
		switch b.Shares() {
		case 0:
		case 1:
			g.send(p, b.Expand()[0])
		default:
			g.send(p, b)
		}
	}
}

// certified reports whether a queued share's statement already holds a
// certificate (combined here or observed in transit).
func (g *Engine) certified(m types.Message) bool {
	if !g.cfg.Aggregate {
		return false
	}
	var key aggKey
	switch v := m.(type) {
	case *types.NotarizationShare:
		key = aggKey{round: v.Round, proposer: v.Proposer, blockHash: v.BlockHash}
	case *types.FinalizationShare:
		key = aggKey{final: true, round: v.Round, proposer: v.Proposer, blockHash: v.BlockHash}
	default:
		return false
	}
	e := g.agg[key]
	return e != nil && e.done
}

// appendToBundle files one share into the bundle, grouping notarization
// and finalization shares by their statement.
func appendToBundle(b *types.ShareBundle, m types.Message) {
	switch v := m.(type) {
	case *types.NotarizationShare:
		b.Notar = addToGroups(b.Notar, v.Round, v.Proposer, v.BlockHash, v.Signer, v.Sig)
	case *types.FinalizationShare:
		b.Final = addToGroups(b.Final, v.Round, v.Proposer, v.BlockHash, v.Signer, v.Sig)
	case *types.BeaconShare:
		b.Beacon = append(b.Beacon, v)
	}
}

func addToGroups(groups []types.ShareGroup, k types.Round, prop types.PartyID, h hash.Digest, signer types.PartyID, sg []byte) []types.ShareGroup {
	for i := range groups {
		g := &groups[i]
		if g.Round == k && g.Proposer == prop && g.BlockHash == h {
			g.Signers = append(g.Signers, signer)
			g.Sigs = append(g.Sigs, sg)
			return groups
		}
	}
	return append(groups, types.ShareGroup{
		Round: k, Proposer: prop, BlockHash: h,
		Signers: []types.PartyID{signer}, Sigs: [][]byte{sg},
	})
}

// gcRounds drops aggregation and beacon-relay state for rounds far
// behind the inner engine's progress.
func (g *Engine) gcRounds() {
	cur := g.inner.CurrentRound()
	if cur <= aggRetainRounds {
		return
	}
	cut := cur - aggRetainRounds
	for k := range g.agg {
		if k.round < cut {
			delete(g.agg, k)
		}
	}
	for k := range g.beaconRelay {
		if k < cut {
			delete(g.beaconRelay, k)
		}
	}
	for k := range g.outputDone {
		if k < cut {
			delete(g.outputDone, k)
		}
	}
}

var _ engine.Engine = (*Engine)(nil)
