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
// The wrapper remembers, for each neighbour, what that neighbour is
// known to hold — what it sent us and what we sent it — and a frame is
// withheld from a neighbour only when the frames already exchanged with
// it contain bytes from which its own wrapper derives the same artifact.
// Every edge has one speaker per artifact, the same at both ends: the
// other end holds its copy back for two batch windows and then sends only
// what the speaker's frame left necessary (DESIGN.md §14 has the rules
// and the argument).
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
//     combines them into the certificate itself, then stops relaying
//     (and delivering) further shares for the statement. The certificate
//     goes to the neighbours that cannot combine it themselves: one known
//     to hold a quorum of verified shares gets neither the certificate
//     nor any further share.
package gossip

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/obs"
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
	// (blocks, and multisig certificates from n ≈ 20 up). Default 1024
	// bytes.
	EagerThreshold int
	// RequestRetry is how long a lazy fetch waits for the requested
	// artifact before asking the next advertiser. One request is in
	// flight per ref at a time — without this, a burst of adverts for a
	// popular artifact (every neighbour advertises a new certificate
	// within one delay bound) triggers one full download per advertiser.
	// Default 150ms.
	RequestRetry time.Duration
	// MaxStore caps the artifact store (FIFO eviction). The store is also
	// the deduplication set and holds what is known about which neighbour
	// has which artifact, so both are bounded with it. Default 65536.
	MaxStore int

	// ShareBatchWindow enables share batching: signature shares queue for
	// up to this long and leave as one ShareBundle per neighbour. The
	// listening end of an edge holds an item back for the speaking end's
	// frame for twice as long. Zero disables both (every share relays as
	// its own frame, to every neighbour at once).
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
	// finalization shares, and with it the per-neighbour quorum rule: a
	// neighbour known to hold a quorum of a statement's shares is sent
	// neither more of them nor the certificate. Requires Keys.
	Aggregate bool
	// TrustShares asserts that every share reaching this wrapper has
	// already been signature-verified (a verification pipeline fronts the
	// gossip layer, or the deployment is an honest-only simulation).
	// Aggregation then combines without re-verifying, and beacon-share
	// relaying for a round stops once a reconstruction quorum (t+1) has
	// been forwarded. What a neighbour holds is then counted per signer,
	// so that a quorum of them can be recognised; without it a share is
	// only an opaque ref. Never set this for raw network input: a forged
	// share would poison aggregates, the beacon cut-off and those counts.
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

	// Registry receives the wrapper's instruments (nil → none):
	// icc_gossip_frames_total, icc_gossip_fetch_total and
	// icc_gossip_bundle_shares.
	Registry *obs.Registry
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

// Reach is the longest a frame takes between any two parties for which
// relays holds, across only such parties, when no link takes longer than
// link: the overlay's diameter over them times the longest hop — a lazy
// fetch (advert, request, reply) behind a full batch window and the
// listening end's hold. It fails if those parties are not connected.
func (cfg Config) Reach(relays func(types.PartyID) bool, link time.Duration) (time.Duration, error) {
	topo, err := cfg.Topology()
	if err != nil {
		return 0, err
	}
	diameter := 0
	for src := range topo {
		if !relays(types.PartyID(src)) {
			continue
		}
		for p, d := range hops(topo, types.PartyID(src), relays) {
			if d < 0 && relays(types.PartyID(p)) {
				return 0, fmt.Errorf("gossip: relaying party %d cannot reach relaying party %d", src, p)
			}
			diameter = max(diameter, d)
		}
	}
	return time.Duration(diameter) * (3*link + (1+listenWindows)*cfg.ShareBatchWindow), nil
}

// hops is every party's distance from src in overlay hops, passing only
// through parties for which through holds (nil: all); −1 where unreachable.
func hops(topo [][]types.PartyID, src types.PartyID, through func(types.PartyID) bool) []int {
	dist := make([]int, len(topo))
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	for queue := []types.PartyID{src}; len(queue) > 0; queue = queue[1:] {
		for _, p := range topo[queue[0]] {
			if dist[p] < 0 && (through == nil || through(p)) {
				dist[p] = dist[queue[0]] + 1
				queue = append(queue, p)
			}
		}
	}
	return dist
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

// edgeSides says, for each neighbour of self and each party s, which end
// of that edge is nearer s in overlay hops: −1 self, +1 the neighbour, 0
// neither. Every party computes the same topology, so both ends of an
// edge read the same answer from opposite sides.
func edgeSides(topo [][]types.PartyID, self types.PartyID) [][]int8 {
	mine := hops(topo, self, nil)
	sides := make([][]int8, len(topo[self]))
	for pi, p := range topo[self] {
		theirs := hops(topo, p, nil)
		sides[pi] = make([]int8, len(topo))
		for s := range sides[pi] {
			switch {
			case mine[s] < theirs[s]:
				sides[pi][s] = -1
			case mine[s] > theirs[s]:
				sides[pi][s] = 1
			}
		}
	}
	return sides
}

// bitset is a set of indices below a size its owner fixes: signers of a
// statement, or positions in the neighbour list. Nil is the empty set.
type bitset []uint64

// words is the length of a bitset of the given size.
func words(size int) int { return (size + 63) >> 6 }

func newBitset(size int) bitset { return make(bitset, words(size)) }

func (b bitset) add(i int) { b[i>>6] |= 1 << (i & 63) }

func (b bitset) has(i int) bool {
	w := i >> 6
	return w < len(b) && b[w]&(1<<(i&63)) != 0
}

func (b bitset) count() int {
	n := 0
	for _, w := range b {
		n += bits.OnesCount64(w)
	}
	return n
}

// held is one artifact in the store, with the neighbours (positions in
// Engine.peers) known to hold it too: they sent it, advertised it, were
// sent it or were served it. Shares counted per signer and certificates
// keep that knowledge in their statement instead (peerKnow).
type held struct {
	msg   types.Message
	peers bitset
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

// peerKnow is what one neighbour is known to hold of one statement: the
// signers whose share it sent us or we sent it, the certificate, and our
// advert for a certificate too large to push (told: it knows where to ask,
// which withholds a second advert and nothing else). Signers are recorded
// under TrustShares only, so every one of them stands for a share that
// verified.
type peerKnow struct {
	signers bitset
	cert    bool
	told    bool
}

// aggEntry is everything known about one statement: the shares observed
// until a certificate exists (done) — further ones are dead weight, the
// ones held may still complete a neighbour's quorum — and each
// neighbour's part of it (parallel to Engine.peers).
type aggEntry struct {
	key aggKey
	// quorum is the statement's signature threshold, or 0 without
	// Aggregate: no neighbour is then ever taken to hold a quorum.
	quorum int
	sigs   map[types.PartyID][]byte
	done   bool
	// verified: the certificate is known to be valid — TrustShares, or
	// our own verifying Combine produced it. Sending a neighbour anything
	// else proves nothing about what it can use.
	verified bool
	peers    []peerKnow
}

// item is one artifact on its way through the wrapper: the message, its
// ref and store entry, and for a share or certificate its statement.
type item struct {
	msg types.Message
	ref types.Ref
	h   *held
	// e is the statement of a notarization/finalization share (sig) or
	// certificate (cert); nil for everything else.
	e    *aggEntry
	cert bool
	sig  []byte
	// signer is who signed a share, −1 for everything else; tie is the
	// statement's bit of the speaker tie-break (speaks).
	signer types.PartyID
	tie    bool
	// advert stands in for a certificate too large to push.
	advert *types.Advert
	// wait is the set of neighbours the item is held back from until due,
	// because on their edge the other end speaks; nil before the item's
	// first flush. One slab per batch backs every item's set.
	wait bitset
	due  time.Duration
}

// aggRetainRounds bounds how long aggregation and beacon-relay state for
// old rounds is kept before Tick garbage-collects it.
const aggRetainRounds = 64

// listenWindows is how many batch windows the listening end of an edge
// holds an item back: one in which the speaker's own batch, opened when
// ours was, closes, and one for its frame to cross the edge. With one
// alone the speaker's frame came too late for every second item on
// tcp-gossip-n13 (DESIGN.md §14, rule 4).
const listenWindows = 2

// decision is what became of one artifact for one neighbour (pushed,
// advertised, peerHas, peerQuorum, listened) or for all of them at once
// (certified, beaconCut): the label of icc_gossip_frames_total.
type decision int

const (
	pushed decision = iota
	advertised
	// peerHas: the neighbour is known to hold this very artifact, or our
	// advert for it.
	peerHas
	// peerQuorum: the neighbour is known to hold the statement's
	// certificate or a quorum of its verified shares, and so derives the
	// certificate itself.
	peerQuorum
	// certified: a relayed share whose statement already has a
	// certificate here.
	certified
	// beaconCut: a relayed beacon share past the round's output or quota.
	beaconCut
	// listened: held back because the neighbour speaks on this edge; what
	// becomes of it then is counted as one of the above.
	listened
)

var decisionNames = [...]string{"pushed", "advertised", "peer_has", "peer_quorum", "certified", "beacon_cut", "listened"}

type frameKey struct {
	kind types.Kind
	d    decision
}

// Engine is the gossip wrapper.
type Engine struct {
	cfg   Config
	inner engine.Engine
	peers []types.PartyID
	// peerAt maps a party to its position in peers, −1 for the rest.
	peerAt []int
	// sides[i][s] is which end of the edge to neighbour i is nearer
	// party s (edgeSides).
	sides [][]int8

	// store holds every artifact seen, for deduplication and for serving
	// requests, FIFO-capped at MaxStore.
	store map[types.Ref]*held
	order []types.Ref
	// fetch tracks outstanding advert-driven downloads, one request in
	// flight per ref with further advertisers held in reserve. fetchWake
	// is never later than the earliest retryAt among them: the scheduler
	// wakes for it and retryFetches walks the map only once it has passed.
	fetch     map[types.Ref]*fetchState
	fetchWake time.Duration

	// Share batching state: queued shares and certificates, the deadline
	// set when the first one arrived, and (for AdaptiveBatch) when the
	// last one was seen — the idle detector.
	pending     []item
	scratch     []types.Message // flush's per-neighbour share list, reused
	flushAt     time.Duration
	lastShareAt time.Duration
	// listening holds the flushed items still held back from the
	// neighbours that speak on their edge (item.wait), in the order they
	// come due; batch is flush's working copy, reused.
	listening []item
	batch     []item

	// Per-statement state, and the count of beacon shares relayed per
	// round (for the TrustShares t+1 cut-off).
	agg         map[aggKey]*aggEntry
	beaconRelay map[types.Round]int
	// outputDone marks rounds whose beacon output has been gossiped or
	// installed: their share flood stops here.
	outputDone map[types.Round]struct{}
	// collected is the inner engine's round when gcRounds last ran.
	collected types.Round

	framesVec *obs.CounterVec
	frames    map[frameKey]*obs.Counter
	// Fetch outcomes: a request sent for a first advert, an advertiser
	// held in reserve, a reserve asked after a retry, a request served
	// and one for an artifact no longer (or never) held.
	requested, reserved, retried, served, missed *obs.Counter
	bundleShares                                 *obs.Histogram

	out []engine.Output
}

// New builds the ICC1 dissemination wrapper around an engine, validating
// the configuration.
func New(cfg Config, inner engine.Engine) (*Engine, error) {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	topo := buildTopology(cfg.N, cfg.Fanout, cfg.Seed)
	g := &Engine{
		cfg:         cfg,
		inner:       inner,
		peers:       topo[cfg.Self],
		peerAt:      make([]int, cfg.N),
		sides:       edgeSides(topo, cfg.Self),
		fetchWake:   noFetch,
		store:       make(map[types.Ref]*held),
		fetch:       make(map[types.Ref]*fetchState),
		agg:         make(map[aggKey]*aggEntry),
		beaconRelay: make(map[types.Round]int),
		outputDone:  make(map[types.Round]struct{}),
		// Start idle: under AdaptiveBatch the very first share relays
		// immediately instead of waiting out a full window.
		lastShareAt: -cfg.ShareBatchWindow,
	}
	for i := range g.peerAt {
		g.peerAt[i] = -1
	}
	for i, p := range g.peers {
		g.peerAt[p] = i
	}
	if reg := cfg.Registry; reg != nil {
		g.framesVec = reg.CounterVec("icc_gossip_frames_total",
			"Artifacts by kind and what became of them: pushed, advertised, peer_has, peer_quorum and listened (held back for the neighbour to speak, then counted again as what it became) count one neighbour each, certified and beacon_cut one artifact.",
			"kind", "decision")
		g.frames = make(map[frameKey]*obs.Counter)
		fetch := reg.CounterVec("icc_gossip_fetch_total",
			"Advert-driven fetches: requests sent, advertisers held in reserve, reserves asked after a retry, requests served and requests for an artifact not held.",
			"outcome")
		g.requested, g.reserved, g.retried = fetch.With("requested"), fetch.With("reserved"), fetch.With("retried")
		g.served, g.missed = fetch.With("served"), fetch.With("missed")
		g.bundleShares = reg.Histogram("icc_gossip_bundle_shares",
			"Shares per ShareBundle sent.", []float64{2, 3, 4, 6, 8, 12, 16, 24, 32, 64})
	}
	return g, nil
}

// Peers returns this party's neighbour list.
func (g *Engine) Peers() []types.PartyID { return g.peers }

// ID implements engine.Engine.
func (g *Engine) ID() types.PartyID { return g.inner.ID() }

// CurrentRound implements engine.Engine.
func (g *Engine) CurrentRound() types.Round { return g.inner.CurrentRound() }

// NextWake implements engine.Engine: the inner engine's deadline, or
// whichever comes first of the pending batch's flush, the moment the
// oldest held-back item has listened long enough, and the next fetch
// retry.
func (g *Engine) NextWake(now time.Duration) (time.Duration, bool) {
	t, ok := g.inner.NextWake(now)
	wake := func(at time.Duration) {
		if at <= now {
			at = now + 1
		}
		if !ok || at < t {
			t, ok = at, true
		}
	}
	if len(g.pending) > 0 {
		wake(g.flushAt)
	}
	if len(g.listening) > 0 {
		wake(g.listening[0].due)
	}
	if len(g.fetch) > 0 {
		wake(g.fetchWake)
	}
	return t, ok
}

// Init implements engine.Engine.
func (g *Engine) Init(now time.Duration) []engine.Output {
	g.disseminate(g.inner.Init(now), now)
	g.maybeFlush(now)
	return g.drain()
}

// Tick implements engine.Engine.
func (g *Engine) Tick(now time.Duration) []engine.Output {
	g.disseminate(g.inner.Tick(now), now)
	g.maybeFlush(now)
	if now >= g.fetchWake {
		g.retryFetches(now)
	}
	if cur := g.inner.CurrentRound(); cur != g.collected {
		g.collected = cur
		g.gcRounds(cur)
	}
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
		g.disseminate(g.inner.HandleMessage(from, v, now), now)
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

// count records one decision on icc_gossip_frames_total.
func (g *Engine) count(kind types.Kind, d decision) { g.countN(kind, d, 1) }

func (g *Engine) countN(kind types.Kind, d decision, n int) {
	if g.framesVec == nil {
		return
	}
	k := frameKey{kind, d}
	c := g.frames[k]
	if c == nil {
		c = g.framesVec.With(k.kind.String(), decisionNames[d])
		g.frames[k] = c
	}
	c.Add(int64(n))
}

// peerIndex is the position of p among the neighbours, or −1: artifacts
// also arrive from parties outside the overlay (resync unicasts), about
// which nothing is recorded.
func (g *Engine) peerIndex(p types.PartyID) int {
	if p < 0 || int(p) >= len(g.peerAt) {
		return -1
	}
	return g.peerAt[p]
}

// disseminate converts the inner engine's outputs into gossip traffic.
func (g *Engine) disseminate(outs []engine.Output, now time.Duration) {
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
				g.gossipArtifact(sub, now)
			}
			continue
		}
		g.gossipArtifact(o.Msg, now)
	}
}

// entry returns the state of one statement, creating it on first use.
func (g *Engine) entry(key aggKey) *aggEntry {
	e := g.agg[key]
	if e == nil {
		e = &aggEntry{key: key, peers: make([]peerKnow, len(g.peers))}
		if g.cfg.TrustShares {
			// One slab for every neighbour's signer set.
			w := words(g.cfg.N)
			slab := make(bitset, w*len(e.peers))
			for i := range e.peers {
				e.peers[i].signers = slab[i*w : (i+1)*w]
			}
		}
		if g.cfg.Aggregate {
			e.quorum = g.cfg.Keys.Notary.Quorum()
			if key.final {
				e.quorum = g.cfg.Keys.Final.Quorum()
			}
		}
		g.agg[key] = e
	}
	return e
}

// file describes an artifact, storing it if it is new; for a duplicate
// the item points at the first copy's store entry. Whoever advertised a
// new artifact is known to hold it.
func (g *Engine) file(m types.Message) (it item, fresh bool) {
	ref := types.RefOf(m)
	h := g.store[ref]
	if fresh = h == nil; fresh {
		h = g.put(ref, m)
	}
	it = g.describe(m, ref, h)
	if f := g.fetch[ref]; f != nil {
		for p := range f.asked {
			g.learn(g.peerIndex(p), it, false)
		}
		for _, p := range f.reserve {
			g.learn(g.peerIndex(p), it, false)
		}
		delete(g.fetch, ref)
	}
	return it, fresh
}

// describe finds the statement of a stored share or certificate, the
// signer of a share, and the bit that breaks a speaker tie: one both ends
// of an edge read off the artifact, and that no party can count on.
func (g *Engine) describe(m types.Message, ref types.Ref, h *held) item {
	it := item{msg: m, ref: ref, h: h, signer: -1}
	var key aggKey
	switch v := m.(type) {
	case *types.NotarizationShare:
		key, it.signer, it.sig = aggKey{round: v.Round, proposer: v.Proposer, blockHash: v.BlockHash}, v.Signer, v.Sig
	case *types.FinalizationShare:
		key, it.signer, it.sig = aggKey{final: true, round: v.Round, proposer: v.Proposer, blockHash: v.BlockHash}, v.Signer, v.Sig
	case *types.Notarization:
		key, it.cert = aggKey{round: v.Round, proposer: v.Proposer, blockHash: v.BlockHash}, true
	case *types.Finalization:
		key, it.cert = aggKey{final: true, round: v.Round, proposer: v.Proposer, blockHash: v.BlockHash}, true
	case *types.BeaconShare:
		it.signer, it.tie = v.Signer, v.Round&1 == 1
		return it
	default:
		return it
	}
	it.e = g.entry(key)
	it.tie = (key.blockHash[0]^byte(key.round))&1 == 1 != key.final
	return it
}

// bySigner reports whether what neighbours hold of the item is counted
// per signer: a share of a statement, where shares arrive verified.
func (g *Engine) bySigner(it item) bool {
	return it.e != nil && g.cfg.TrustShares && it.signer >= 0 && int(it.signer) < g.cfg.N
}

// learn records that neighbour pi holds the artifact — it sent it to us,
// or (sent) we are sending it now. It is called for every copy received,
// duplicates included: a second copy delivers nothing, but it still says
// who has it.
func (g *Engine) learn(pi int, it item, sent bool) {
	switch {
	case pi < 0:
	case it.cert:
		// A certificate relayed unverified may be a forgery its receiver
		// throws away; only the neighbour's own word, or a certificate
		// known to verify, says that it holds one.
		if !sent || it.e.verified {
			it.e.peers[pi].cert = true
		}
	case g.bySigner(it):
		it.e.peers[pi].signers.add(int(it.signer))
	default:
		g.holds(it.h, pi)
	}
}

// owed decides, when the frame for neighbour pi is built, whether the
// artifact still has to go into it: nothing goes to a neighbour known to
// hold it (rule 1), and nothing of a statement to one that holds its
// certificate. It records nothing — what is owed may yet be held back for
// the neighbour to speak first (rule 4), and in what form a certificate
// goes is flush's call (complete).
func (g *Engine) owed(pi int, it item) decision {
	if it.e != nil {
		switch pk := &it.e.peers[pi]; {
		case pk.cert && it.cert:
			return peerHas
		case pk.cert:
			return peerQuorum
		case it.cert && g.cfg.TrustShares && it.e.quorum > 0 && pk.signers.count() >= it.e.quorum:
			// It combines the certificate itself (rules 2 and 3).
			return peerQuorum
		case it.cert && it.advert != nil && pk.told:
			return peerHas
		case it.cert:
			return pushed
		}
	}
	known := it.h.peers.has(pi)
	if g.bySigner(it) {
		known = it.e.peers[pi].signers.has(int(it.signer))
	}
	if known {
		return peerHas
	}
	return pushed
}

// speaks reports whether this end of the edge to neighbour pi is the
// item's speaker (rule 4). For a share it is the end nearer the signer in
// overlay hops — the signer itself at distance 0, so a party's own shares
// are never held back, and shares flow away from their signer as fast as
// ever. At equal distance, and for a certificate (with the shares complete
// sends in its place), the lower id speaks or the higher, by the
// artifact's tie bit. The other end computes the opposite answer from the
// same topology and the same bytes.
func (g *Engine) speaks(pi int, it item) bool {
	if it.signer >= 0 && int(it.signer) < g.cfg.N {
		if side := g.sides[pi][it.signer]; side != 0 {
			return side < 0
		}
	}
	return (g.cfg.Self < g.peers[pi]) != it.tie
}

// complete settles a certificate owed to neighbour pi without sending
// it, if it can: a neighbour short of a quorum of the statement's
// verified shares is brought there with shares held here when those
// encode smaller than the certificate — with multisig certificates, which
// are their shares side by side, nearly always; with a constant-size BLS
// certificate never. The neighbour then derives the certificate from
// bytes this edge has carried, and gets no share beyond its quorum (owed
// has already settled the neighbour that holds one).
func (g *Engine) complete(pi int, it item, b *types.ShareBundle) bool {
	e := it.e
	if !g.cfg.TrustShares || e.quorum == 0 {
		return false
	}
	pk := &e.peers[pi]
	need := e.quorum - pk.signers.count()
	grp := types.ShareGroup{Round: e.key.round, Proposer: e.key.proposer, BlockHash: e.key.blockHash,
		Signers: make([]types.PartyID, 0, need), Sigs: make([][]byte, 0, need)}
	// In signer order, not map order: simulated runs replay byte for byte.
	for s := 0; s < g.cfg.N && len(grp.Signers) < need; s++ {
		if sig, ok := e.sigs[types.PartyID(s)]; ok && !pk.signers.has(s) {
			grp.Signers = append(grp.Signers, types.PartyID(s))
			grp.Sigs = append(grp.Sigs, sig)
		}
	}
	cert, sized := it.msg.(interface{ WireSize() int })
	if len(grp.Signers) < need || !sized || grp.WireSize() >= cert.WireSize() {
		return false
	}
	for _, s := range grp.Signers {
		pk.signers.add(int(s))
	}
	// The statement has no group in the bundle yet: flush drops the
	// queued shares of a certified statement before it gets here.
	if e.key.final {
		b.Final = append(b.Final, grp)
		g.countN(types.KindFinalizationShare, pushed, need)
	} else {
		b.Notar = append(b.Notar, grp)
		g.countN(types.KindNotarizationShare, pushed, need)
	}
	return true
}

// observeShare feeds one notarization/finalization share into the
// aggregation state and reports whether the statement is already
// certified. Crossing the threshold combines the shares into the
// certificate, gossips it, and delivers it to the inner engine.
func (g *Engine) observeShare(it item, now time.Duration) bool {
	e := it.e
	if !g.cfg.Aggregate {
		return false
	}
	if e.done {
		return true
	}
	if e.sigs == nil {
		e.sigs = make(map[types.PartyID][]byte)
	}
	if _, dup := e.sigs[it.signer]; !dup {
		e.sigs[it.signer] = it.sig
	}
	if len(e.sigs) < e.quorum {
		return false
	}
	info, domain := g.cfg.Keys.Notary, types.DomainNotarization
	if e.key.final {
		info, domain = g.cfg.Keys.Final, types.DomainFinalization
	}
	shares := make([]*aggsig.Share, 0, len(e.sigs))
	for s, sgn := range e.sigs {
		shares = append(shares, &aggsig.Share{Signer: int(s), Signature: sgn})
	}
	k, prop, h := e.key.round, e.key.proposer, e.key.blockHash
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
	e.verified = true
	var cert types.Message
	if e.key.final {
		cert = &types.Finalization{Round: k, Proposer: prop, BlockHash: h, Agg: agg.Encode()}
	} else {
		cert = &types.Notarization{Round: k, Proposer: prop, BlockHash: h, Agg: agg.Encode()}
	}
	// The certificate is our own new artifact: gossip it to whoever still
	// needs it and let the inner engine admit it (which may finish the
	// round).
	g.gossipArtifact(cert, now)
	g.disseminate(g.inner.HandleMessage(g.cfg.Self, cert, now), now)
	return true
}

// gossipArtifact spreads one artifact of our own.
func (g *Engine) gossipArtifact(m types.Message, now time.Duration) {
	if it, fresh := g.file(m); fresh {
		g.relay(it, true, now)
	}
}

// relay routes one new artifact and reports whether the inner engine
// should still see it. Whatever belongs
// to a signing statement, and beacon shares with it, is queued for the
// batch flush, where the frame for each neighbour is built from what
// that neighbour is known to lack; the rest leaves now. own marks our
// own artifacts, which the relay cut-offs spare.
func (g *Engine) relay(it item, own bool, now time.Duration) (deliver bool) {
	switch v := it.msg.(type) {
	case *types.NotarizationShare, *types.FinalizationShare:
		if g.observeShare(it, now) && !own {
			// The certificate supersedes the share for the relay AND for
			// the inner engine: it was delivered the moment it was created
			// or first transited, so this share would only burn a pool
			// verification.
			g.count(it.msg.Kind(), certified)
			return false
		}
	case *types.Notarization, *types.Finalization:
		// Shares arriving after the certificate stop propagating. Those
		// held stay: they may complete a neighbour's quorum (complete).
		if g.cfg.Aggregate {
			it.e.done = true
		}
		if g.cfg.TrustShares {
			it.e.verified = true
		}
		if g.lazy(it.msg) {
			it.advert = &types.Advert{Refs: []types.Ref{it.ref}}
		}
	case *types.BeaconShare:
		if !own && g.beaconCutOff(v.Round) {
			// The flood stops here, yet the local beacon still wants every
			// share it can get.
			g.count(it.msg.Kind(), beaconCut)
			return true
		}
	default:
		g.relayNow(it)
		return true
	}
	g.enqueue(it, now)
	return true
}

// beaconCutOff reports whether round k's relayed beacon shares stop
// here, and counts one against the quota otherwise.
func (g *Engine) beaconCutOff(k types.Round) bool {
	// Once the round's beacon output is known (recovered here or received
	// as a BeaconOutput), the one relayed output supersedes the whole
	// share flood. The output was verified before the mark was set, so
	// this cut-off is safe even for unverified input.
	if g.cfg.Outputs != nil {
		if _, done := g.outputDone[k]; done {
			return true
		}
	}
	// Under TrustShares, t+1 relayed shares already let every party
	// reconstruct the round's beacon; the rest of the O(n) flood adds
	// nothing. Without it an adversary could spend the quota with garbage
	// shares, so the cut-off stays off for unverified input.
	if g.cfg.TrustShares {
		if g.beaconRelay[k] >= types.BeaconQuorum(g.cfg.N) {
			return true
		}
		g.beaconRelay[k]++
	}
	return false
}

// enqueue adds one share or certificate to the pending batch. Without a
// window, or under AdaptiveBatch with the queue empty and nothing seen
// within the last window, the batch is due at once — an idle or
// lightly-loaded party pays no batching latency and arms no flush timer —
// while what arrives in bursts waits for the window to close.
func (g *Engine) enqueue(it item, now time.Duration) {
	if len(g.pending) == 0 {
		g.flushAt = now + g.cfg.ShareBatchWindow
		if g.cfg.AdaptiveBatch && now >= g.lastShareAt+g.cfg.ShareBatchWindow {
			g.flushAt = now
		}
	}
	g.lastShareAt = now
	g.pending = append(g.pending, it)
	if len(g.pending) >= g.cfg.MaxBatchShares {
		g.flush(now, true)
	}
}

// lazy reports whether an artifact is too large to push: it travels as an
// advert, and whoever lacks it asks for it.
func (g *Engine) lazy(m types.Message) bool {
	if sized, ok := m.(interface{ WireSize() int }); ok {
		return sized.WireSize() > g.cfg.EagerThreshold
	}
	return len(types.Marshal(m)) > g.cfg.EagerThreshold
}

// relayNow sends an artifact outside any signing statement (eager) or its
// advert (lazy) to every neighbour not known to hold it.
func (g *Engine) relayNow(it item) {
	frame, d := it.msg, pushed
	if g.lazy(it.msg) {
		frame, d = &types.Advert{Refs: []types.Ref{it.ref}}, advertised
	}
	for pi, p := range g.peers {
		if it.h.peers.has(pi) {
			g.count(it.msg.Kind(), peerHas)
			continue
		}
		if d == pushed {
			g.holds(it.h, pi)
		}
		g.send(p, frame)
		g.count(it.msg.Kind(), d)
	}
}

// put stores an artifact for deduplication and serving, with FIFO
// eviction.
func (g *Engine) put(ref types.Ref, m types.Message) *held {
	h := &held{msg: m}
	g.store[ref] = h
	g.order = append(g.order, ref)
	for len(g.order) > g.cfg.MaxStore {
		old := g.order[0]
		g.order = g.order[1:]
		delete(g.store, old)
	}
	return h
}

// holds records that neighbour pi (−1: not a neighbour) has the stored
// artifact.
func (g *Engine) holds(h *held, pi int) {
	if pi < 0 {
		return
	}
	if h.peers == nil {
		h.peers = newBitset(len(g.peers))
	}
	h.peers.add(pi)
}

func (g *Engine) handleAdvert(from types.PartyID, adv *types.Advert, now time.Duration) {
	var want []types.Ref
	for _, ref := range adv.Refs {
		if h := g.store[ref]; h != nil {
			g.learn(g.peerIndex(from), g.describe(h.msg, ref, h), false)
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
				g.reserved.Inc()
			}
			continue
		}
		f.asked[from] = struct{}{}
		g.armRetry(f, now)
		want = append(want, ref)
		g.requested.Inc()
	}
	if len(want) > 0 {
		g.send(from, &types.Request{Refs: want})
	}
}

// noFetch is fetchWake with no fetch outstanding.
const noFetch = time.Duration(1<<63 - 1)

// armRetry starts the retry clock of a fetch whose request just left,
// and keeps fetchWake no later than it.
func (g *Engine) armRetry(f *fetchState, now time.Duration) {
	f.retryAt = now + g.cfg.RequestRetry
	if f.retryAt < g.fetchWake {
		g.fetchWake = f.retryAt
	}
}

// retryFetches re-requests stalled fetches from the next advertiser in
// reserve once the in-flight request's retry deadline passes, and
// forgets a fetch with nobody left to ask (the advertisers evicted the
// artifact, or lied): a later advert starts it over. The walk leaves
// fetchWake at the earliest deadline still outstanding.
func (g *Engine) retryFetches(now time.Duration) {
	g.fetchWake = noFetch
	for ref, f := range g.fetch {
		if now < f.retryAt {
			if f.retryAt < g.fetchWake {
				g.fetchWake = f.retryAt
			}
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
			delete(g.fetch, ref)
			continue
		}
		f.asked[next] = struct{}{}
		g.armRetry(f, now)
		g.send(next, &types.Request{Refs: []types.Ref{ref}})
		g.retried.Inc()
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

// handleRequest serves what the store still has. A request is answered
// whatever the requester is believed to hold: it knows better.
func (g *Engine) handleRequest(from types.PartyID, req *types.Request) {
	for _, ref := range req.Refs {
		h := g.store[ref]
		if h == nil {
			g.missed.Inc()
			continue
		}
		g.send(from, h.msg)
		g.learn(g.peerIndex(from), g.describe(h.msg, ref, h), true)
		g.served.Inc()
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
	it, fresh := g.file(m)
	g.learn(g.peerIndex(from), it, false)
	if !fresh {
		return
	}
	// Relay onward before delivering (delivery may produce more output).
	if !g.relay(it, false, now) {
		return
	}
	// The inner engine's reactions are new artifacts of our own: gossip
	// them to all peers (including the artifact's source).
	g.disseminate(g.inner.HandleMessage(from, m, now), now)
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
	if h := g.store[ref]; h != nil {
		g.holds(h, g.peerIndex(from))
		return
	}
	if _, done := g.outputDone[o.Round]; done || src.Have(o.Round) {
		// Known round: nothing to install or relay (our own output
		// already made the rounds).
		g.outputDone[o.Round] = struct{}{}
		return
	}
	if !g.cfg.TrustShares {
		if err := src.VerifyOutput(o.Round, o.Output); err != nil {
			// Forged — or ahead of us: verification needs R_{k−1}, which
			// we may not have yet. Not storing it lets a later copy
			// succeed once we catch up.
			return
		}
	}
	if err := src.InstallOutput(o.Round, o.Output); err != nil {
		return
	}
	g.outputDone[o.Round] = struct{}{}
	it, _ := g.file(o)
	g.holds(it.h, g.peerIndex(from))
	g.relayNow(it)
	// The beacon for this round just became known without any share
	// crossing the engine: poke it so a waiting round can proceed now
	// rather than at its next timer.
	g.disseminate(g.inner.Tick(now), now)
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
	g.gossipArtifact(&types.BeaconOutput{Round: k, Output: out}, now)
}

// maybeFlush sends the pending batch once its window closed, and what is
// still owed of the held-back items that have listened long enough.
func (g *Engine) maybeFlush(now time.Duration) {
	first := len(g.pending) > 0 && now >= g.flushAt
	if first || (len(g.listening) > 0 && now >= g.listening[0].due) {
		g.flush(now, first)
	}
}

// flush builds each neighbour's frames from what that neighbour is known
// to hold and two sets of items: the held-back ones now due, and (first)
// the pending batch. A neighbour's shares leave as one ShareBundle, a
// certificate it still needs as a frame of its own — or as the few shares
// that complete its quorum. An item of the pending batch that is owed to
// a neighbour which speaks on that edge (speaks) is held back from it for
// listenWindows more windows; when they have passed, the same rules are
// read against the table again, and whatever the neighbour's own frame
// has made unnecessary by then is never sent. A silent speaker so costs
// that wait, never a stall, and nothing is withheld on a guess: only
// deferred, and decided on bytes this edge carried. Shares whose statement
// gained a certificate while they waited are dropped for everyone —
// whoever still needs it is served through the certificate. A batch that
// collapses to a single share for some peer goes out as the bare share —
// bundle framing would only add bytes.
func (g *Engine) flush(now time.Duration, first bool) {
	due := 0
	for due < len(g.listening) && g.listening[due].due <= now {
		due++
	}
	batch := g.batch[:0]
	keep := func(items []item) {
		for _, it := range items {
			if it.e != nil && !it.cert && it.e.done {
				g.count(it.msg.Kind(), certified)
				continue
			}
			batch = append(batch, it)
		}
	}
	keep(g.listening[:due])
	rest := copy(g.listening, g.listening[due:])
	clear(g.listening[rest:])
	g.listening = g.listening[:rest]
	// batch[:second] are on their second pass, the rest on their first.
	second := len(batch)
	if first {
		keep(g.pending)
		clear(g.pending)
		g.pending = g.pending[:0]
	}
	var slab bitset
	w := words(len(g.peers))
	for pi, p := range g.peers {
		var b types.ShareBundle
		shares := g.scratch[:0]
		for i := range batch {
			it := &batch[i]
			if i < second && !it.wait.has(pi) {
				continue
			}
			d := g.owed(pi, *it)
			switch {
			case d != pushed:
			case i >= second && g.cfg.ShareBatchWindow > 0 && !g.speaks(pi, *it):
				if slab == nil {
					// One allocation for the batch, not one per item.
					slab = make(bitset, w*(len(batch)-second))
				}
				if it.wait == nil {
					it.wait = slab[(i-second)*w : (i-second+1)*w]
				}
				it.wait.add(pi)
				d = listened
			case !it.cert:
				g.learn(pi, *it, true)
				shares = append(shares, it.msg)
			case it.advert != nil:
				it.e.peers[pi].told = true
				g.send(p, it.advert)
				d = advertised
			case g.complete(pi, *it, &b):
				d = peerQuorum
			default:
				g.learn(pi, *it, true)
				g.send(p, it.msg)
			}
			g.count(it.msg.Kind(), d)
		}
		g.scratch = shares[:0]
		if len(shares) == 1 && b.Shares() == 0 {
			g.send(p, shares[0])
			continue
		}
		for _, m := range shares {
			appendToBundle(&b, m)
		}
		switch n := b.Shares(); n {
		case 0:
		case 1:
			g.send(p, b.Expand()[0])
		default:
			frame := b
			g.send(p, &frame)
			g.bundleShares.Observe(float64(n))
		}
	}
	for _, it := range batch[second:] {
		if it.wait != nil {
			it.due = now + listenWindows*g.cfg.ShareBatchWindow
			g.listening = append(g.listening, it)
		}
	}
	// The next flush reuses the buffer; let go of what this one pointed at.
	clear(batch)
	g.batch = batch[:0]
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

// gcRounds drops per-statement state (each neighbour's part of it
// included) and beacon-relay state for rounds far behind the inner
// engine's progress. Tick calls it when that round has moved: between two
// rounds there is nothing new to collect.
func (g *Engine) gcRounds(cur types.Round) {
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
