package gossip

import (
	"testing"
	"time"

	"icc/internal/crypto/hash"
	"icc/internal/engine"
	"icc/internal/obs"
	"icc/internal/types"
)

// What each neighbour is known to hold, and the rules read from it: one
// test per rule. Each was checked by removing the rule's condition and
// seeing the test fail (DESIGN.md §14 lists the mutations).

const window = 2 * time.Millisecond

// sentTo collects what one flush sent to one party, bundles exploded.
type sentTo struct {
	notar, final []types.PartyID // signers of the shares
	certs        int
}

func sent(outs []engine.Output) map[types.PartyID]*sentTo {
	got := make(map[types.PartyID]*sentTo)
	var add func(to types.PartyID, m types.Message)
	add = func(to types.PartyID, m types.Message) {
		s := got[to]
		if s == nil {
			s = &sentTo{}
			got[to] = s
		}
		switch v := m.(type) {
		case *types.ShareBundle:
			for _, sub := range v.Expand() {
				add(to, sub)
			}
		case *types.NotarizationShare:
			s.notar = append(s.notar, v.Signer)
		case *types.FinalizationShare:
			s.final = append(s.final, v.Signer)
		case *types.Notarization, *types.Finalization:
			s.certs++
		}
	}
	for _, o := range outs {
		add(o.To, o.Msg)
	}
	return got
}

// flushed is everything a batch due at now sends: with the flush to the
// neighbours this party speaks to, and once the listening time has passed
// to the rest, none of which speaks in these tests.
func flushed(g *Engine, now time.Duration) []engine.Output {
	return append(g.Tick(now), g.Tick(now+listenWindows*g.cfg.ShareBatchWindow)...)
}

// Rule 1: a share that also arrives from P while it waits in the batch is
// dropped from P's bundle — by signer where shares are verified, by exact
// bytes where they are not.
func TestShareArrivingFromPeerLeavesItsBundle(t *testing.T) {
	for _, trust := range []bool{true, false} {
		g := mustNew(t, Config{Self: 0, N: 13, Fanout: 4, Seed: 1, ShareBatchWindow: window, TrustShares: trust}, &sink{id: 0})
		a, b := g.Peers()[0], g.Peers()[1]
		share := &types.NotarizationShare{Round: 2, Proposer: 1, BlockHash: hash.Digest{3}, Signer: 9, Sig: []byte{9}}
		other := &types.NotarizationShare{Round: 2, Proposer: 1, BlockHash: hash.Digest{3}, Signer: 8, Sig: []byte{8}}
		g.HandleMessage(a, share, 0)
		g.HandleMessage(a, other, 0)
		// The second copy delivers nothing, but it says that b holds it.
		if outs := g.HandleMessage(b, share, 0); len(outs) != 0 {
			t.Fatalf("trust=%v: duplicate produced %d frames", trust, len(outs))
		}
		got := sent(flushed(g, window))
		if got[a] != nil {
			t.Fatalf("trust=%v: shares went back to their source: %+v", trust, got[a])
		}
		if s := got[b]; s == nil || containsParty(s.notar, 9) || !containsParty(s.notar, 8) {
			t.Fatalf("trust=%v: b was sent %+v, want signer 8 without signer 9", trust, s)
		}
		for _, p := range g.Peers()[2:] {
			if s := got[p]; s == nil || len(s.notar) != 2 {
				t.Fatalf("trust=%v: peer %d was sent %+v, want both shares", trust, p, s)
			}
		}
	}
}

// quorumFixture is a 13-party wrapper (quorum 9) that has just combined
// the certificate: peer a sent it all nine shares, peer b the first
// eight of them as well, peer c none.
func quorumFixture(t *testing.T, trust bool) (g *Engine, f *aggFixture, a, b, c types.PartyID) {
	t.Helper()
	f = newAggFixture(t, 13)
	g = mustNew(t, Config{Self: 0, N: 13, Fanout: 4, Seed: 1, ShareBatchWindow: window,
		Aggregate: true, TrustShares: trust, Keys: f.pub}, &sink{id: 0})
	a, b, c = g.Peers()[0], g.Peers()[1], g.Peers()[2]
	for signer := types.PartyID(1); signer <= 9; signer++ {
		g.HandleMessage(a, f.nshare(signer), 0)
		if signer <= 8 {
			g.HandleMessage(b, f.nshare(signer), 0)
		}
	}
	if !g.agg[aggKey{round: 1, blockHash: f.h}].done {
		t.Fatal("nine shares did not certify the statement")
	}
	return g, f, a, b, c
}

// Rules 2 and 3: a neighbour known to hold nine of thirteen verified
// shares gets neither a tenth share nor the certificate; one at eight
// gets the share that completes its quorum and nothing more; one that
// showed nothing gets the certificate, which is smaller than nine shares.
func TestNeighbourAtQuorumGetsNeitherShareNorCertificate(t *testing.T) {
	g, f, a, b, c := quorumFixture(t, true)
	// A tenth share, our own, joins the batch after the certificate.
	g.disseminate([]engine.Output{engine.Broadcast(f.nshare(0))}, 0)
	got := sent(flushed(g, window))
	if s := got[a]; s != nil {
		t.Fatalf("a holds a quorum and was sent %+v", s)
	}
	if s := got[b]; s == nil || s.certs != 0 || len(s.notar) != 1 || s.notar[0] != 9 {
		t.Fatalf("b holds eight and was sent %+v, want exactly the share of signer 9", s)
	}
	if s := got[c]; s == nil || s.certs != 1 || len(s.notar) != 0 {
		t.Fatalf("c holds nothing and was sent %+v, want the certificate alone", s)
	}
	// b now counts as holding a quorum: a late share from it changes nothing.
	if outs := g.HandleMessage(b, f.nshare(10), 4*window); len(outs) != 0 {
		t.Fatalf("a share after the certificate produced %d frames", len(outs))
	}
}

// The trust condition: where shares reach the wrapper unverified, nine
// relayed shares prove nothing about what their sender can combine — a
// forged one among them would be counted toward a quorum it cannot form —
// so the certificate goes to it all the same.
func TestUnverifiedSharesDoNotSuppressTheCertificate(t *testing.T) {
	g, _, a, b, c := quorumFixture(t, false)
	got := sent(flushed(g, window))
	for _, p := range []types.PartyID{a, b, c} {
		if s := got[p]; s == nil || s.certs != 1 || len(s.notar) != 0 {
			t.Fatalf("peer %d was sent %+v, want the certificate", p, s)
		}
	}
}

// Unverified, a share is known by its bytes, not by its signer: a forgery
// under an honest signer's name that a sent us must not keep the real
// share from reaching a.
func TestUnverifiedShareIsKnownByItsBytes(t *testing.T) {
	f := newAggFixture(t, 13)
	g := mustNew(t, Config{Self: 0, N: 13, Fanout: 4, Seed: 1, ShareBatchWindow: window}, &sink{id: 0})
	a, c := g.Peers()[0], g.Peers()[2]
	forged := f.nshare(9)
	forged.Sig = make([]byte, len(forged.Sig))
	g.HandleMessage(a, forged, 0)
	g.HandleMessage(c, f.nshare(9), 0)
	got := sent(flushed(g, window))
	if s := got[a]; s == nil || len(s.notar) != 1 {
		t.Fatalf("a sent a forgery of signer 9's share and was sent %+v, want the real one", s)
	}
	if s := got[c]; s == nil || len(s.notar) != 1 {
		t.Fatalf("c sent the real share and was sent %+v, want the forgery it has not seen", s)
	}
}

// A certificate received from P is never sent back to P, even when it
// arrives after ours was queued: the duplicate is dropped, what it says
// about P is kept.
func TestCertificateFromPeerIsNotSentBack(t *testing.T) {
	for _, trust := range []bool{true, false} {
		g, f, _, _, c := quorumFixture(t, trust)
		signers := []types.PartyID{2, 3, 4, 5, 6, 7, 8, 9, 10}
		if outs := g.HandleMessage(c, f.notarization(t, signers...), 0); len(outs) != 0 {
			t.Fatalf("trust=%v: duplicate certificate produced %d frames", trust, len(outs))
		}
		if s := sent(flushed(g, window))[c]; s != nil {
			t.Fatalf("trust=%v: c sent us the certificate and was sent %+v", trust, s)
		}
	}
}

// A certificate above the eager threshold (multisig from n ≈ 20 up)
// travels as an advert from the same flush, to the neighbours the table
// does not show to hold it; a neighbour's own advert for it counts as its
// word that it does.
func TestLargeCertificateIsAdvertisedToThoseWhoLackIt(t *testing.T) {
	reg := obs.NewRegistry()
	g := mustNew(t, Config{Self: 0, N: 13, Fanout: 4, Seed: 1, ShareBatchWindow: window, TrustShares: true, Registry: reg}, &sink{id: 0})
	a, b := g.Peers()[0], g.Peers()[1]
	cert := &types.Finalization{Round: 3, Proposer: 1, BlockHash: hash.Digest{7}, Agg: make([]byte, 4096)}
	g.HandleMessage(a, cert, 0)
	g.HandleMessage(b, &types.Advert{Refs: []types.Ref{types.RefOf(cert)}}, 0)
	adverts := make(map[types.PartyID]int)
	for _, o := range flushed(g, window) {
		if _, ok := o.Msg.(*types.Advert); !ok {
			t.Fatalf("flush sent %T, want adverts only", o.Msg)
		}
		adverts[o.To]++
	}
	if adverts[a] != 0 || adverts[b] != 0 || len(adverts) != len(g.Peers())-2 {
		t.Fatalf("adverts went to %v, want every neighbour but %d and %d", adverts, a, b)
	}
	// Served on request, and then known to be held.
	outs := g.HandleMessage(g.Peers()[2], &types.Request{Refs: []types.Ref{types.RefOf(cert)}}, 4*window)
	if len(outs) != 1 || outs[0].Msg != types.Message(cert) {
		t.Fatalf("request answered with %v", outs)
	}
	g.HandleMessage(g.Peers()[2], &types.Request{Refs: []types.Ref{{Kind: types.KindBlock}}}, 4*window)
	// Each decision was counted where it was made.
	snap := reg.Snapshot()
	for key, want := range map[string]float64{
		`icc_gossip_frames_total{kind="finalization",decision="advertised"}`: float64(len(g.Peers()) - 2),
		`icc_gossip_frames_total{kind="finalization",decision="peer_has"}`:   2,
		`icc_gossip_fetch_total{outcome="served"}`:                           1,
		`icc_gossip_fetch_total{outcome="missed"}`:                           1,
	} {
		if snap[key] != want {
			t.Errorf("%s = %v, want %v", key, snap[key], want)
		}
	}
}

// roundSink is an inner engine whose round the test advances.
type roundSink struct {
	sink
	round types.Round
}

func (s *roundSink) CurrentRound() types.Round { return s.round }

// A node that stays up must not grow: several thousand rounds of the
// traffic a relay sees — blocks, authenticators, shares from several
// neighbours, certificates, beacon shares, adverts for artifacts that
// never arrive — leave every map the size it had after the first
// thousand.
func TestMapsStayFlatOverThousandsOfRounds(t *testing.T) {
	f := newAggFixture(t, 13)
	inner := &roundSink{sink: sink{id: 0}}
	g := mustNew(t, Config{Self: 0, N: 13, Fanout: 8, Seed: 42, ShareBatchWindow: window, AdaptiveBatch: true,
		Aggregate: true, TrustShares: true, Keys: f.pub, MaxStore: 4096, RequestRetry: 10 * time.Millisecond}, inner)
	peers := g.Peers()
	sig := make([]byte, 64)
	sizes := func() [7]int {
		return [7]int{len(g.store), len(g.order), len(g.fetch), len(g.agg), len(g.beaconRelay), len(g.outputDone), len(g.pending) + len(g.listening)}
	}
	var at1000 [7]int
	now := time.Duration(0)
	for k := types.Round(1); k <= 4000; k++ {
		inner.round = k
		inner.received = inner.received[:0]
		h := hash.SumUint64(hash.DomainBlock, uint64(k))
		prop := types.PartyID(k % 13)
		g.HandleMessage(peers[0], &types.BlockMsg{Block: &types.Block{Round: k, Proposer: 12, Payload: []byte{byte(k)}}}, now)
		g.HandleMessage(peers[0], &types.Authenticator{Round: k, Proposer: prop, BlockHash: h, Sig: sig}, now)
		for s := types.PartyID(0); s < 13; s++ {
			from := peers[int(s)%len(peers)]
			g.HandleMessage(from, &types.BeaconShare{Round: k, Signer: s, Share: []byte{byte(k), byte(s)}}, now)
			g.HandleMessage(from, &types.NotarizationShare{Round: k, Proposer: prop, BlockHash: h, Signer: s, Sig: sig}, now)
			g.HandleMessage(peers[(int(s)+1)%len(peers)], &types.FinalizationShare{Round: k, Proposer: prop, BlockHash: h, Signer: s, Sig: sig}, now)
		}
		// Two neighbours advertise something nobody will ever deliver.
		ghost := &types.Advert{Refs: []types.Ref{{Kind: types.KindBlock, ID: hash.SumUint64(hash.DomainPayload, uint64(k))}}}
		g.HandleMessage(peers[1], ghost, now)
		g.HandleMessage(peers[2], ghost, now)
		now += 20 * time.Millisecond
		g.Tick(now)
		if k == 1000 {
			at1000 = sizes()
		}
	}
	if got := sizes(); got != at1000 {
		t.Fatalf("map sizes after 4000 rounds %v, after 1000 rounds %v (store, order, fetch, agg, beaconRelay, outputDone, pending)", got, at1000)
	}
	if at1000[0] > 4096 || at1000[2] > 4 || at1000[3] > 2*(aggRetainRounds+2) {
		t.Fatalf("map sizes %v exceed their bounds (store, order, fetch, agg, beaconRelay, outputDone, pending)", at1000)
	}
}

// Rule 4: one speaker per edge and artifact. Each test below was checked
// against the mutation it names (DESIGN.md §14 lists them).

// pair is two adjacent wrappers of the overlay node.New builds at n = 13
// (eight or more neighbours each), wired back to back: what one sends the
// other arrives half a window later, what it sends anybody else is
// dropped.
type pair struct {
	t      *testing.T
	a, b   *Engine
	flight []frame
	// ab and ba are the signers of the notarization shares that crossed
	// the edge in each direction.
	ab, ba []types.PartyID
}

type frame struct {
	at   time.Duration
	from *Engine
	msg  types.Message
}

// newPair picks the first edge and signer for which want holds: side is
// −1, 0 or +1 as a is nearer the signer, neither is, or b is.
func newPair(t *testing.T, cfg Config, want func(side int8) bool) (*pair, types.PartyID) {
	t.Helper()
	cfg.N, cfg.Fanout, cfg.Seed, cfg.ShareBatchWindow = 13, DefaultFanout(13), 42, window
	for a := types.PartyID(0); a < 13; a++ {
		cfg.Self = a
		ga := mustNew(t, cfg, &sink{id: a})
		for bi, b := range ga.Peers() {
			for s := types.PartyID(0); s < 13; s++ {
				if s == a || s == b || !want(ga.sides[bi][s]) {
					continue
				}
				cfg.Self = b
				return &pair{t: t, a: ga, b: mustNew(t, cfg, &sink{id: b})}, s
			}
		}
	}
	t.Fatal("the overlay has no such edge")
	return nil, 0
}

// outsider is a neighbour of g other than the pair's other end.
func (p *pair) outsider(g *Engine) types.PartyID {
	for _, q := range g.Peers() {
		if q != p.a.cfg.Self && q != p.b.cfg.Self {
			return q
		}
	}
	p.t.Fatal("no third neighbour")
	return 0
}

// other is the end of the edge that g is not.
func (p *pair) other(g *Engine) *Engine {
	if g == p.a {
		return p.b
	}
	return p.a
}

// hand gives g a message from one of its other neighbours.
func (p *pair) hand(g *Engine, m types.Message, now time.Duration) {
	p.post(g, g.HandleMessage(p.outsider(g), m, now), now)
}

// post puts what from sent to the other end on the wire.
func (p *pair) post(from *Engine, outs []engine.Output, now time.Duration) {
	for _, o := range outs {
		if o.To == p.other(from).cfg.Self {
			p.flight = append(p.flight, frame{at: now + window/2, from: from, msg: o.Msg})
		}
	}
}

// run delivers frames and fires both ends' timers in the order they come
// due until the edge is quiet, and returns the time it then is.
func (p *pair) run(now time.Duration) time.Duration {
	for {
		next, fire := time.Duration(-1), func() {}
		soonest := func(at time.Duration, f func()) {
			if next < 0 || at < next {
				next, fire = at, f
			}
		}
		if len(p.flight) > 0 {
			fr := p.flight[0]
			soonest(fr.at, func() {
				p.flight = p.flight[1:]
				crossed := &p.ab
				if fr.from == p.b {
					crossed = &p.ba
				}
				to := p.other(fr.from)
				*crossed = append(*crossed, sent([]engine.Output{{To: to.cfg.Self, Msg: fr.msg}})[to.cfg.Self].notar...)
				p.post(to, to.HandleMessage(fr.from.cfg.Self, fr.msg, fr.at), fr.at)
			})
		}
		for _, g := range []*Engine{p.a, p.b} {
			if wake, ok := g.NextWake(now); ok {
				soonest(wake, func() { p.post(g, g.Tick(wake), wake) })
			}
		}
		if next < 0 {
			return now
		}
		now = next
		fire()
	}
}

// Two neighbours equally far from a share's signer learn it in the same
// window, each from somebody else. Before rule 4 each sent it to the
// other; now exactly one copy crosses their edge, whichever end the tie
// bit names. (Mutation: speaks always true.)
func TestCrossingShareTravelsOneWay(t *testing.T) {
	for _, trust := range []bool{true, false} {
		p, signer := newPair(t, Config{TrustShares: trust}, func(side int8) bool { return side == 0 })
		now := time.Duration(0)
		for round := types.Round(1); round <= 8; round++ {
			share := &types.NotarizationShare{Round: round, Proposer: 1, BlockHash: hash.SumUint64(hash.DomainBlock, uint64(round)), Signer: signer, Sig: []byte{byte(round)}}
			p.ab, p.ba = nil, nil
			now += time.Second
			p.hand(p.a, share, now)
			p.hand(p.b, share, now)
			now = p.run(now)
			if len(p.ab)+len(p.ba) != 1 {
				t.Fatalf("trust=%v round %d: %d copies crossed one way and %d the other, want one in all", trust, round, len(p.ab), len(p.ba))
			}
		}
	}
}

// The end nearer the signer relays in the window it always did, and a
// party's own share leaves with the flush to every neighbour, also to one
// that the tie bit would let speak: distance 0 beats every tie. (Mutation:
// speaks without the distance table.)
func TestSharesFlowAwayFromTheirSignerWithoutDelay(t *testing.T) {
	p, signer := newPair(t, Config{TrustShares: true}, func(side int8) bool { return side < 0 })
	for round := types.Round(1); round <= 8; round++ {
		h := hash.SumUint64(hash.DomainBlock, uint64(round))
		share := &types.NotarizationShare{Round: round, Proposer: 1, BlockHash: h, Signer: signer, Sig: []byte{1}}
		now := time.Duration(round) * time.Second
		p.a.HandleMessage(p.outsider(p.a), share, now)
		if s := sent(p.a.Tick(now + window))[p.b.cfg.Self]; s == nil || len(s.notar) != 1 {
			t.Fatalf("round %d: the farther neighbour was sent %+v when the window closed, want the share", round, s)
		}
		own := &types.NotarizationShare{Round: round, Proposer: 1, BlockHash: h, Signer: p.a.cfg.Self, Sig: []byte{2}}
		p.a.disseminate([]engine.Output{engine.Broadcast(own)}, now+window)
		got := sent(p.a.Tick(now + 2*window))
		for _, q := range p.a.Peers() {
			if s := got[q]; s == nil || len(s.notar) != 1 || s.notar[0] != p.a.cfg.Self {
				t.Fatalf("round %d: neighbour %d was sent %+v with the flush, want this party's own share", round, q, s)
			}
		}
		p.a.Tick(now + 10*window)
	}
}

// The listening end sends nothing while the speaker may still speak,
// NextWake names the moment its patience ends, and at that moment — not
// a tick later — the share goes out if the speaker stayed silent, and
// does not if the speaker's copy came in meanwhile. The item is delivered
// to the engine once and settled once per neighbour. (Mutations: due
// never reached — the listener waits for the speaker's frame; listening
// not surfaced by NextWake.)
func TestListenerSpeaksAfterTheListeningTimeWhenTheSpeakerIsSilent(t *testing.T) {
	reg := obs.NewRegistry()
	p, signer := newPair(t, Config{TrustShares: true, Registry: reg}, func(side int8) bool { return side > 0 })
	g, speaker := p.a, p.b.cfg.Self
	silent := &types.NotarizationShare{Round: 1, Proposer: 1, BlockHash: hash.Digest{1}, Signer: signer, Sig: []byte{1}}
	spoken := &types.NotarizationShare{Round: 2, Proposer: 1, BlockHash: hash.Digest{2}, Signer: signer, Sig: []byte{2}}
	g.HandleMessage(p.outsider(g), silent, 0)
	g.HandleMessage(p.outsider(g), spoken, 0)
	if s := sent(g.Tick(window))[speaker]; s != nil {
		t.Fatalf("the nearer neighbour was sent %+v before it had a chance to speak", s)
	}
	due := window + listenWindows*window
	if wake, ok := g.NextWake(window); !ok || wake != due {
		t.Fatalf("NextWake = %v, %v; want the end of the listening time %v", wake, ok, due)
	}
	if outs := g.HandleMessage(speaker, spoken, due-2); len(outs) != 0 {
		t.Fatalf("the speaker's copy produced %d frames", len(outs))
	}
	if outs := g.Tick(due - 1); len(outs) != 0 {
		t.Fatalf("%d frames left before the listening time had passed", len(outs))
	}
	if s := sent(g.Tick(due))[speaker]; s == nil || len(s.notar) != 1 {
		t.Fatalf("when the listening time had passed, the speaker was sent %+v, want the one share it did not send", s)
	}
	if _, ok := g.NextWake(due); ok {
		t.Fatal("a timer is armed with nothing pending and nothing held back")
	}
	if n := len(g.inner.(*sink).received); n != 2 {
		t.Fatalf("the engine was handed %d shares, want each of the two once", n)
	}
	snap := reg.Snapshot()
	count := func(d string) float64 {
		return snap[`icc_gossip_frames_total{kind="notarization-share",decision="`+d+`"}`]
	}
	if settled := count("pushed") + count("peer_has"); settled != float64(2*len(g.Peers())) || count("listened") == 0 {
		t.Fatalf("two shares were settled %v times for %d neighbours (listened %v): %v", settled, len(g.Peers()), count("listened"), snap)
	}
}

// Both ends of every edge of the overlays node.New builds at n = 13 and
// n = 100 name the same speaker for every kind of item, signer and
// statement, and no party is the listener on much more or less than half
// of the items its id and the tie bit decide. (Mutations: the tie bit
// dropped, so that the lower id always speaks; sides not negated between
// the ends.)
func TestBothEndsAgreeOnTheSpeaker(t *testing.T) {
	for _, n := range []int{13, 100} {
		engines := make([]*Engine, n)
		for i := range engines {
			engines[i] = mustNew(t, Config{Self: types.PartyID(i), N: n, Fanout: DefaultFanout(n), Seed: 42,
				ShareBatchWindow: window, TrustShares: true}, &sink{id: types.PartyID(i)})
		}
		var msgs []types.Message
		for round := types.Round(1); round <= 16; round++ {
			h := hash.SumUint64(hash.DomainBlock, uint64(round))
			msgs = append(msgs, &types.Notarization{Round: round, Proposer: 1, BlockHash: h}, &types.Finalization{Round: round, Proposer: 1, BlockHash: h})
			for s := types.PartyID(0); int(s) < n; s++ {
				msgs = append(msgs, &types.NotarizationShare{Round: round, Proposer: 1, BlockHash: h, Signer: s},
					&types.FinalizationShare{Round: round, Proposer: 1, BlockHash: h, Signer: s},
					&types.BeaconShare{Round: round, Signer: s})
			}
		}
		ties, listens := make([]int, n), make([]int, n)
		for _, m := range msgs {
			ref := types.RefOf(m)
			for a, ga := range engines {
				ita := ga.describe(m, ref, nil)
				for bi, b := range ga.Peers() {
					gb := engines[b]
					speaks := ga.speaks(bi, ita)
					if int(b) > a && speaks == gb.speaks(gb.peerAt[a], gb.describe(m, ref, nil)) {
						t.Fatalf("n=%d: parties %d and %d both say speaks=%v for %T %+v", n, a, b, speaks, m, m)
					}
					if ita.signer == types.PartyID(a) && !speaks {
						t.Fatalf("n=%d: party %d holds back its own %T", n, a, m)
					}
					if ita.signer < 0 || ga.sides[bi][ita.signer] == 0 {
						ties[a]++
						if !speaks {
							listens[a]++
						}
					}
				}
			}
		}
		for a := range engines {
			if share := float64(listens[a]) / float64(ties[a]); share < 0.4 || share > 0.6 {
				t.Errorf("n=%d: party %d listens on %.0f %% of its %d tie-broken items, want 40–60 %%", n, a, 100*share, ties[a])
			}
		}
	}
}

// Two neighbours that reach a statement's quorum in the same window owe
// each other the certificate, and each would serve it as the shares the
// other is not known to hold. With one speaker, quorum − known shares
// cross in all, not in each direction, and the listener finds that what
// the speaker sent has settled its own debt. (Mutation: speaks always
// true.)
func TestCompletionIsOneWay(t *testing.T) {
	f := newAggFixture(t, 13)
	p, _ := newPair(t, Config{Aggregate: true, TrustShares: true, Keys: f.pub}, func(int8) bool { return true })
	quorum := f.pub.Notary.Quorum()
	// Three shares cross the edge first, so that each end knows the other
	// to hold them.
	for signer := types.PartyID(0); signer < 3; signer++ {
		p.hand(p.a, f.nshare(signer), 0)
	}
	now := p.run(0)
	if known := len(p.ab) + len(p.ba); known != 3 {
		t.Fatalf("%d shares crossed the edge, want each of the three once", known)
	}
	// The rest of a quorum reaches both ends at once, from elsewhere.
	p.ab, p.ba = nil, nil
	now += time.Second
	for signer := types.PartyID(3); int(signer) < quorum; signer++ {
		p.hand(p.a, f.nshare(signer), now)
		p.hand(p.b, f.nshare(signer), now)
	}
	for _, g := range []*Engine{p.a, p.b} {
		if !g.agg[aggKey{round: 1, blockHash: f.h}].done {
			t.Fatalf("party %d did not certify the statement", g.cfg.Self)
		}
	}
	p.run(now)
	if len(p.ab) != 0 && len(p.ba) != 0 || len(p.ab)+len(p.ba) != quorum-3 {
		t.Fatalf("%d shares crossed one way and %d the other, want %d one way and none the other", len(p.ab), len(p.ba), quorum-3)
	}
}

// An advert sent is recorded as sent: when the store has evicted a large
// certificate and a neighbour sends it again, the neighbours already told
// where to ask are not told again. (Mutation: told never set.)
func TestAdvertIsRecordedAsSent(t *testing.T) {
	g := mustNew(t, Config{Self: 0, N: 13, Fanout: 4, Seed: 1, ShareBatchWindow: window, TrustShares: true, MaxStore: 1}, &sink{id: 0})
	a := g.Peers()[0]
	cert := &types.Finalization{Round: 3, Proposer: 1, BlockHash: hash.Digest{7}, Agg: make([]byte, 4096)}
	g.HandleMessage(a, cert, 0)
	if outs := flushed(g, window); len(outs) != len(g.Peers())-1 {
		t.Fatalf("%d adverts, want one for every neighbour but the source", len(outs))
	}
	g.HandleMessage(a, &types.Authenticator{Round: 3, Proposer: 1, BlockHash: hash.Digest{7}, Sig: []byte{1}}, time.Second)
	if g.store[types.RefOf(cert)] != nil {
		t.Fatal("the certificate is still in a store of one")
	}
	g.HandleMessage(a, cert, time.Second)
	for _, o := range flushed(g, time.Second+window) {
		if _, ok := o.Msg.(*types.Advert); ok {
			t.Fatalf("neighbour %d was told of the certificate twice", o.To)
		}
	}
}
