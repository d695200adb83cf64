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
		got := sent(g.Tick(window))
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
	got := sent(g.Tick(window))
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
	if outs := g.HandleMessage(b, f.nshare(10), window); len(outs) != 0 {
		t.Fatalf("a share after the certificate produced %d frames", len(outs))
	}
}

// The trust condition: where shares reach the wrapper unverified, nine
// relayed shares prove nothing about what their sender can combine — a
// forged one among them would be counted toward a quorum it cannot form —
// so the certificate goes to it all the same.
func TestUnverifiedSharesDoNotSuppressTheCertificate(t *testing.T) {
	g, _, a, b, c := quorumFixture(t, false)
	got := sent(g.Tick(window))
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
	got := sent(g.Tick(window))
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
		if s := sent(g.Tick(window))[c]; s != nil {
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
	for _, o := range g.Tick(window) {
		if _, ok := o.Msg.(*types.Advert); !ok {
			t.Fatalf("flush sent %T, want adverts only", o.Msg)
		}
		adverts[o.To]++
	}
	if adverts[a] != 0 || adverts[b] != 0 || len(adverts) != len(g.Peers())-2 {
		t.Fatalf("adverts went to %v, want every neighbour but %d and %d", adverts, a, b)
	}
	// Served on request, and then known to be held.
	outs := g.HandleMessage(g.Peers()[2], &types.Request{Refs: []types.Ref{types.RefOf(cert)}}, window)
	if len(outs) != 1 || outs[0].Msg != types.Message(cert) {
		t.Fatalf("request answered with %v", outs)
	}
	g.HandleMessage(g.Peers()[2], &types.Request{Refs: []types.Ref{{Kind: types.KindBlock}}}, window)
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
		return [7]int{len(g.store), len(g.order), len(g.fetch), len(g.agg), len(g.beaconRelay), len(g.outputDone), len(g.pending)}
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
