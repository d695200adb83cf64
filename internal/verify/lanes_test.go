package verify

// Tests for the two-lane admission path: resync-lane priority, chain-
// aware batch verification, behind-frontier shedding, and the depth
// gauges' lifecycle.

import (
	"sync/atomic"
	"testing"
	"time"

	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/hash"
	"icc/internal/obs"
	"icc/internal/pool"
	"icc/internal/transport"
	"icc/internal/types"
)

// notarization combines a full quorum of real shares on b.
func (f *fixture) notarization(t testing.TB, b *types.Block) *types.Notarization {
	t.Helper()
	msg := types.SigningBytes(b.Round, b.Proposer, b.Hash())
	shares := make([]*aggsig.Share, f.pub.N)
	for i := range shares {
		shares[i] = f.privs[i].Notary.Sign(types.DomainNotarization, msg)
	}
	agg, err := f.pub.Notary.Combine(types.DomainNotarization, msg, shares)
	if err != nil {
		t.Fatal(err)
	}
	return &types.Notarization{Round: b.Round, Proposer: b.Proposer, BlockHash: b.Hash(), Agg: agg.Encode()}
}

// gatedVerifier blocks every notarization-share check until the gate
// opens, so tests can hold the worker mid-verification.
type gatedVerifier struct {
	pool.Verifier
	gate chan struct{}
}

func (g *gatedVerifier) NotarizationShare(s *types.NotarizationShare) error {
	<-g.gate
	return g.Verifier.NotarizationShare(s)
}

// countingVerifier counts full notarization verifications, to observe
// how many the chain-aware path actually performs.
type countingVerifier struct {
	pool.Verifier
	notarizations atomic.Int64
}

func (c *countingVerifier) Notarization(nz *types.Notarization) error {
	c.notarizations.Add(1)
	return c.Verifier.Notarization(nz)
}

// waitDepthZero polls until no envelope is waiting in a lane — i.e. the
// single worker has dequeued everything submitted so far.
func waitDepthZero(t *testing.T, reg *obs.Registry) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for reg.Snapshot()["icc_verify_queue_depth"] != 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue depth never drained")
		}
		time.Sleep(time.Millisecond)
	}
}

func TestPipelineResyncLaneNotStarved(t *testing.T) {
	f := newFixture(t, 4)
	reg := obs.NewRegistry()
	gv := &gatedVerifier{Verifier: pool.NewVerifier(f.pub, pool.VerifyFull), gate: make(chan struct{})}
	p := New(gv, Options{Workers: 1, Registry: reg})
	defer p.Close()

	live := func(k types.Round) transport.Envelope {
		bh := hash.SumUint64(hash.DomainBlock, uint64(k))
		return transport.Envelope{From: 1, Msg: f.nshare(k, 0, 1, bh)}
	}
	// The worker dequeues the first share and blocks inside the
	// verifier; then the live lane is filled to the brim.
	if !p.TrySubmit(live(1)) {
		t.Fatal("first submit refused")
	}
	waitDepthZero(t, reg)
	for k := types.Round(2); k <= minQueue+1; k++ {
		if !p.TrySubmit(live(k)) {
			t.Fatalf("live lane full after %d submissions, capacity %d", k-2, minQueue)
		}
	}
	if p.TrySubmit(live(minQueue + 2)) {
		t.Fatalf("live lane accepted envelope %d, want saturation", minQueue+1)
	}
	// A saturated live lane must not refuse resync traffic...
	bh := hash.SumUint64(hash.DomainBlock, 99)
	resync := &types.Bundle{Messages: []types.Message{f.nshare(99, 0, 2, bh)}, Resync: true}
	if !p.TrySubmit(transport.Envelope{From: 2, Msg: resync}) {
		t.Fatal("resync bundle refused while the live lane is saturated")
	}
	snap := reg.Snapshot()
	if snap[`icc_verify_lane_depth{lane="live"}`] != minQueue {
		t.Fatalf("live lane depth = %v, want %d", snap[`icc_verify_lane_depth{lane="live"}`], minQueue)
	}
	if snap[`icc_verify_lane_depth{lane="resync"}`] != 1 {
		t.Fatalf("resync lane depth = %v, want 1", snap[`icc_verify_lane_depth{lane="resync"}`])
	}
	// ...and the moment the worker frees up, the resync bundle jumps
	// the entire live backlog.
	close(gv.gate)
	got := drain(t, p, minQueue+2, 5*time.Second)
	if _, ok := got[0].Msg.(*types.NotarizationShare); !ok {
		t.Fatalf("first delivery %#v, want the in-flight live share", got[0].Msg)
	}
	if _, ok := got[1].Msg.(*types.Bundle); !ok {
		t.Fatalf("second delivery %#v, want the resync bundle ahead of %d queued live shares", got[1].Msg, minQueue)
	}
}

func TestPipelineChainAdmission(t *testing.T) {
	f := newFixture(t, 4)
	reg := obs.NewRegistry()
	cv := &countingVerifier{Verifier: pool.NewVerifier(f.pub, pool.VerifyFull)}
	p := New(cv, Options{Workers: 1, Registry: reg})
	defer p.Close()

	// A catch-up batch: six hash-linked rounds, each with its block and
	// a real notarization — plus a forged notarization at a higher
	// round that links to nothing.
	parent := hash.Zero
	var msgs []types.Message
	for k := types.Round(1); k <= 6; k++ {
		b := &types.Block{Round: k, Proposer: 0, ParentHash: parent, Payload: []byte("x")}
		msgs = append(msgs, &types.BlockMsg{Block: b}, f.notarization(t, b))
		parent = b.Hash()
	}
	forged := &types.Notarization{Round: 9, Proposer: 0,
		BlockHash: hash.SumUint64(hash.DomainBlock, 999), Agg: []byte{1, 2, 3}}
	msgs = append(msgs, forged)

	p.Submit(transport.Envelope{From: 1, Msg: &types.Bundle{Messages: msgs, Resync: true}})
	got := drain(t, p, 1, 5*time.Second)
	b, ok := got[0].Msg.(*types.Bundle)
	if !ok || len(b.Messages) != 12 {
		t.Fatalf("delivered %#v, want the 12 genuine messages (forged head dropped)", got[0].Msg)
	}
	// The forged head and the genuine round-6 head were verified in
	// full; rounds 1–5 were admitted by parent-digest linkage.
	if n := cv.notarizations.Load(); n != 2 {
		t.Fatalf("verifier ran %d notarization checks, want 2 (chain admission)", n)
	}
	snap := reg.Snapshot()
	if snap["icc_verify_chain_admitted_total"] != 5 {
		t.Fatalf("chain_admitted = %v, want 5", snap["icc_verify_chain_admitted_total"])
	}
	if snap[`icc_verify_rejects_total{reason="bad_aggregate"}`] != 1 {
		t.Fatalf("forged head not rejected: %v", snap)
	}
	// The frontier follows the verified head, not the forged round.
	if p.Frontier() != 6 {
		t.Fatalf("frontier = %d, want 6", p.Frontier())
	}
}

func TestPipelineShedsLiveWhileBehind(t *testing.T) {
	f := newFixture(t, 4)
	reg := obs.NewRegistry()
	p := New(pool.NewVerifier(f.pub, pool.VerifyFull), Options{Workers: 1, Registry: reg})
	defer p.Close()

	// Engine at round 1 with a verified frontier at 200: far behind, so
	// live artifacts beyond round 1+64 are useless queue pressure.
	p.NoteEngineRound(1)
	p.noteFrontier(200)
	stale := f.nshare(100, 0, 1, hash.SumUint64(hash.DomainBlock, 100))
	if !p.Submit(transport.Envelope{From: 2, Msg: stale}) {
		t.Fatal("shed submit reported failure; the envelope was consumed")
	}
	near := f.nshare(5, 0, 1, hash.SumUint64(hash.DomainBlock, 5))
	p.Submit(transport.Envelope{From: 2, Msg: near})
	got := drain(t, p, 1, 5*time.Second)
	if s, ok := got[0].Msg.(*types.NotarizationShare); !ok || s.Round != 5 {
		t.Fatalf("delivered %#v, want the round-5 share (round-100 shed)", got[0].Msg)
	}
	select {
	case env := <-p.Out():
		t.Fatalf("shed artifact delivered: %#v", env.Msg)
	case <-time.After(200 * time.Millisecond):
	}
	if snap := reg.Snapshot(); snap[`icc_verify_rejects_total{reason="behind"}`] != 1 {
		t.Fatalf("behind rejects = %v, want 1", snap[`icc_verify_rejects_total{reason="behind"}`])
	}
	// A payload offer for a round this party is nowhere near is shed like
	// any live artifact; one within the window passes through unverified.
	p.Submit(transport.Envelope{From: 2, Msg: &types.PayloadOffer{Round: 100, Payload: []byte("x")}})
	p.Submit(transport.Envelope{From: 2, Msg: &types.PayloadOffer{Round: 3, Payload: []byte("x")}})
	got = drain(t, p, 1, 5*time.Second)
	if o, ok := got[0].Msg.(*types.PayloadOffer); !ok || o.Round != 3 {
		t.Fatalf("delivered %#v, want the round-3 offer (round-100 shed)", got[0].Msg)
	}
	if snap := reg.Snapshot(); snap[`icc_verify_rejects_total{reason="behind"}`] != 2 {
		t.Fatalf("behind rejects = %v, want 2", snap[`icc_verify_rejects_total{reason="behind"}`])
	}
	// Resync-marked traffic is never shed, whatever its rounds.
	deep := &types.Bundle{Messages: []types.Message{
		f.nshare(100, 0, 2, hash.SumUint64(hash.DomainBlock, 100)),
	}, Resync: true}
	p.Submit(transport.Envelope{From: 3, Msg: deep})
	got = drain(t, p, 1, 5*time.Second)
	if _, ok := got[0].Msg.(*types.Bundle); !ok {
		t.Fatalf("resync bundle shed: %#v", got[0].Msg)
	}
	// Once caught up (round near frontier), nothing is shed.
	p.NoteEngineRound(195)
	p.Submit(transport.Envelope{From: 2, Msg: f.nshare(200, 0, 1, hash.SumUint64(hash.DomainBlock, 200))})
	drain(t, p, 1, 5*time.Second)
}

func TestPipelineCloseZeroesDepthGauges(t *testing.T) {
	f := newFixture(t, 4)
	reg := obs.NewRegistry()
	gv := &gatedVerifier{Verifier: pool.NewVerifier(f.pub, pool.VerifyFull), gate: make(chan struct{})}
	p := New(gv, Options{Workers: 1, Registry: reg})

	// One share in flight, four live and one resync queued, nobody
	// draining Out: some envelopes are still in the lanes when the
	// pipeline shuts down, and the depth gauges must not leak them.
	bh := hash.SumUint64(hash.DomainBlock, 1)
	p.TrySubmit(transport.Envelope{From: 1, Msg: f.nshare(1, 0, 1, bh)})
	waitDepthZero(t, reg)
	for k := types.Round(2); k <= 5; k++ {
		p.TrySubmit(transport.Envelope{From: 1, Msg: f.nshare(k, 0, 1, hash.SumUint64(hash.DomainBlock, uint64(k)))})
	}
	p.TrySubmit(transport.Envelope{From: 2, Msg: &types.Bundle{
		Messages: []types.Message{f.nshare(9, 0, 2, hash.SumUint64(hash.DomainBlock, 9))}, Resync: true}})

	closed := make(chan struct{})
	go func() {
		p.Close()
		close(closed)
	}()
	for !p.Closed() {
		time.Sleep(time.Millisecond)
	}
	close(gv.gate)
	<-closed
	snap := reg.Snapshot()
	for _, g := range []string{
		"icc_verify_queue_depth",
		`icc_verify_lane_depth{lane="live"}`,
		`icc_verify_lane_depth{lane="resync"}`,
	} {
		if snap[g] != 0 {
			t.Fatalf("%s = %v after Close, want 0", g, snap[g])
		}
	}
}
