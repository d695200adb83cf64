package verify

import (
	"crypto/rand"
	"sync"
	"testing"
	"time"

	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/obs"
	"icc/internal/pool"
	"icc/internal/transport"
	"icc/internal/types"
)

type fixture struct {
	pub   *keys.Public
	privs []keys.Private
}

func newFixture(t testing.TB, n int) *fixture {
	t.Helper()
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{pub: pub, privs: privs}
}

func (f *fixture) nshare(round types.Round, proposer, signer types.PartyID, blockHash hash.Digest) *types.NotarizationShare {
	msg := types.SigningBytes(round, proposer, blockHash)
	s := f.privs[signer].Notary.Sign(types.DomainNotarization, msg)
	return &types.NotarizationShare{Round: round, Proposer: proposer, BlockHash: blockHash,
		Signer: signer, Sig: s.Signature}
}

func (f *fixture) badShare(round types.Round, signer types.PartyID) *types.NotarizationShare {
	return &types.NotarizationShare{Round: round, Proposer: 0, Signer: signer,
		BlockHash: hash.SumUint64(hash.DomainBlock, uint64(round)), Sig: make([]byte, 64)}
}

func drain(t *testing.T, p *Pipeline, want int, timeout time.Duration) []transport.Envelope {
	t.Helper()
	var got []transport.Envelope
	deadline := time.After(timeout)
	for len(got) < want {
		select {
		case env := <-p.Out():
			got = append(got, env)
		case <-deadline:
			t.Fatalf("drained %d of %d envelopes before timeout", len(got), want)
		}
	}
	return got
}

func TestPipelineVerifiesAndFilters(t *testing.T) {
	f := newFixture(t, 4)
	reg := obs.NewRegistry()
	p := New(pool.NewVerifier(f.pub, pool.VerifyFull), Options{Workers: 2, Registry: reg})
	defer p.Close()

	bh := hash.SumUint64(hash.DomainBlock, 1)
	good := f.nshare(1, 0, 1, bh)
	if !p.Submit(transport.Envelope{From: 1, Msg: good}) {
		t.Fatal("submit failed")
	}
	if !p.Submit(transport.Envelope{From: 2, Msg: f.badShare(1, 2)}) {
		t.Fatal("submit failed")
	}
	got := drain(t, p, 1, 5*time.Second)
	s, ok := got[0].Msg.(*types.NotarizationShare)
	if !ok || s.Signer != 1 {
		t.Fatalf("unexpected delivery %#v", got[0].Msg)
	}
	// The bad share must never surface.
	select {
	case env := <-p.Out():
		t.Fatalf("invalid artifact delivered: %#v", env.Msg)
	case <-time.After(200 * time.Millisecond):
	}
	snap := reg.Snapshot()
	if snap[`icc_verify_rejects_total{reason="bad_share"}`] != 1 {
		t.Fatalf("reject counter = %v, want 1", snap[`icc_verify_rejects_total{reason="bad_share"}`])
	}
	if snap["icc_verify_verified_total"] != 1 {
		t.Fatalf("verified counter = %v, want 1", snap["icc_verify_verified_total"])
	}
}

func TestPipelineBundleFiltering(t *testing.T) {
	f := newFixture(t, 4)
	reg := obs.NewRegistry()
	p := New(pool.NewVerifier(f.pub, pool.VerifyFull), Options{Workers: 1, Registry: reg})
	defer p.Close()

	bh := hash.SumUint64(hash.DomainBlock, 1)
	mixed := &types.Bundle{Messages: []types.Message{
		f.nshare(1, 0, 1, bh),
		f.badShare(1, 2),
		f.nshare(1, 0, 3, bh),
	}}
	p.Submit(transport.Envelope{From: 2, Msg: mixed})
	got := drain(t, p, 1, 5*time.Second)
	b, ok := got[0].Msg.(*types.Bundle)
	if !ok || len(b.Messages) != 2 {
		t.Fatalf("bundle not filtered: %#v", got[0].Msg)
	}
	// A bundle of nothing but garbage is dropped whole.
	p.Submit(transport.Envelope{From: 2, Msg: &types.Bundle{Messages: []types.Message{f.badShare(2, 2)}}})
	select {
	case env := <-p.Out():
		t.Fatalf("all-invalid bundle delivered: %#v", env.Msg)
	case <-time.After(200 * time.Millisecond):
	}
	if got := reg.Snapshot()[`icc_verify_rejects_total{reason="bad_share"}`]; got != 2 {
		t.Fatalf("bad_share rejects = %v, want 2", got)
	}
}

func TestPipelinePassThroughKinds(t *testing.T) {
	f := newFixture(t, 4)
	p := New(pool.NewVerifier(f.pub, pool.VerifyFull), Options{Workers: 1})
	defer p.Close()
	// Unsigned control traffic flows through untouched.
	msgs := []types.Message{
		&types.Status{Round: 3, Finalized: 1, Seq: 9},
		&types.BeaconShare{Round: 2, Signer: 1, Share: []byte{1, 2, 3}},
		&types.BlockMsg{Block: &types.Block{Round: 1, Proposer: 0}},
	}
	for _, m := range msgs {
		p.Submit(transport.Envelope{From: 3, Msg: m})
	}
	drain(t, p, len(msgs), 5*time.Second)
}

// TestPipelineConcurrentIngest hammers one pipeline from many producers
// while a consumer drains — the -race workhorse for the worker pool and
// digest cache.
func TestPipelineConcurrentIngest(t *testing.T) {
	f := newFixture(t, 4)
	reg := obs.NewRegistry()
	p := New(pool.NewVerifier(f.pub, pool.VerifyFull), Options{Workers: 4, Registry: reg})
	defer p.Close()

	const producers = 4
	const perProducer = 50
	// Pre-sign a small artifact set so producers overlap on identical
	// digests (exercising cache hits) and distinct ones (misses).
	shares := make([]*types.NotarizationShare, 25)
	for i := range shares {
		bh := hash.SumUint64(hash.DomainBlock, uint64(i))
		shares[i] = f.nshare(types.Round(i+1), 0, types.PartyID(i%4), bh)
	}
	var wg sync.WaitGroup
	wg.Add(producers)
	for pr := 0; pr < producers; pr++ {
		go func(pr int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				p.Submit(transport.Envelope{From: types.PartyID(pr), Msg: shares[(pr+i)%len(shares)]})
			}
		}(pr)
	}
	drain(t, p, producers*perProducer, 10*time.Second)
	wg.Wait()
	snap := reg.Snapshot()
	hits := snap["icc_verify_cache_hits_total"]
	misses := snap["icc_verify_cache_misses_total"]
	if hits+misses != producers*perProducer {
		t.Fatalf("hits %v + misses %v != %d submitted", hits, misses, producers*perProducer)
	}
	if hits == 0 {
		t.Fatal("no cache hits despite duplicate artifacts")
	}
}

// TestPipelineCacheEviction verifies the FIFO digest cache stays
// bounded and that evicted artifacts simply re-verify.
func TestPipelineCacheEviction(t *testing.T) {
	c := newDigestCache(4)
	var digests []hash.Digest
	for i := 0; i < 10; i++ {
		d := hash.SumUint64(hash.DomainBlock, uint64(i))
		digests = append(digests, d)
		c.insert(d)
		if c.Len() > 4 {
			t.Fatalf("cache grew to %d entries, bound is 4", c.Len())
		}
	}
	// The last four inserted survive; the first six were evicted.
	for i, d := range digests {
		if got, want := c.contains(d), i >= 6; got != want {
			t.Fatalf("digest %d: contains = %v, want %v", i, got, want)
		}
	}
	// Re-inserting an evicted digest works.
	c.insert(digests[0])
	if !c.contains(digests[0]) {
		t.Fatal("re-inserted digest missing")
	}
}

// TestPipelineShutdownDuringInFlight closes the pipeline while
// producers are mid-submit and workers hold in-flight envelopes; under
// -race this catches close/worker/submit races.
func TestPipelineShutdownDuringInFlight(t *testing.T) {
	f := newFixture(t, 4)
	for round := 0; round < 5; round++ {
		p := New(pool.NewVerifier(f.pub, pool.VerifyFull), Options{Workers: 3})
		var wg sync.WaitGroup
		wg.Add(2)
		for g := 0; g < 2; g++ {
			go func(g int) {
				defer wg.Done()
				for i := 0; ; i++ {
					bh := hash.SumUint64(hash.DomainBlock, uint64(i))
					if !p.Submit(transport.Envelope{From: types.PartyID(g), Msg: f.nshare(types.Round(i+1), 0, 1, bh)}) {
						return // closed
					}
				}
			}(g)
		}
		// Let work pile up, then pull the plug with no consumer draining:
		// workers blocked on the out channel must still exit.
		time.Sleep(10 * time.Millisecond)
		p.Close()
		wg.Wait()
		if !p.Closed() {
			t.Fatal("pipeline not closed")
		}
	}
}
