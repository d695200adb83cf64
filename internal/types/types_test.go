package types

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
	"time"

	"icc/internal/crypto/hash"
)

func TestMaxFaults(t *testing.T) {
	cases := []struct{ n, t int }{
		{1, 0}, {2, 0}, {3, 0}, {4, 1}, {6, 1}, {7, 2},
		{13, 4}, {31, 10}, {40, 13}, {100, 33},
	}
	for _, c := range cases {
		if got := MaxFaults(c.n); got != c.t {
			t.Errorf("MaxFaults(%d) = %d, want %d", c.n, got, c.t)
		}
		// 3t < n must hold, and t must be maximal.
		if 3*c.t >= c.n {
			t.Errorf("n=%d: 3t >= n", c.n)
		}
		if c.n >= 4 && 3*(c.t+1) < c.n {
			t.Errorf("n=%d: t not maximal", c.n)
		}
	}
}

func TestQuorums(t *testing.T) {
	for n := 4; n <= 100; n++ {
		tf := MaxFaults(n)
		if NotaryQuorum(n) != n-tf {
			t.Fatalf("n=%d: notary quorum", n)
		}
		if BeaconQuorum(n) != tf+1 {
			t.Fatalf("n=%d: beacon quorum", n)
		}
		// Two notary quorums intersect in at least one honest party:
		// 2(n-t) - n = n - 2t >= t+1.
		if 2*NotaryQuorum(n)-n < tf+1 {
			t.Fatalf("n=%d: quorum intersection too small", n)
		}
	}
}

// TestStandardDelays pins Δprop(r) = 2Δbnd·r + ε − ε/4 and Δntry(r) =
// 2Δbnd·r + ε, and over a grid of (Δbnd, ε) — ε = 0, where they are eq. (2)
// exactly, up to ε well above 4Δbnd — the properties the engine and the
// oracle lean on: a block is out ε/4 before its rank's share is due,
// ranks stay strictly ordered, and §4's 2Δbnd + Δprop(0) ≤ Δntry(1).
func TestStandardDelays(t *testing.T) {
	dprop, dntry := StandardDelays(100*time.Millisecond, 10*time.Millisecond)
	if dprop(0) != 7500*time.Microsecond || dprop(3) != 607500*time.Microsecond {
		t.Fatalf("Δprop(0) = %v, Δprop(3) = %v; want 7.5ms, 607.5ms", dprop(0), dprop(3))
	}
	if dntry(0) != 10*time.Millisecond || dntry(3) != 610*time.Millisecond {
		t.Fatalf("Δntry(0) = %v, Δntry(3) = %v; want 10ms, 610ms", dntry(0), dntry(3))
	}
	for _, bnd := range []time.Duration{time.Millisecond, 20 * time.Millisecond, 100 * time.Millisecond, 300 * time.Millisecond} {
		for _, eps := range []time.Duration{0, time.Nanosecond, 3 * time.Millisecond, 50 * time.Millisecond, 2 * bnd, 4*bnd + 1, 10 * bnd, 2300 * time.Millisecond} {
			dprop, dntry := StandardDelays(bnd, eps)
			if eps == 0 && dprop(0) != 0 {
				t.Errorf("Δbnd %v, ε 0: Δprop(0) = %v, want eq. (2)'s 0", bnd, dprop(0))
			}
			if 2*bnd+dprop(0) > dntry(1) {
				t.Errorf("Δbnd %v, ε %v: 2Δbnd + Δprop(0) = %v > Δntry(1) = %v", bnd, eps, 2*bnd+dprop(0), dntry(1))
			}
			for r := Rank(0); r < 40; r++ {
				if dprop(r) > dntry(r) {
					t.Errorf("Δbnd %v, ε %v: Δprop(%d) = %v > Δntry(%d) = %v", bnd, eps, r, dprop(r), r, dntry(r))
				}
				if dntry(r)-dprop(r) != eps/4 {
					t.Errorf("Δbnd %v, ε %v: Δntry(%d) − Δprop(%d) = %v, want ε/4 = %v", bnd, eps, r, r, dntry(r)-dprop(r), eps/4)
				}
				if dprop(r+1) <= dprop(r) || dntry(r+1) <= dntry(r) {
					t.Errorf("Δbnd %v, ε %v: not strictly increasing at rank %d", bnd, eps, r)
				}
			}
		}
	}
}

func TestBlockHashDistinctness(t *testing.T) {
	base := &Block{Round: 3, Proposer: 2, ParentHash: hash.SumUint64(hash.DomainBlock, 1), Payload: []byte("p")}
	variants := []*Block{
		{Round: 4, Proposer: 2, ParentHash: base.ParentHash, Payload: []byte("p")},
		{Round: 3, Proposer: 1, ParentHash: base.ParentHash, Payload: []byte("p")},
		{Round: 3, Proposer: 2, ParentHash: hash.SumUint64(hash.DomainBlock, 2), Payload: []byte("p")},
		{Round: 3, Proposer: 2, ParentHash: base.ParentHash, Payload: []byte("q")},
		{Round: 3, Proposer: 2, ParentHash: base.ParentHash, Payload: []byte("p"), Cut: 1},
	}
	for i, v := range variants {
		if v.Hash() == base.Hash() {
			t.Errorf("variant %d hashes equal to base", i)
		}
	}
	if base.Hash() != base.Hash() {
		t.Error("hash not deterministic")
	}
}

func TestRootBlock(t *testing.T) {
	r := RootBlock()
	if !r.IsRoot() {
		t.Fatal("root block not root")
	}
	if (&Block{Round: 1}).IsRoot() {
		t.Fatal("round-1 block claims to be root")
	}
}

func roundTrip(t *testing.T, m Message) Message {
	t.Helper()
	b := Marshal(m)
	out, err := Unmarshal(b)
	if err != nil {
		t.Fatalf("%s: unmarshal: %v", m.Kind(), err)
	}
	if out.Kind() != m.Kind() {
		t.Fatalf("kind changed: %s -> %s", m.Kind(), out.Kind())
	}
	return out
}

func TestMessageRoundTrips(t *testing.T) {
	h1 := hash.SumUint64(hash.DomainBlock, 1)
	h2 := hash.SumUint64(hash.DomainBlock, 2)
	msgs := []Message{
		&BlockMsg{Block: &Block{Round: 5, Proposer: 3, ParentHash: h1, Payload: []byte("cmds")}},
		&BlockMsg{Block: &Block{Round: 1, Proposer: 0, ParentHash: hash.Zero, Payload: nil}},
		&Authenticator{Round: 5, Proposer: 3, BlockHash: h1, Sig: []byte{1, 2, 3}},
		&NotarizationShare{Round: 5, Proposer: 3, BlockHash: h1, Signer: 7, Sig: []byte{4, 5}},
		&Notarization{Round: 5, Proposer: 3, BlockHash: h1, Agg: []byte{9, 9, 9}},
		&FinalizationShare{Round: 5, Proposer: 3, BlockHash: h1, Signer: 2, Sig: []byte{6}},
		&Finalization{Round: 5, Proposer: 3, BlockHash: h1, Agg: []byte{7, 7}},
		&BeaconShare{Round: 6, Signer: 1, Share: []byte{8, 8, 8, 8}},
		&Advert{Refs: []Ref{{Kind: KindBlock, ID: h1}, {Kind: KindNotarization, ID: h2}}},
		&Advert{Refs: nil},
		&Request{Refs: []Ref{{Kind: KindBlock, ID: h2}}},
		&Fragment{Round: 9, Proposer: 1, Root: h1, BlockLen: 1000, DataShards: 5,
			Index: 3, Sender: 4, Echo: true, Data: []byte("frag"), Proof: []hash.Digest{h1, h2}},
		&Fragment{Round: 9, Proposer: 1, Root: h1, BlockLen: 0, DataShards: 1,
			Index: 0, Sender: 0, Echo: false, Data: nil, Proof: nil},
	}
	for _, m := range msgs {
		got := roundTrip(t, m)
		if !reflect.DeepEqual(normalize(got), normalize(m)) {
			t.Errorf("%s: round-trip mismatch\n got: %#v\nwant: %#v", m.Kind(), got, m)
		}
	}
}

// normalize maps nil and empty slices to a canonical form for comparison.
func normalize(m Message) Message {
	b := Marshal(m)
	out, _ := Unmarshal(b)
	return out
}

func TestBundleRoundTrip(t *testing.T) {
	h1 := hash.SumUint64(hash.DomainBlock, 1)
	bundle := &Bundle{Messages: []Message{
		&BlockMsg{Block: &Block{Round: 2, Proposer: 1, ParentHash: h1, Payload: []byte("x")}},
		&Authenticator{Round: 2, Proposer: 1, BlockHash: h1, Sig: []byte{1}},
		&Notarization{Round: 1, Proposer: 0, BlockHash: h1, Agg: []byte{2}},
	}}
	got := roundTrip(t, bundle).(*Bundle)
	if len(got.Messages) != 3 {
		t.Fatalf("bundle length %d, want 3", len(got.Messages))
	}
	if got.Messages[0].Kind() != KindBlock || got.Messages[2].Kind() != KindNotarization {
		t.Fatal("bundle element kinds wrong")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Fatal("empty input accepted")
	}
	if _, err := Unmarshal([]byte{0xff, 1, 2}); err == nil {
		t.Fatal("unknown kind accepted")
	}
	// Truncated block message.
	full := Marshal(&BlockMsg{Block: &Block{Round: 1, Proposer: 0, Payload: []byte("abc")}})
	if _, err := Unmarshal(full[:len(full)-2]); err == nil {
		t.Fatal("truncated message accepted")
	}
	// Trailing bytes.
	if _, err := Unmarshal(append(bytes.Clone(full), 0)); err == nil {
		t.Fatal("trailing bytes accepted")
	}
}

func TestVarBytesLengthLimit(t *testing.T) {
	e := NewEncoder(16)
	e.U8(uint8(KindBeaconShare))
	e.U64(1)
	e.U64(1)
	e.U32(0xffffffff) // absurd length prefix
	if _, err := Unmarshal(e.Bytes()); err == nil {
		t.Fatal("absurd length prefix accepted")
	}
}

func TestRefOfStability(t *testing.T) {
	m1 := &Notarization{Round: 1, Proposer: 0, BlockHash: hash.SumUint64(hash.DomainBlock, 9), Agg: []byte{1}}
	m2 := &Notarization{Round: 1, Proposer: 0, BlockHash: hash.SumUint64(hash.DomainBlock, 9), Agg: []byte{1}}
	m3 := &Notarization{Round: 2, Proposer: 0, BlockHash: hash.SumUint64(hash.DomainBlock, 9), Agg: []byte{1}}
	if RefOf(m1) != RefOf(m2) {
		t.Fatal("identical messages have different refs")
	}
	if RefOf(m1) == RefOf(m3) {
		t.Fatal("different messages share a ref")
	}
	if RefOf(m1).Kind != KindNotarization {
		t.Fatal("ref kind wrong")
	}
	// Certificates ref their statement, not their bytes: a different
	// signer subset for the same statement is the same artifact, while
	// the notarization and finalization of one statement stay distinct.
	m4 := &Notarization{Round: 1, Proposer: 0, BlockHash: hash.SumUint64(hash.DomainBlock, 9), Agg: []byte{7, 7}}
	if RefOf(m1) != RefOf(m4) {
		t.Fatal("subset-variant certificates have different refs")
	}
	f1 := &Finalization{Round: 1, Proposer: 0, BlockHash: hash.SumUint64(hash.DomainBlock, 9), Agg: []byte{1}}
	if RefOf(m1) == RefOf(f1) {
		t.Fatal("notarization and finalization share a ref")
	}
}

func TestQuickBeaconShareRoundTrip(t *testing.T) {
	f := func(round uint64, signer uint8, share []byte) bool {
		m := &BeaconShare{Round: Round(round), Signer: PartyID(signer), Share: share}
		out, err := Unmarshal(Marshal(m))
		if err != nil {
			return false
		}
		got := out.(*BeaconShare)
		return got.Round == m.Round && got.Signer == m.Signer && bytes.Equal(got.Share, m.Share)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestQuickBlockRoundTrip(t *testing.T) {
	f := func(round uint64, proposer uint8, parent [32]byte, payload []byte, cut int64) bool {
		b := &Block{Round: Round(round), Proposer: PartyID(proposer), ParentHash: hash.Digest(parent), Payload: payload, Cut: time.Duration(cut)}
		out, err := Unmarshal(Marshal(&BlockMsg{Block: b}))
		if err != nil {
			return false
		}
		got := out.(*BlockMsg).Block
		return got.Hash() == b.Hash()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSigningBytesInjective(t *testing.T) {
	h := hash.SumUint64(hash.DomainBlock, 1)
	a := SigningBytes(1, 2, h)
	b := SigningBytes(2, 1, h)
	if bytes.Equal(a, b) {
		t.Fatal("signing bytes collide across (round, proposer) swap")
	}
}

func BenchmarkMarshalBlock1KB(b *testing.B) {
	blk := &BlockMsg{Block: &Block{Round: 10, Proposer: 1, Payload: make([]byte, 1024)}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		Marshal(blk)
	}
}

func BenchmarkUnmarshalBlock1KB(b *testing.B) {
	raw := Marshal(&BlockMsg{Block: &Block{Round: 10, Proposer: 1, Payload: make([]byte, 1024)}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(raw); err != nil {
			b.Fatal(err)
		}
	}
}
