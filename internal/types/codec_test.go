package types

import (
	"bytes"
	"reflect"
	"testing"

	"icc/internal/crypto/hash"
)

// oneOfEachKind returns a populated message of every wire kind, the seed
// corpus of FuzzUnmarshal and the table behind TestEveryKindRoundTrips.
func oneOfEachKind() []Message {
	h1 := hash.SumUint64(hash.DomainBlock, 1)
	h2 := hash.SumUint64(hash.DomainBlock, 2)
	block := &BlockMsg{Block: &Block{Round: 5, Proposer: 3, ParentHash: h1, Payload: []byte("cmds")}}
	auth := &Authenticator{Round: 5, Proposer: 3, BlockHash: h1, Sig: []byte{1, 2, 3}}
	notar := &Notarization{Round: 4, Proposer: 1, BlockHash: h2, Agg: []byte{9, 9, 9}}
	return []Message{
		block,
		auth,
		&NotarizationShare{Round: 5, Proposer: 3, BlockHash: h1, Signer: 7, Sig: []byte{4, 5}},
		notar,
		&FinalizationShare{Round: 5, Proposer: 3, BlockHash: h1, Signer: 2, Sig: []byte{6}},
		&Finalization{Round: 5, Proposer: 3, BlockHash: h1, Agg: []byte{7, 7}},
		&BeaconShare{Round: 6, Signer: 1, Share: []byte{8, 8, 8, 8}},
		&Bundle{Messages: []Message{block, auth, notar}, Resync: true},
		&Advert{Refs: []Ref{{Kind: KindBlock, ID: h1}, {Kind: KindNotarization, ID: h2}}},
		&Request{Refs: []Ref{{Kind: KindBlock, ID: h2}}},
		&Fragment{Round: 9, Proposer: 1, Root: h1, BlockLen: 1000, DataShards: 5,
			Index: 3, Sender: 4, Echo: true, Data: []byte("frag"), Proof: []hash.Digest{h1, h2}},
		&Opaque{Tag: 3, Data: []byte("foreign")},
		&Status{Round: 12, Finalized: 10, Seq: 77},
		&CheckpointShare{Round: 16, BlockHash: h1, StateHash: h2, BeaconDigest: h1, Signer: 2, Sig: []byte{1}},
		&CheckpointMsg{Blob: []byte("certified checkpoint")},
		sampleShareBundle(),
		&BeaconOutput{Round: 6, Output: []byte{5, 5, 5}},
		&PayloadOffer{Round: 6, ParentHash: h1, Payload: []byte("cmds for the next leader")},
	}
}

func TestEveryKindRoundTrips(t *testing.T) {
	msgs := oneOfEachKind()
	seen := make(map[Kind]bool)
	for _, m := range msgs {
		seen[m.Kind()] = true
		got := roundTrip(t, m)
		if !reflect.DeepEqual(got, m) {
			t.Errorf("%s: round-trip mismatch\n got: %#v\nwant: %#v", m.Kind(), got, m)
		}
	}
	for k := KindBlock; k <= KindPayloadOffer; k++ {
		if !seen[k] {
			t.Errorf("no sample message of kind %s: extend oneOfEachKind", k)
		}
	}
}

func TestPayloadOfferRoundTrip(t *testing.T) {
	h := hash.SumUint64(hash.DomainBlock, 7)
	for _, m := range []*PayloadOffer{
		{Round: 9, ParentHash: h, Payload: bytes.Repeat([]byte{0xab}, 3000)},
		{Round: 1, ParentHash: hash.Zero, Payload: nil},
	} {
		got := roundTrip(t, m).(*PayloadOffer)
		if got.Round != m.Round || got.ParentHash != m.ParentHash || !bytes.Equal(got.Payload, m.Payload) {
			t.Errorf("round-trip mismatch: got %+v, want %+v", got, m)
		}
	}
	enc := Marshal(&PayloadOffer{Round: 9, ParentHash: h, Payload: []byte("abc")})
	for cut := 1; cut < len(enc); cut++ {
		if _, err := Unmarshal(enc[:cut]); err == nil {
			t.Fatalf("truncation at %d bytes decoded without error", cut)
		}
	}
}

// FuzzUnmarshal feeds arbitrary bytes to the decoder of every wire kind:
// nothing may panic, and whatever decodes must survive its own encoding —
// re-encoded and decoded again it is the same message, byte for byte.
// (The first encoding need not equal the input: a Fragment's echo byte
// and a Bundle's flag byte decode more values than they encode.)
func FuzzUnmarshal(f *testing.F) {
	for _, m := range oneOfEachKind() {
		f.Add(Marshal(m))
	}
	for k := KindBlock; k <= KindPayloadOffer; k++ {
		f.Add([]byte{byte(k)})
		f.Add([]byte{byte(k), 0, 0, 0, 0, 0, 0, 0, 1, 0xff, 0xff, 0xff, 0xff})
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Unmarshal(data)
		if err != nil {
			return
		}
		enc := Marshal(m)
		again, err := Unmarshal(enc)
		if err != nil {
			t.Fatalf("%s: own encoding does not decode: %v", m.Kind(), err)
		}
		if re := Marshal(again); !bytes.Equal(re, enc) {
			t.Fatalf("%s: encoding not stable: %x -> %x", m.Kind(), enc, re)
		}
	})
}
