package types

import (
	"errors"
	"fmt"

	"icc/internal/crypto/hash"
)

// Kind discriminates wire messages and pool artifacts.
type Kind uint8

// Message kinds. Kinds 1–7 are the artifacts of ICC0 (paper §3.4);
// 8 is a transport-level bundle; 9–10 belong to the gossip sub-layer
// (ICC1); 11 to the erasure-coded reliable broadcast (ICC2); 14–15 to
// the durability layer (signed finalized-state checkpoints); 16 is the
// gossip relay's coalesced share batch (sharebundle.go); 17 is a
// recovered beacon output relayed in place of t+1 beacon shares; 18 is a
// party's would-be payload handed to the next round's leader.
const (
	KindBlock Kind = iota + 1
	KindAuthenticator
	KindNotarizationShare
	KindNotarization
	KindFinalizationShare
	KindFinalization
	KindBeaconShare
	KindBundle
	KindAdvert
	KindRequest
	KindFragment
	KindOpaque
	KindStatus
	KindCheckpointShare
	KindCheckpoint
	KindShareBundle
	KindBeaconOutput
	KindPayloadOffer
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindBlock:
		return "block"
	case KindAuthenticator:
		return "authenticator"
	case KindNotarizationShare:
		return "notarization-share"
	case KindNotarization:
		return "notarization"
	case KindFinalizationShare:
		return "finalization-share"
	case KindFinalization:
		return "finalization"
	case KindBeaconShare:
		return "beacon-share"
	case KindBundle:
		return "bundle"
	case KindAdvert:
		return "advert"
	case KindRequest:
		return "request"
	case KindFragment:
		return "fragment"
	case KindOpaque:
		return "opaque"
	case KindStatus:
		return "status"
	case KindCheckpointShare:
		return "checkpoint-share"
	case KindCheckpoint:
		return "checkpoint"
	case KindShareBundle:
		return "share-bundle"
	case KindBeaconOutput:
		return "beacon-output"
	case KindPayloadOffer:
		return "payload-offer"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// Message is any value that can travel between parties.
type Message interface {
	Kind() Kind
	encodeBody(e *Encoder)
}

// BlockMsg carries a proposed block.
type BlockMsg struct {
	Block *Block
}

// Authenticator is (authenticator, k, α, H(B), σ): the proposer's S_auth
// signature binding the block to its author (paper §3.4).
type Authenticator struct {
	Round     Round
	Proposer  PartyID
	BlockHash hash.Digest
	Sig       []byte
}

// NotarizationShare is one party's S_notary signature share on
// (notarization, k, α, H(B)).
type NotarizationShare struct {
	Round     Round
	Proposer  PartyID
	BlockHash hash.Digest
	Signer    PartyID
	Sig       []byte
}

// Notarization is a combined n−t quorum signature on
// (notarization, k, α, H(B)).
type Notarization struct {
	Round     Round
	Proposer  PartyID
	BlockHash hash.Digest
	Agg       []byte // encoded multisig.Aggregate
}

// FinalizationShare is one party's S_final signature share on
// (finalization, k, α, H(B)).
type FinalizationShare struct {
	Round     Round
	Proposer  PartyID
	BlockHash hash.Digest
	Signer    PartyID
	Sig       []byte
}

// Finalization is a combined n−t quorum signature on
// (finalization, k, α, H(B)).
type Finalization struct {
	Round     Round
	Proposer  PartyID
	BlockHash hash.Digest
	Agg       []byte
}

// BeaconShare is one party's S_beacon threshold-signature share on the
// previous beacon value, used to derive R_k (paper §2.3).
type BeaconShare struct {
	Round  Round // the round whose beacon this share contributes to
	Signer PartyID
	Share  []byte // encoded thresig.SigShare
}

// BeaconOutput is a recovered beacon value for one round: the combined
// unique threshold signature σ_k itself, not a share of it. A relay
// that has already reconstructed R_k forwards this one message instead
// of t+1 individual shares — the reconstruct-and-forward optimisation
// the ICC gossip layer's O(n) per-party communication argument assumes.
// It is only emitted and accepted by beacon sources whose combined
// output is third-party verifiable (beacon.OutputSource); receivers
// must verify the output against the beacon's global key before
// installing it.
type BeaconOutput struct {
	Round  Round
	Output []byte // encoded combined beacon signature
}

// PayloadOffer hands the next round's leader the payload its sender would
// propose for Round on top of the block ParentHash names: getPayload(B_p)
// of Fig. 1, evaluated by a party that is not the proposer. It travels
// point to point, carries no signature (a leader may put anything in its
// payload already; an offer only suggests content) and is never stored,
// relayed or logged. The leader may use it only when it proposes on that
// very parent: the payload was cut against that chain and no other.
type PayloadOffer struct {
	Round      Round
	ParentHash hash.Digest
	Payload    []byte
}

// Bundle groups several messages into one transmission, as when a party
// broadcasts "B, B's authenticator, and the notarization for B's parent"
// in one step (paper Fig. 1).
//
// Resync marks the bundle as resynchronisation traffic — a catch-up
// batch answering a laggard's Status, a stall re-broadcast, or an async
// backfill reply. The verification pipeline dequeues marked bundles
// from a dedicated priority lane (so a live firehose cannot starve a
// rejoining party's catch-up) and applies chain-aware batch
// verification to their contents. The marker is advisory: it never
// weakens verification of an artifact that is not provably hash-linked
// to a fully verified aggregate.
type Bundle struct {
	Messages []Message
	Resync   bool
}

// Ref identifies an artifact by kind and content hash; the gossip
// sub-layer adverts and requests artifacts by Ref.
type Ref struct {
	Kind Kind
	ID   hash.Digest
}

// Advert announces artifact availability to a peer (gossip push phase).
type Advert struct {
	Refs []Ref
}

// Request asks a peer for the bodies of advertised artifacts
// (gossip pull phase).
type Request struct {
	Refs []Ref
}

// Opaque carries a foreign protocol's message through the same
// transports and simulators as ICC traffic. The baseline protocols
// (HotStuff, Tendermint) define their own encodings inside Data; Tag
// discriminates message types within the foreign protocol.
type Opaque struct {
	Tag  uint8
	Data []byte
}

// Status reports a party's protocol frontier — its working round and
// highest finalized round — for the resynchronisation layer: peers that
// see a Status far behind their own round answer with a catch-up bundle
// of the missing notarized blocks. Seq distinguishes successive statuses
// from the same party (content-addressed dissemination layers would
// otherwise deduplicate identical retransmissions).
type Status struct {
	Round     Round
	Finalized Round
	Seq       uint64
}

// CheckpointShare is one party's S_final signature share over a
// checkpoint commitment (checkpoint, k, H(B), H(state), R_k) under
// DomainCheckpoint. Any t+1 matching shares combine into a
// self-authenticating certificate: at least one is from an honest
// party, which only signs the state it computed by executing the
// finalized chain.
type CheckpointShare struct {
	Round        Round
	BlockHash    hash.Digest
	StateHash    hash.Digest
	BeaconDigest hash.Digest
	Signer       PartyID
	Sig          []byte
}

// CheckpointMsg carries a complete certified checkpoint (the
// internal/checkpoint package's encoding) to a peer that fell behind
// the prune horizon. The blob is opaque at this layer to keep the wire
// vocabulary free of the checkpoint package's dependencies; receivers
// decode and verify it before acting on any field.
type CheckpointMsg struct {
	Blob []byte
}

// Fragment is one erasure-coded chunk of a disseminated block (ICC2's
// reliable-broadcast subprotocol). Root is the Merkle root over all n
// fragments; Proof is the inclusion path for Index. Echo distinguishes
// the disseminator's initial send from a receiver's echo.
type Fragment struct {
	Round      Round
	Proposer   PartyID // proposer of the block being disseminated
	Root       hash.Digest
	BlockLen   uint32 // length of the encoded block (for unpadding)
	DataShards uint16 // shards needed to reconstruct (n − 2t)
	Index      uint16 // shard index in [0, n)
	Sender     PartyID
	Echo       bool
	Data       []byte
	Proof      []hash.Digest
}

// Kind implementations.
func (*BlockMsg) Kind() Kind          { return KindBlock }
func (*Authenticator) Kind() Kind     { return KindAuthenticator }
func (*NotarizationShare) Kind() Kind { return KindNotarizationShare }
func (*Notarization) Kind() Kind      { return KindNotarization }
func (*FinalizationShare) Kind() Kind { return KindFinalizationShare }
func (*Finalization) Kind() Kind      { return KindFinalization }
func (*BeaconShare) Kind() Kind       { return KindBeaconShare }
func (*Bundle) Kind() Kind            { return KindBundle }
func (*Advert) Kind() Kind            { return KindAdvert }
func (*Request) Kind() Kind           { return KindRequest }
func (*Fragment) Kind() Kind          { return KindFragment }
func (*Opaque) Kind() Kind            { return KindOpaque }
func (*Status) Kind() Kind            { return KindStatus }
func (*CheckpointShare) Kind() Kind   { return KindCheckpointShare }
func (*CheckpointMsg) Kind() Kind     { return KindCheckpoint }
func (*BeaconOutput) Kind() Kind      { return KindBeaconOutput }
func (*PayloadOffer) Kind() Kind      { return KindPayloadOffer }

// Compile-time interface checks.
var (
	_ Message = (*BlockMsg)(nil)
	_ Message = (*Authenticator)(nil)
	_ Message = (*NotarizationShare)(nil)
	_ Message = (*Notarization)(nil)
	_ Message = (*FinalizationShare)(nil)
	_ Message = (*Finalization)(nil)
	_ Message = (*BeaconShare)(nil)
	_ Message = (*Bundle)(nil)
	_ Message = (*Advert)(nil)
	_ Message = (*Request)(nil)
	_ Message = (*Fragment)(nil)
	_ Message = (*Opaque)(nil)
	_ Message = (*Status)(nil)
	_ Message = (*CheckpointShare)(nil)
	_ Message = (*CheckpointMsg)(nil)
	_ Message = (*BeaconOutput)(nil)
	_ Message = (*PayloadOffer)(nil)
)

func (m *BlockMsg) encodeBody(e *Encoder) { m.Block.encode(e) }

func (m *Authenticator) encodeBody(e *Encoder) {
	e.U64(uint64(m.Round))
	e.U64(uint64(int64(m.Proposer)))
	e.Bytes32(m.BlockHash)
	e.VarBytes(m.Sig)
}

func encodeShare(e *Encoder, round Round, proposer PartyID, blockHash hash.Digest, signer PartyID, sg []byte) {
	e.U64(uint64(round))
	e.U64(uint64(int64(proposer)))
	e.Bytes32(blockHash)
	e.U64(uint64(int64(signer)))
	e.VarBytes(sg)
}

func (m *NotarizationShare) encodeBody(e *Encoder) {
	encodeShare(e, m.Round, m.Proposer, m.BlockHash, m.Signer, m.Sig)
}

func (m *FinalizationShare) encodeBody(e *Encoder) {
	encodeShare(e, m.Round, m.Proposer, m.BlockHash, m.Signer, m.Sig)
}

func encodeQuorum(e *Encoder, round Round, proposer PartyID, blockHash hash.Digest, agg []byte) {
	e.U64(uint64(round))
	e.U64(uint64(int64(proposer)))
	e.Bytes32(blockHash)
	e.VarBytes(agg)
}

func (m *Notarization) encodeBody(e *Encoder) {
	encodeQuorum(e, m.Round, m.Proposer, m.BlockHash, m.Agg)
}

func (m *Finalization) encodeBody(e *Encoder) {
	encodeQuorum(e, m.Round, m.Proposer, m.BlockHash, m.Agg)
}

// quorumWireSize is the exact Marshal size of a certificate message:
// kind prefix, round u64, proposer u64, blockHash 32, agg var-bytes.
// The agg bytes carry their own leading aggsig scheme tag, so the frame
// size tracks the configured certificate scheme byte-exactly (the
// encode tests pin these against len(Marshal(m))).
func quorumWireSize(agg []byte) int { return 1 + 8 + 8 + 32 + 4 + len(agg) }

// WireSize returns the exact number of bytes Marshal produces.
func (m *Notarization) WireSize() int { return quorumWireSize(m.Agg) }

// WireSize returns the exact number of bytes Marshal produces.
func (m *Finalization) WireSize() int { return quorumWireSize(m.Agg) }

// WireSize returns the exact number of bytes Marshal produces: kind
// prefix, round u64, output var-bytes.
func (m *BeaconOutput) WireSize() int { return 1 + 8 + 4 + len(m.Output) }

func (m *BeaconShare) encodeBody(e *Encoder) {
	e.U64(uint64(m.Round))
	e.U64(uint64(int64(m.Signer)))
	e.VarBytes(m.Share)
}

func (m *Bundle) encodeBody(e *Encoder) {
	var flags uint8
	if m.Resync {
		flags |= 1
	}
	e.U8(flags)
	e.U16(uint16(len(m.Messages)))
	for _, sub := range m.Messages {
		e.VarBytes(Marshal(sub))
	}
}

func encodeRefs(e *Encoder, refs []Ref) {
	e.U16(uint16(len(refs)))
	for _, r := range refs {
		e.U8(uint8(r.Kind))
		e.Bytes32(r.ID)
	}
}

func decodeRefs(d *Decoder) []Ref {
	n := int(d.U16())
	if d.Err() != nil {
		return nil
	}
	refs := make([]Ref, 0, n)
	for i := 0; i < n; i++ {
		k := Kind(d.U8())
		id := d.Bytes32()
		refs = append(refs, Ref{Kind: k, ID: id})
	}
	return refs
}

func (m *Advert) encodeBody(e *Encoder)  { encodeRefs(e, m.Refs) }
func (m *Request) encodeBody(e *Encoder) { encodeRefs(e, m.Refs) }

func (m *Fragment) encodeBody(e *Encoder) {
	e.U64(uint64(m.Round))
	e.U64(uint64(int64(m.Proposer)))
	e.Bytes32(m.Root)
	e.U32(m.BlockLen)
	e.U16(m.DataShards)
	e.U16(m.Index)
	e.U64(uint64(int64(m.Sender)))
	if m.Echo {
		e.U8(1)
	} else {
		e.U8(0)
	}
	e.VarBytes(m.Data)
	e.U16(uint16(len(m.Proof)))
	for _, p := range m.Proof {
		e.Bytes32(p)
	}
}

func (m *Opaque) encodeBody(e *Encoder) {
	e.U8(m.Tag)
	e.VarBytes(m.Data)
}

func (m *Status) encodeBody(e *Encoder) {
	e.U64(uint64(m.Round))
	e.U64(uint64(m.Finalized))
	e.U64(m.Seq)
}

func (m *CheckpointShare) encodeBody(e *Encoder) {
	e.U64(uint64(m.Round))
	e.Bytes32(m.BlockHash)
	e.Bytes32(m.StateHash)
	e.Bytes32(m.BeaconDigest)
	e.U64(uint64(int64(m.Signer)))
	e.VarBytes(m.Sig)
}

func (m *CheckpointMsg) encodeBody(e *Encoder) {
	e.VarBytes(m.Blob)
}

func (m *BeaconOutput) encodeBody(e *Encoder) {
	e.U64(uint64(m.Round))
	e.VarBytes(m.Output)
}

func (m *PayloadOffer) encodeBody(e *Encoder) {
	e.U64(uint64(m.Round))
	e.Bytes32(m.ParentHash)
	e.VarBytes(m.Payload)
}

// ErrUnknownKind is returned when decoding an unrecognised message kind.
var ErrUnknownKind = errors.New("types: unknown message kind")

// Marshal encodes a message with a one-byte kind prefix.
func Marshal(m Message) []byte {
	e := NewEncoder(128)
	e.U8(uint8(m.Kind()))
	m.encodeBody(e)
	return e.Bytes()
}

// Unmarshal decodes a message produced by Marshal.
func Unmarshal(b []byte) (Message, error) {
	d := NewDecoder(b)
	k := Kind(d.U8())
	if d.Err() != nil {
		return nil, d.Err()
	}
	m, err := decodeBody(k, d)
	if err != nil {
		return nil, err
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return m, nil
}

func decodeBody(k Kind, d *Decoder) (Message, error) {
	var m Message
	switch k {
	case KindBlock:
		m = &BlockMsg{Block: decodeBlock(d)}
	case KindAuthenticator:
		a := &Authenticator{}
		a.Round = Round(d.U64())
		a.Proposer = PartyID(int64(d.U64()))
		a.BlockHash = d.Bytes32()
		a.Sig = d.VarBytes()
		m = a
	case KindNotarizationShare:
		s := &NotarizationShare{}
		s.Round, s.Proposer, s.BlockHash, s.Signer, s.Sig = decodeShare(d)
		m = s
	case KindFinalizationShare:
		s := &FinalizationShare{}
		s.Round, s.Proposer, s.BlockHash, s.Signer, s.Sig = decodeShare(d)
		m = s
	case KindNotarization:
		q := &Notarization{}
		q.Round, q.Proposer, q.BlockHash, q.Agg = decodeQuorum(d)
		m = q
	case KindFinalization:
		q := &Finalization{}
		q.Round, q.Proposer, q.BlockHash, q.Agg = decodeQuorum(d)
		m = q
	case KindBeaconShare:
		s := &BeaconShare{}
		s.Round = Round(d.U64())
		s.Signer = PartyID(int64(d.U64()))
		s.Share = d.VarBytes()
		m = s
	case KindBundle:
		flags := d.U8()
		count := int(d.U16())
		if d.Err() != nil {
			return nil, d.Err()
		}
		bundle := &Bundle{Messages: make([]Message, 0, count), Resync: flags&1 != 0}
		for i := 0; i < count; i++ {
			raw := d.VarBytes()
			if d.Err() != nil {
				return nil, d.Err()
			}
			sub, err := Unmarshal(raw)
			if err != nil {
				return nil, fmt.Errorf("bundle element %d: %w", i, err)
			}
			bundle.Messages = append(bundle.Messages, sub)
		}
		m = bundle
	case KindAdvert:
		m = &Advert{Refs: decodeRefs(d)}
	case KindRequest:
		m = &Request{Refs: decodeRefs(d)}
	case KindFragment:
		f := &Fragment{}
		f.Round = Round(d.U64())
		f.Proposer = PartyID(int64(d.U64()))
		f.Root = d.Bytes32()
		f.BlockLen = d.U32()
		f.DataShards = d.U16()
		f.Index = d.U16()
		f.Sender = PartyID(int64(d.U64()))
		f.Echo = d.U8() == 1
		f.Data = d.VarBytes()
		proofLen := int(d.U16())
		if d.Err() != nil {
			return nil, d.Err()
		}
		f.Proof = make([]hash.Digest, 0, proofLen)
		for i := 0; i < proofLen; i++ {
			f.Proof = append(f.Proof, d.Bytes32())
		}
		m = f
	case KindOpaque:
		o := &Opaque{}
		o.Tag = d.U8()
		o.Data = d.VarBytes()
		m = o
	case KindStatus:
		s := &Status{}
		s.Round = Round(d.U64())
		s.Finalized = Round(d.U64())
		s.Seq = d.U64()
		m = s
	case KindCheckpointShare:
		c := &CheckpointShare{}
		c.Round = Round(d.U64())
		c.BlockHash = d.Bytes32()
		c.StateHash = d.Bytes32()
		c.BeaconDigest = d.Bytes32()
		c.Signer = PartyID(int64(d.U64()))
		c.Sig = d.VarBytes()
		m = c
	case KindCheckpoint:
		c := &CheckpointMsg{}
		c.Blob = d.VarBytes()
		m = c
	case KindShareBundle:
		sb, err := decodeShareBundle(d)
		if err != nil {
			return nil, err
		}
		m = sb
	case KindBeaconOutput:
		o := &BeaconOutput{}
		o.Round = Round(d.U64())
		o.Output = d.VarBytes()
		m = o
	case KindPayloadOffer:
		o := &PayloadOffer{}
		o.Round = Round(d.U64())
		o.ParentHash = d.Bytes32()
		o.Payload = d.VarBytes()
		m = o
	default:
		return nil, fmt.Errorf("%w: %d", ErrUnknownKind, uint8(k))
	}
	if d.Err() != nil {
		return nil, d.Err()
	}
	return m, nil
}

func decodeShare(d *Decoder) (Round, PartyID, hash.Digest, PartyID, []byte) {
	round := Round(d.U64())
	proposer := PartyID(int64(d.U64()))
	blockHash := d.Bytes32()
	signer := PartyID(int64(d.U64()))
	sg := d.VarBytes()
	return round, proposer, blockHash, signer, sg
}

func decodeQuorum(d *Decoder) (Round, PartyID, hash.Digest, []byte) {
	round := Round(d.U64())
	proposer := PartyID(int64(d.U64()))
	blockHash := d.Bytes32()
	agg := d.VarBytes()
	return round, proposer, blockHash, agg
}

// RefOf computes the gossip Ref of a message: its kind plus the hash of
// its canonical encoding.
//
// Quorum certificates are the exception: their ID hashes the signed
// statement (round, proposer, block) rather than the encoding. Any two
// valid certificates for one statement are interchangeable — they differ
// only in which n−t signer subset happened to combine — so giving every
// subset variant its own ref would make the overlay flood up to n
// distinct copies of the same logical fact. Under the statement ref the
// first certificate to transit wins and every later variant deduplicates
// away, including a party's own locally combined copy.
func RefOf(m Message) Ref {
	switch v := m.(type) {
	case *Notarization:
		return Ref{Kind: KindNotarization, ID: hash.Sum(hash.DomainPayload, SigningBytes(v.Round, v.Proposer, v.BlockHash))}
	case *Finalization:
		return Ref{Kind: KindFinalization, ID: hash.Sum(hash.DomainPayload, SigningBytes(v.Round, v.Proposer, v.BlockHash))}
	}
	return Ref{Kind: m.Kind(), ID: hash.Sum(hash.DomainPayload, Marshal(m))}
}
