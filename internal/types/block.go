package types

import (
	"time"

	"icc/internal/crypto/hash"
)

// Signature domains for the three signing roles of the protocol
// (paper §3.4: authenticators, notarizations, finalizations sign the
// tuples (kind, k, α, H(B)); here the kind is the signature domain).
const (
	DomainAuthenticator hash.Domain = "icc/sig/authenticator"
	DomainNotarization  hash.Domain = "icc/sig/notarization"
	DomainFinalization  hash.Domain = "icc/sig/finalization"
	// DomainCheckpoint separates checkpoint commitments from the three
	// protocol roles. Checkpoint shares are signed with the S_final key
	// but over this distinct domain, so a checkpoint signature can never
	// be replayed as a finalization share or vice versa.
	DomainCheckpoint hash.Domain = "icc/sig/checkpoint"
)

// MaxPayloadBytes bounds a block payload, and a payload offer likewise
// (4 MiB): an application-specific validity condition (§3.4) every party
// enforces. The command queue never cuts a batch that encodes past it,
// the engine refuses any block or offer above it, and the state machine
// decodes nothing larger.
const MaxPayloadBytes = 4 << 20

// Block is a round-k block of the block-tree: the tuple
// (block, k, α, phash, payload) of paper §3.4 eq. (1).
type Block struct {
	Round      Round
	Proposer   PartyID
	ParentHash hash.Digest
	Payload    []byte
	// Cut is how long after its own entry into the round the proposer drew
	// the payload. A receiver subtracts it from the block's arrival offset
	// to measure transit, not the proposer's timer (core's cut estimator,
	// DESIGN.md §2). Covered by H(B) and so by the authenticator; block
	// validity does not read it.
	Cut time.Duration
}

// RootBlock returns the special genesis block `root` (paper §3.4). It is
// its own authenticator, notarization, and finalization; the pool package
// special-cases it.
func RootBlock() *Block {
	return &Block{Round: 0, Proposer: -1}
}

// Hash returns H(B), the collision-resistant identity of the block used
// by child blocks and by every signature on the block.
func (b *Block) Hash() hash.Digest {
	e := NewEncoder(64 + len(b.Payload))
	b.encode(e)
	return hash.Sum(hash.DomainBlock, e.Bytes())
}

// IsRoot reports whether this is the genesis block.
func (b *Block) IsRoot() bool { return b.Round == 0 }

func (b *Block) encode(e *Encoder) {
	e.U64(uint64(b.Round))
	e.U64(uint64(int64(b.Proposer)))
	e.Bytes32(b.ParentHash)
	e.VarBytes(b.Payload)
	e.Varint(int64(b.Cut))
}

func decodeBlock(d *Decoder) *Block {
	b := &Block{}
	b.Round = Round(d.U64())
	b.Proposer = PartyID(int64(d.U64()))
	b.ParentHash = d.Bytes32()
	b.Payload = d.VarBytes()
	b.Cut = time.Duration(d.Varint())
	return b
}

// SigningBytes returns the canonical byte string that authenticators,
// notarization shares, and finalization shares sign for a given block
// reference: the encoding of (k, α, H(B)). The artifact kind is conveyed
// by the signature domain, so the same bytes can never verify across
// kinds.
func SigningBytes(round Round, proposer PartyID, blockHash hash.Digest) []byte {
	e := NewEncoder(8 + 8 + hash.Size)
	e.U64(uint64(round))
	e.U64(uint64(int64(proposer)))
	e.Bytes32(blockHash)
	return e.Bytes()
}

// CheckpointSigningBytes returns the canonical byte string a checkpoint
// share signs under DomainCheckpoint: the encoding of
// (k, H(B_k), H(state after B_k), R_k). Binding the beacon digest lets
// a restored party verify and sign round k+1 beacon shares immediately.
func CheckpointSigningBytes(round Round, blockHash, stateHash, beaconDigest hash.Digest) []byte {
	e := NewEncoder(8 + 3*hash.Size)
	e.U64(uint64(round))
	e.Bytes32(blockHash)
	e.Bytes32(stateHash)
	e.Bytes32(beaconDigest)
	return e.Bytes()
}
