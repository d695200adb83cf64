// Package checkpoint implements signed finalized-state checkpoints: a
// compact, self-authenticating commitment to one finalized block and
// the replicated-state snapshot after executing it, certified by t+1
// S_final signatures over a dedicated domain.
//
// Why t+1 is enough (the safety argument, cf. the Celestia ADR pattern
// of making a checkpoint a verifiable commitment rather than a trusted
// blob): at most t parties are corrupt, so any t+1 matching signatures
// include at least one honest party — and an honest party only signs
// the commitment (k, H(B_k), H(state_k), R_k) after itself finalizing
// B_k and executing the chain up to it. A verifier therefore learns,
// from the certificate alone, that B_k is on THE finalized chain (the
// protocol finalizes at most one block per round) and that state_k is
// the canonical state after it. Nothing about the checkpoint weakens
// consensus: it is a read-out of finality, not a source of it.
//
// The beacon digest H(R_k) rides along so a party that restores from
// the checkpoint can immediately verify and sign round-(k+1) beacon
// shares: the beacon chain signs (k+1, H(R_k)), so one trusted link
// re-attaches the restored party to the whole future of the chain.
package checkpoint

import (
	"errors"
	"fmt"

	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/types"
)

// domainSnapshot fingerprints state snapshots. Distinct from the state
// machine's own DomainState chunks so the two hash inputs can never be
// confused.
const domainSnapshot hash.Domain = "icc/checkpoint/state"

// StateDigest returns the canonical fingerprint of a state snapshot as
// committed to by checkpoint signatures.
func StateDigest(state []byte) hash.Digest {
	return hash.Sum(domainSnapshot, state)
}

// Checkpoint is one certified finalized-state checkpoint.
type Checkpoint struct {
	// Round, BlockHash, StateHash, BeaconDigest are the signed
	// commitment (see types.CheckpointSigningBytes).
	Round        types.Round
	BlockHash    hash.Digest
	StateHash    hash.Digest
	BeaconDigest hash.Digest

	// Block is the boundary block itself, and Notarization its n−t
	// aggregate — installed into the receiver's pool as the new chain
	// root so resync traffic above the checkpoint validates normally.
	Block        *types.Block
	Notarization *types.Notarization
	// Finalization is the aggregate for the boundary round when the
	// checkpointing party held one (the boundary block may have been
	// committed indirectly, via a later round's finalization).
	Finalization *types.Finalization

	// State is the statemachine snapshot after applying Block.
	State []byte

	// Agg is the encoded aggsig.Certificate of ≥ t+1 CheckpointShare
	// signatures over CheckpointSigningBytes under DomainCheckpoint.
	Agg []byte
}

// SigningBytes returns the byte string the certificate signs.
func (c *Checkpoint) SigningBytes() []byte {
	return types.CheckpointSigningBytes(c.Round, c.BlockHash, c.StateHash, c.BeaconDigest)
}

// ErrInvalid reports a checkpoint that failed verification.
var ErrInvalid = errors.New("checkpoint: invalid")

// PublicInfo derives the (t, t+1, n) verification material for
// checkpoint certificates from the cluster's key material: the S_final
// keys at the t+1 quorum, used under DomainCheckpoint. Works for any
// certificate scheme via aggsig.Scheme.WithQuorum.
func PublicInfo(pub *keys.Public) aggsig.Scheme {
	return pub.Final.WithQuorum(types.CheckpointQuorum(pub.N))
}

// Verify checks everything a receiver must not take on trust:
//
//   - the certificate: ≥ t+1 distinct valid S_final signatures over the
//     commitment under DomainCheckpoint;
//   - the block binds to the commitment: H(Block) == BlockHash and the
//     rounds agree;
//   - the state binds to the commitment: StateDigest(State) == StateHash;
//   - the notarization is a valid n−t aggregate for the block (the
//     pool's validity root after installation);
//   - the finalization, when present, is a valid n−t aggregate.
//
// The beacon digest needs no separate check: it is inside the signed
// commitment, so the certificate vouches for it.
func Verify(pub *keys.Public, c *Checkpoint) error {
	if c == nil || c.Block == nil {
		return fmt.Errorf("%w: missing block", ErrInvalid)
	}
	if c.Round == 0 {
		return fmt.Errorf("%w: genesis round", ErrInvalid)
	}
	if c.Block.Round != c.Round {
		return fmt.Errorf("%w: block round %d vs checkpoint round %d", ErrInvalid, c.Block.Round, c.Round)
	}
	if c.Block.Hash() != c.BlockHash {
		return fmt.Errorf("%w: block hash mismatch", ErrInvalid)
	}
	if StateDigest(c.State) != c.StateHash {
		return fmt.Errorf("%w: state hash mismatch", ErrInvalid)
	}
	ckptScheme := PublicInfo(pub)
	agg, err := ckptScheme.Decode(c.Agg)
	if err != nil {
		return fmt.Errorf("%w: certificate: %v", ErrInvalid, err)
	}
	if err := ckptScheme.Verify(types.DomainCheckpoint, c.SigningBytes(), agg); err != nil {
		return fmt.Errorf("%w: certificate: %v", ErrInvalid, err)
	}
	nz := c.Notarization
	if nz == nil {
		return fmt.Errorf("%w: missing notarization", ErrInvalid)
	}
	if nz.Round != c.Round || nz.BlockHash != c.BlockHash || nz.Proposer != c.Block.Proposer {
		return fmt.Errorf("%w: notarization binds a different block", ErrInvalid)
	}
	nzAgg, err := pub.Notary.Decode(nz.Agg)
	if err != nil {
		return fmt.Errorf("%w: notarization: %v", ErrInvalid, err)
	}
	msg := types.SigningBytes(nz.Round, nz.Proposer, nz.BlockHash)
	if err := pub.Notary.Verify(types.DomainNotarization, msg, nzAgg); err != nil {
		return fmt.Errorf("%w: notarization: %v", ErrInvalid, err)
	}
	if fz := c.Finalization; fz != nil {
		if fz.Round != c.Round || fz.BlockHash != c.BlockHash || fz.Proposer != c.Block.Proposer {
			return fmt.Errorf("%w: finalization binds a different block", ErrInvalid)
		}
		fzAgg, err := pub.Final.Decode(fz.Agg)
		if err != nil {
			return fmt.Errorf("%w: finalization: %v", ErrInvalid, err)
		}
		if err := pub.Final.Verify(types.DomainFinalization, msg, fzAgg); err != nil {
			return fmt.Errorf("%w: finalization: %v", ErrInvalid, err)
		}
	}
	return nil
}

// Encode serialises the checkpoint for the wire (types.CheckpointMsg
// blobs) and for disk (Store files).
func (c *Checkpoint) Encode() []byte {
	e := types.NewEncoder(256 + len(c.State))
	e.U64(uint64(c.Round))
	e.Bytes32(c.BlockHash)
	e.Bytes32(c.StateHash)
	e.Bytes32(c.BeaconDigest)
	e.VarBytes(types.Marshal(&types.BlockMsg{Block: c.Block}))
	e.VarBytes(types.Marshal(c.Notarization))
	if c.Finalization != nil {
		e.U8(1)
		e.VarBytes(types.Marshal(c.Finalization))
	} else {
		e.U8(0)
	}
	e.VarBytes(c.State)
	e.VarBytes(c.Agg)
	return e.Bytes()
}

// Decode parses an Encode output. It performs structural validation
// only; call Verify before trusting any field.
func Decode(b []byte) (*Checkpoint, error) {
	d := types.NewDecoder(b)
	c := &Checkpoint{}
	c.Round = types.Round(d.U64())
	c.BlockHash = d.Bytes32()
	c.StateHash = d.Bytes32()
	c.BeaconDigest = d.Bytes32()
	blockRaw := d.VarBytes()
	nzRaw := d.VarBytes()
	hasFz := d.U8()
	if hasFz > 1 {
		return nil, fmt.Errorf("checkpoint: decode: finalization flag %d, want 0 or 1", hasFz)
	}
	var fzRaw []byte
	if hasFz == 1 {
		fzRaw = d.VarBytes()
	}
	c.State = d.VarBytes()
	c.Agg = d.VarBytes()
	if err := d.Finish(); err != nil {
		return nil, fmt.Errorf("checkpoint: decode: %w", err)
	}
	bm, err := types.Unmarshal(blockRaw)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode block: %w", err)
	}
	blockMsg, ok := bm.(*types.BlockMsg)
	if !ok || blockMsg.Block == nil {
		return nil, fmt.Errorf("checkpoint: embedded message is %s, want block", bm.Kind())
	}
	c.Block = blockMsg.Block
	nm, err := types.Unmarshal(nzRaw)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: decode notarization: %w", err)
	}
	if c.Notarization, ok = nm.(*types.Notarization); !ok {
		return nil, fmt.Errorf("checkpoint: embedded message is %s, want notarization", nm.Kind())
	}
	if fzRaw != nil {
		fm, err := types.Unmarshal(fzRaw)
		if err != nil {
			return nil, fmt.Errorf("checkpoint: decode finalization: %w", err)
		}
		if c.Finalization, ok = fm.(*types.Finalization); !ok {
			return nil, fmt.Errorf("checkpoint: embedded message is %s, want finalization", fm.Kind())
		}
	}
	return c, nil
}
