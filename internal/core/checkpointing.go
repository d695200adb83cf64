package core

import (
	"time"

	"icc/internal/checkpoint"
	"icc/internal/crypto"
	"icc/internal/crypto/aggsig"
	"icc/internal/engine"
	"icc/internal/types"
)

// Checkpointing clauses. At every finalized round divisible by
// CheckpointInterval, each party signs the commitment
// (k, H(B_k), H(state_k), H(R_k)) under DomainCheckpoint and broadcasts
// the share. Once t+1 matching shares accumulate — ours plus t others —
// the certificate is combined, the full checkpoint (boundary block,
// notarization, state snapshot, certificate) is persisted to the local
// store, and the WAL is truncated below the boundary: everything older
// is reconstructible from the checkpoint alone.
//
// The certified blob is what peers stuck behind the prune horizon
// install (handleCheckpointMsg): verification needs nothing but the
// cluster's public keys, so the transfer is safe against a Byzantine
// server. See internal/checkpoint for the t+1 safety argument.

// pendingCheckpoint tracks share collection for one boundary round.
type pendingCheckpoint struct {
	// commit is our own share — the only commitment we aggregate toward.
	// A Byzantine peer's share with a different state hash is simply a
	// mismatch, never a fork: honest parties all execute the same chain
	// and therefore commit to the same bytes.
	commit *types.CheckpointShare
	state  []byte
	block  *types.Block
	shares map[types.PartyID]*aggsig.Share
	done   bool
}

// maybeCheckpoint runs inside the commit loop, immediately after b's
// OnCommit, so a StateSnapshot taken here is exactly the state after
// executing b — the bytes the commitment hashes.
func (e *Engine) maybeCheckpoint(b *types.Block, now time.Duration) {
	ival := e.cfg.CheckpointInterval
	if ival <= 0 || b.Round == 0 || b.Round%ival != 0 {
		return
	}
	if e.ckpts[b.Round] != nil || e.cfg.Checkpoints.LatestRound() >= b.Round {
		return
	}
	digest, ok := e.cfg.Beacon.Digest(b.Round)
	if !ok {
		// Jump-committed past the boundary without ever computing its
		// beacon (catch-up). Peers that traversed the round will
		// checkpoint it; we simply skip this boundary.
		return
	}
	var state []byte
	if e.cfg.StateSnapshot != nil {
		state = e.cfg.StateSnapshot()
	}
	h := b.Hash()
	stateHash := checkpoint.StateDigest(state)
	msg := types.CheckpointSigningBytes(b.Round, h, stateHash, digest)
	share := e.cfg.Priv.Final.Sign(types.DomainCheckpoint, msg)
	cs := &types.CheckpointShare{
		Round: b.Round, BlockHash: h, StateHash: stateHash,
		BeaconDigest: digest, Signer: e.cfg.Self, Sig: share.Signature,
	}
	p := &pendingCheckpoint{
		commit: cs,
		state:  state,
		block:  b,
		shares: map[types.PartyID]*aggsig.Share{e.cfg.Self: share},
	}
	e.ckpts[b.Round] = p
	e.gcPendingCheckpoints(b.Round)
	e.logArtifact(cs)
	if !e.replaying {
		e.emit(cs)
	}
	// n small enough that t+1 == 1: we alone certify.
	e.tryAssembleCheckpoint(b.Round, now)
}

// gcPendingCheckpoints bounds the pending map: once the boundary at
// round k exists, collections more than two intervals old can never
// complete usefully.
func (e *Engine) gcPendingCheckpoints(k types.Round) {
	horizon := 2 * e.cfg.CheckpointInterval
	for r := range e.ckpts {
		if r+horizon < k {
			delete(e.ckpts, r)
		}
	}
}

// handleCheckpointShare accumulates a peer's checkpoint share toward our
// own pending commitment for that round.
func (e *Engine) handleCheckpointShare(from types.PartyID, cs *types.CheckpointShare, now time.Duration) {
	if cs.Signer < 0 || int(cs.Signer) >= e.cfg.Keys.N {
		e.reject(from, crypto.Mismatch)
		return
	}
	p := e.ckpts[cs.Round]
	if p == nil || p.done {
		// No local commitment (we have not committed the boundary yet, or
		// already certified it). Shares are cheap to re-request — peers
		// re-broadcast nothing, but our own commit will arrive and the
		// cluster needs only t+1 of n collectors to succeed.
		return
	}
	if cs.BlockHash != p.commit.BlockHash || cs.StateHash != p.commit.StateHash || cs.BeaconDigest != p.commit.BeaconDigest {
		// An honest party can never disagree with us here (same chain,
		// same deterministic execution) — this share is forged or its
		// sender's state machine diverged; either way it is inadmissible.
		e.reject(from, crypto.Mismatch)
		return
	}
	if _, dup := p.shares[cs.Signer]; dup {
		return
	}
	sh := &aggsig.Share{Signer: int(cs.Signer), Signature: cs.Sig}
	msg := types.CheckpointSigningBytes(p.commit.Round, p.commit.BlockHash, p.commit.StateHash, p.commit.BeaconDigest)
	if err := e.ckptPub.VerifyShare(types.DomainCheckpoint, msg, sh); err != nil {
		e.reject(from, err)
		return
	}
	p.shares[cs.Signer] = sh
	e.logArtifact(cs)
	e.tryAssembleCheckpoint(cs.Round, now)
}

// tryAssembleCheckpoint combines a full share set into a certificate and
// persists the checkpoint.
func (e *Engine) tryAssembleCheckpoint(k types.Round, now time.Duration) {
	p := e.ckpts[k]
	if p == nil || p.done || len(p.shares) < types.CheckpointQuorum(e.cfg.Keys.N) {
		return
	}
	nz := e.pool.Notarization(p.commit.BlockHash)
	if nz == nil {
		return // pruned already? cannot happen while the boundary is this fresh
	}
	shares := make([]*aggsig.Share, 0, len(p.shares))
	for pid := 0; pid < e.cfg.Keys.N; pid++ {
		if s, ok := p.shares[types.PartyID(pid)]; ok {
			shares = append(shares, s)
		}
	}
	msg := types.CheckpointSigningBytes(p.commit.Round, p.commit.BlockHash, p.commit.StateHash, p.commit.BeaconDigest)
	agg, err := e.ckptPub.Combine(types.DomainCheckpoint, msg, shares)
	if err != nil {
		return
	}
	cp := &checkpoint.Checkpoint{
		Round:        k,
		BlockHash:    p.commit.BlockHash,
		StateHash:    p.commit.StateHash,
		BeaconDigest: p.commit.BeaconDigest,
		Block:        p.block,
		Notarization: nz,
		Finalization: e.pool.Finalization(p.commit.BlockHash),
		State:        p.state,
		Agg:          agg.Encode(),
	}
	p.done = true
	if err := e.cfg.Checkpoints.Save(cp); err != nil {
		return // disk trouble: keep the WAL intact, retry at the next boundary
	}
	// Everything below the boundary is now reconstructible from the
	// checkpoint; drop the cold WAL segments.
	e.cfg.WAL.Prune(k)
	if !e.replaying && e.cfg.Hooks.OnCheckpoint != nil {
		e.cfg.Hooks.OnCheckpoint(k, now)
	}
}

// handleCheckpointMsg installs a certified checkpoint received from a
// peer — the restore path for a party stuck behind the prune horizon.
func (e *Engine) handleCheckpointMsg(from types.PartyID, cm *types.CheckpointMsg, now time.Duration) {
	cp, err := checkpoint.Decode(cm.Blob)
	if err != nil {
		e.reject(from, err)
		return
	}
	if cp.Round <= e.kmax {
		return // stale or duplicate transfer; nothing to do
	}
	if err := checkpoint.Verify(e.cfg.Keys, cp); err != nil {
		e.reject(from, err)
		return
	}
	if e.installCheckpoint(cp, now) {
		// The peer sent it because we were behind its prune horizon, and
		// it has moved on since it certified it: ask for the rounds above
		// at once rather than a stall interval later.
		e.resyncAt = now
	}
}

// installCheckpoint jumps the engine's frontier to a verified
// checkpoint: restore the application state, seed the beacon digest
// chain and the pool's new chain root, advance the round, and persist
// the checkpoint locally so we can serve it onward and restart from it.
func (e *Engine) installCheckpoint(cp *checkpoint.Checkpoint, now time.Duration) bool {
	if cp.Round <= e.kmax {
		return false
	}
	if e.cfg.StateRestore != nil {
		if err := e.cfg.StateRestore(cp.State); err != nil {
			return false
		}
	}
	e.cfg.Beacon.InstallDigest(cp.Round, cp.BeaconDigest)
	e.pool.InstallCheckpoint(cp.Block, cp.Notarization, cp.Finalization)
	e.kmax = cp.Round
	e.lastFinalHash = cp.BlockHash
	if cp.Round > e.finalSeen {
		e.finalSeen = cp.Round
	}
	if cp.Round >= e.round {
		e.round = cp.Round + 1
		e.resetRoundState()
	}
	for k := range e.pending {
		if k <= cp.Round {
			delete(e.pending, k)
		}
	}
	e.lost = false
	e.waitSince = now
	e.touchResync(now)
	e.maybePrune()
	if !e.replaying {
		// Persisting locally lets our own restart begin at this frontier
		// and lets us serve the checkpoint onward; the WAL history below
		// it is superseded.
		_ = e.cfg.Checkpoints.Save(cp)
		e.cfg.WAL.Prune(cp.Round)
		e.broadcastBeaconShare(cp.Round + 1)
		if e.cfg.Hooks.OnCheckpointInstalled != nil {
			e.cfg.Hooks.OnCheckpointInstalled(cp.Round, now)
		}
	}
	return true
}

// CheckpointRequest names a checkpoint transfer a catch-up response
// deferred to a provider: serve the latest certified checkpoint (at
// least past MinRound) to Peer.
type CheckpointRequest struct {
	Peer     types.PartyID
	MinRound types.Round
}

// CheckpointProvider is optionally implemented by a CatchupProvider
// (internal/backfill's worker does) to ship checkpoint blobs off the
// engine loop. EnqueueCheckpoint must never block; false means dropped,
// and the laggard's next Status re-asks.
type CheckpointProvider interface {
	EnqueueCheckpoint(req CheckpointRequest) bool
}

// checkpointDue reports whether a Status comes from a peer so far
// behind that artifact catch-up can no longer help it: its gap starts
// below our prune horizon, so the rounds it needs are gone from our
// pool, and we hold a certified checkpoint newer than its frontier.
func (e *Engine) checkpointDue(st *types.Status) bool {
	if e.cfg.Checkpoints == nil || e.cfg.PruneDepth <= 0 || e.kmax <= e.cfg.PruneDepth {
		return false
	}
	latest := e.cfg.Checkpoints.LatestRound()
	return st.Round <= e.kmax-e.cfg.PruneDepth && latest > 0 && latest > st.Finalized
}

// serveCheckpoint sends the peer our latest certified checkpoint,
// through the CheckpointProvider when one is wired and inline otherwise
// (the deterministic simnet/harness path). It returns the checkpoint's
// round, 0 when nothing left; a dropped request is re-asked at the
// peer's next Status.
func (e *Engine) serveCheckpoint(from types.PartyID, st *types.Status, now time.Duration) types.Round {
	round := e.cfg.Checkpoints.LatestRound()
	if prov, ok := e.cfg.Catchup.(CheckpointProvider); ok && prov != nil {
		if !prov.EnqueueCheckpoint(CheckpointRequest{Peer: from, MinRound: st.Round}) {
			return 0
		}
	} else {
		raw, r, ok := e.cfg.Checkpoints.LatestEncoded()
		if !ok {
			return 0
		}
		round = r
		e.out = append(e.out, engine.Unicast(from, &types.Bundle{Messages: []types.Message{&types.CheckpointMsg{Blob: raw}}, Resync: true}))
	}
	if e.cfg.Hooks.OnCheckpointServed != nil {
		e.cfg.Hooks.OnCheckpointServed(from, round, now)
	}
	return round
}
