package verify

import (
	"sort"

	"icc/internal/crypto/hash"
	"icc/internal/types"
)

// processResync verifies a resync-marked catch-up bundle chain-aware.
//
// A catch-up batch for a g-round gap carries ~g notarizations (plus the
// occasional finalization) whose naive cost is g aggregate
// verifications — the dominant term in the laggard-ingest livelock.
// But the batch is not g independent claims: the blocks hash-link each
// round to its parent, and the paper's safety argument (§3) says a
// verified finalization commits its entire prefix, while a verified
// notarization at round k implies at least one honest party held the
// round-(k−1) parent notarized (validity requires a notarized parent).
// So one signature check at the head of a hash-linked chain vouches
// for the *statements* of every aggregate along it.
//
// The algorithm processes aggregates from the highest round down.
// Each one whose block hash was already reached by a verified head's
// parent-digest walk is admitted without touching the verifier
// (icc_verify_chain_admitted_total); each one that was not becomes a
// new head and is verified in full. On a healthy batch that is one
// finalization check plus one boundary-notarization check; on a batch
// with broken linkage (missing blocks, forged hashes) every unlinked
// aggregate falls back to individual verification, so a Byzantine
// responder gains nothing beyond the pre-existing cost model.
//
// What chain admission asserts is the aggregate's statement ("this
// block is notarized/finalized in the committed prefix"), not that the
// aggregate's signature bytes are well-formed — a malicious responder
// could splice garbage Agg bytes onto a truly-committed round. That is
// safe for the laggard (the statement is true, and collision
// resistance of H pins the chain), and self-limiting for the cluster:
// any party re-gossiped such bytes verifies them in full and rejects.
// DESIGN.md §11 carries the full argument.
func (p *Pipeline) processResync(b *types.Bundle) (types.Message, bool) {
	// Index the batch: blocks by their computed hash (a hash per block,
	// cheap), aggregates as (round, blockHash, message) triples.
	blocks := make(map[hash.Digest]*types.Block)
	type aggRef struct {
		round types.Round
		bh    hash.Digest
		final bool
		msg   types.Message
	}
	var aggs []aggRef
	for _, sub := range b.Messages {
		switch v := sub.(type) {
		case *types.BlockMsg:
			if v.Block != nil {
				blocks[v.Block.Hash()] = v.Block
			}
		case *types.Notarization:
			aggs = append(aggs, aggRef{v.Round, v.BlockHash, false, sub})
		case *types.Finalization:
			aggs = append(aggs, aggRef{v.Round, v.BlockHash, true, sub})
		}
	}

	// Highest round first; at equal round a finalization makes the
	// stronger head, so verify it rather than the notarization.
	sort.SliceStable(aggs, func(i, j int) bool {
		if aggs[i].round != aggs[j].round {
			return aggs[i].round > aggs[j].round
		}
		return aggs[i].final && !aggs[j].final
	})

	// committed holds block hashes reachable from a verified aggregate
	// by walking parent digests through the blocks in this batch.
	committed := make(map[hash.Digest]struct{})
	walk := func(bh hash.Digest) {
		for {
			if _, ok := committed[bh]; ok {
				return
			}
			committed[bh] = struct{}{}
			blk, ok := blocks[bh]
			if !ok || blk.ParentHash.IsZero() {
				return
			}
			bh = blk.ParentHash
		}
	}

	verdict := make(map[types.Message]bool, len(aggs))
	for _, a := range aggs {
		if _, ok := committed[a.bh]; ok {
			verdict[a.msg] = true
			p.chainAdmit.Inc()
			p.cacheInsert(a.msg)
			p.markStatement(a.msg)
			continue
		}
		if err := p.checkCached(a.msg); err != nil {
			p.reject(err)
			verdict[a.msg] = false
			continue
		}
		verdict[a.msg] = true
		p.markStatement(a.msg)
		p.noteFrontier(a.round)
		walk(a.bh)
	}

	// Second pass in original bundle order: apply verdicts, admit
	// authenticators of committed blocks by linkage, and verify
	// everything else as usual.
	kept := make([]types.Message, 0, len(b.Messages))
	for _, sub := range b.Messages {
		switch v := sub.(type) {
		case *types.Notarization, *types.Finalization:
			if verdict[sub] {
				kept = append(kept, sub)
			}
		case *types.Authenticator:
			if _, ok := committed[v.BlockHash]; ok {
				p.chainAdmit.Inc()
				p.cacheInsert(sub)
				kept = append(kept, sub)
				continue
			}
			if s, ok := p.process(sub); ok {
				kept = append(kept, s)
			}
		default:
			if s, ok := p.process(sub); ok {
				kept = append(kept, s)
			}
		}
	}
	if len(kept) == 0 {
		return nil, false
	}
	return &types.Bundle{Messages: kept, Resync: true}, true
}
