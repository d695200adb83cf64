// Package rbc implements ICC2's erasure-coded reliable-broadcast
// subprotocol for block dissemination (paper §1). Instead of
// broadcasting a block of size S to all n parties (cost n·S at the
// proposer), the proposer Reed–Solomon-encodes the block into n
// fragments with reconstruction threshold k = n−2t, commits to them with
// a Merkle root, and sends each party its own fragment plus an inclusion
// proof. Each party echoes its fragment to everyone; once a party holds
// k consistent fragments it reconstructs the block, re-encodes it, and
// accepts only if the recomputed Merkle root matches (catching corrupt
// proposers that encode inconsistently — the verifiable-dispersal idea
// of [11]).
//
// Properties delivered (and exploited by ICC2):
//   - per-party communication O(S·n/(n−2t)) = O(S) for t < n/3;
//   - two network hops from proposer to every party holding the block
//     (send + echo) — one hop more than direct broadcast, which is why
//     ICC2's reciprocal throughput is 3δ and latency 4δ instead of
//     ICC0/ICC1's 2δ and 3δ;
//   - totality: echoes are broadcasts, so if any honest party
//     reconstructs, the k echoes it used reach every honest party,
//     and all of them reconstruct too.
//
// Everything other than blocks (signature shares, notarizations,
// finalizations, beacon shares) is still broadcast directly — those are
// small (paper §1: "Signatures and signature shares are typically very
// small... while blocks may be very large").
package rbc

import (
	"bytes"
	"fmt"
	"time"

	"icc/internal/crypto/hash"
	"icc/internal/erasure"
	"icc/internal/merkle"
	"icc/internal/types"

	"icc/internal/engine"
)

// Config tunes one party's RBC wrapper.
type Config struct {
	Self types.PartyID
	N    int
	// MaxSessions caps concurrently tracked dissemination sessions to
	// bound memory under spam. Default 1024.
	MaxSessions int
}

// sessionKey identifies one dissemination instance.
type sessionKey struct {
	round    types.Round
	proposer types.PartyID
	root     hash.Digest
}

// session tracks fragments for one (round, proposer, root).
type session struct {
	blockLen   int
	dataShards int
	fragments  map[int][]byte
	proofs     map[int][]hash.Digest
	echoedOwn  bool
	delivered  bool
	rejected   bool // re-encode check failed: proposer encoded inconsistently
}

// Engine is the ICC2 dissemination wrapper.
type Engine struct {
	cfg      Config
	inner    engine.Engine
	code     *erasure.Code
	sessions map[sessionKey]*session
	order    []sessionKey

	out []engine.Output
}

// Wrap builds the ICC2 dissemination wrapper around an engine.
func Wrap(cfg Config, inner engine.Engine) *Engine {
	if cfg.MaxSessions == 0 {
		cfg.MaxSessions = 1024
	}
	k := cfg.N - 2*types.MaxFaults(cfg.N)
	code, err := erasure.NewCode(k, cfg.N)
	if err != nil {
		panic(fmt.Sprintf("rbc: building code for n=%d: %v", cfg.N, err))
	}
	return &Engine{
		cfg:      cfg,
		inner:    inner,
		code:     code,
		sessions: make(map[sessionKey]*session),
	}
}

// ID implements engine.Engine.
func (r *Engine) ID() types.PartyID { return r.inner.ID() }

// CurrentRound implements engine.Engine.
func (r *Engine) CurrentRound() types.Round { return r.inner.CurrentRound() }

// NextWake implements engine.Engine.
func (r *Engine) NextWake(now time.Duration) (time.Duration, bool) { return r.inner.NextWake(now) }

// Init implements engine.Engine.
func (r *Engine) Init(now time.Duration) []engine.Output {
	r.transform(r.inner.Init(now))
	return r.drain()
}

// Tick implements engine.Engine.
func (r *Engine) Tick(now time.Duration) []engine.Output {
	r.transform(r.inner.Tick(now))
	return r.drain()
}

// HandleMessage implements engine.Engine.
func (r *Engine) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	if f, ok := m.(*types.Fragment); ok {
		r.handleFragment(f, now)
		return r.drain()
	}
	r.transform(r.inner.HandleMessage(from, m, now))
	return r.drain()
}

func (r *Engine) drain() []engine.Output {
	out := r.out
	r.out = nil
	return out
}

// transform rewrites the inner engine's outputs: block bodies are
// replaced by fragment dissemination; everything else passes through.
func (r *Engine) transform(outs []engine.Output) {
	for _, o := range outs {
		bundle, ok := o.Msg.(*types.Bundle)
		if !ok || !o.Broadcast {
			r.out = append(r.out, o)
			continue
		}
		var rest []types.Message
		for _, m := range bundle.Messages {
			bm, isBlock := m.(*types.BlockMsg)
			if !isBlock {
				rest = append(rest, m)
				continue
			}
			if bm.Block.Proposer == r.cfg.Self {
				// Our own proposal: disperse it.
				r.disperse(bm.Block)
			}
			// Echoed foreign blocks are dropped: RBC's fragment echoes
			// already provide totality, so re-broadcasting the full
			// block would reintroduce the n·S cost ICC2 removes.
		}
		if len(rest) > 0 {
			// Same recipients as the bundle it came from: an echo still
			// leaves out the block's proposer.
			o.Msg = &types.Bundle{Messages: rest}
			r.out = append(r.out, o)
		}
	}
}

// disperse encodes and sends one block's fragments.
func (r *Engine) disperse(b *types.Block) {
	enc := types.Marshal(&types.BlockMsg{Block: b})
	shards, err := r.code.Encode(enc)
	if err != nil {
		return
	}
	leaves := make([][]byte, len(shards))
	for i, s := range shards {
		leaves[i] = s
	}
	tree, err := merkle.New(leaves)
	if err != nil {
		return
	}
	root := tree.Root()
	for p := 0; p < r.cfg.N; p++ {
		if types.PartyID(p) == r.cfg.Self {
			continue
		}
		proof, err := tree.Proof(p)
		if err != nil {
			continue
		}
		r.out = append(r.out, engine.Unicast(types.PartyID(p), &types.Fragment{
			Round:      b.Round,
			Proposer:   b.Proposer,
			Root:       root,
			BlockLen:   uint32(len(enc)),
			DataShards: uint16(r.code.DataShards()),
			Index:      uint16(p),
			Sender:     r.cfg.Self,
			Echo:       false,
			Data:       shards[p],
			Proof:      proof,
		}))
	}
	// Mark our own session delivered (we have the block already).
	key := sessionKey{round: b.Round, proposer: b.Proposer, root: root}
	s := r.getSession(key, len(enc), r.code.DataShards())
	if s != nil {
		s.delivered = true
		s.echoedOwn = true
	}
}

// getSession fetches or creates a session, enforcing the cap.
func (r *Engine) getSession(key sessionKey, blockLen, dataShards int) *session {
	if s, ok := r.sessions[key]; ok {
		return s
	}
	if len(r.sessions) >= r.cfg.MaxSessions {
		old := r.order[0]
		r.order = r.order[1:]
		delete(r.sessions, old)
	}
	s := &session{
		blockLen:   blockLen,
		dataShards: dataShards,
		fragments:  make(map[int][]byte),
		proofs:     make(map[int][]hash.Digest),
	}
	r.sessions[key] = s
	r.order = append(r.order, key)
	return s
}

// handleFragment processes a received fragment: verify its proof, store
// it, echo our own fragment, and reconstruct once k fragments are held.
func (r *Engine) handleFragment(f *types.Fragment, now time.Duration) {
	if int(f.Index) >= r.cfg.N || int(f.DataShards) != r.code.DataShards() {
		return
	}
	if merkle.Verify(f.Root, f.Data, int(f.Index), r.cfg.N, f.Proof) != nil {
		return
	}
	key := sessionKey{round: f.Round, proposer: f.Proposer, root: f.Root}
	s := r.getSession(key, int(f.BlockLen), int(f.DataShards))
	if s.delivered || s.rejected {
		return
	}
	if int(f.BlockLen) != s.blockLen {
		return // inconsistent metadata for the same root
	}
	if _, dup := s.fragments[int(f.Index)]; !dup {
		s.fragments[int(f.Index)] = f.Data
		s.proofs[int(f.Index)] = f.Proof
	}
	// Echo our own fragment the first time we can.
	if !s.echoedOwn {
		if data, ok := s.fragments[int(r.cfg.Self)]; ok {
			s.echoedOwn = true
			r.out = append(r.out, engine.Broadcast(&types.Fragment{
				Round:      f.Round,
				Proposer:   f.Proposer,
				Root:       f.Root,
				BlockLen:   f.BlockLen,
				DataShards: f.DataShards,
				Index:      uint16(r.cfg.Self),
				Sender:     r.cfg.Self,
				Echo:       true,
				Data:       data,
				Proof:      s.proofs[int(r.cfg.Self)],
			}))
		}
	}
	if len(s.fragments) < r.code.DataShards() {
		return
	}
	r.tryReconstruct(key, s, now)
}

// tryReconstruct decodes the block, re-encodes it, verifies the root,
// and on success delivers the block to the inner engine.
func (r *Engine) tryReconstruct(key sessionKey, s *session, now time.Duration) {
	enc, err := r.code.Reconstruct(s.fragments, s.blockLen)
	if err != nil {
		return
	}
	// Re-encode and check every shard against the committed root: a
	// corrupt proposer that handed out fragments of different blocks
	// under one root is detected here.
	shards, err := r.code.Encode(enc)
	if err != nil {
		s.rejected = true
		return
	}
	leaves := make([][]byte, len(shards))
	for i, sh := range shards {
		leaves[i] = sh
	}
	tree, err := merkle.New(leaves)
	if err != nil || tree.Root() != key.root {
		s.rejected = true
		return
	}
	// Cross-check the fragments we actually used.
	for idx, frag := range s.fragments {
		if !bytes.Equal(shards[idx], frag) {
			s.rejected = true
			return
		}
	}
	m, err := types.Unmarshal(enc)
	if err != nil {
		s.rejected = true
		return
	}
	bm, ok := m.(*types.BlockMsg)
	if !ok || bm.Block == nil || bm.Block.Round != key.round || bm.Block.Proposer != key.proposer {
		s.rejected = true
		return
	}
	s.delivered = true
	// Now that we can compute every shard, make sure our own fragment is
	// echoed even if the proposer never sent it to us.
	if !s.echoedOwn {
		s.echoedOwn = true
		proof, err := tree.Proof(int(r.cfg.Self))
		if err == nil {
			r.out = append(r.out, engine.Broadcast(&types.Fragment{
				Round:      key.round,
				Proposer:   key.proposer,
				Root:       key.root,
				BlockLen:   uint32(s.blockLen),
				DataShards: uint16(s.dataShards),
				Index:      uint16(r.cfg.Self),
				Sender:     r.cfg.Self,
				Echo:       true,
				Data:       shards[r.cfg.Self],
				Proof:      proof,
			}))
		}
	}
	r.transform(r.inner.HandleMessage(key.proposer, bm, now))
}

var _ engine.Engine = (*Engine)(nil)
