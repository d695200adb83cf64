// Package pool implements each party's message pool and block-tree
// (paper §3.1, §3.4): the set of all artifacts received from all parties
// (including itself), with the validity ladder a block climbs —
// authentic → valid → notarized → finalized — computed relative to the
// pool's contents.
//
// Cryptographic checks happen at admission: artifacts that fail
// signature verification are rejected and never influence protocol
// state. Validity (which is recursive through parent notarizations) is
// evaluated on demand and memoized — the properties are monotone, so a
// block that once classified as valid stays valid.
package pool

import (
	"fmt"

	"icc/internal/crypto"
	"icc/internal/crypto/aggsig"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/types"
)

// Pool is one party's artifact store. Not safe for concurrent use; the
// engine serialises access.
type Pool struct {
	pub  *keys.Public
	self types.PartyID

	rootHash hash.Digest

	blocks  map[hash.Digest]*types.Block
	byRound map[types.Round][]hash.Digest

	auths        map[hash.Digest]*types.Authenticator
	notarShares  map[hash.Digest]map[types.PartyID]*types.NotarizationShare
	notarization map[hash.Digest]*types.Notarization
	finalShares  map[hash.Digest]map[types.PartyID]*types.FinalizationShare
	finalization map[hash.Digest]*types.Finalization

	// Memoized ladder results (only `true` is cached — the properties
	// are monotone in pool contents).
	validCache map[hash.Digest]bool

	// finalizedRounds tracks rounds for which a finalization artifact or
	// a full share set might exist, so the finalizer doesn't scan
	// everything.
	finalizableDirty map[types.Round]struct{}

	// Count-threshold indices: blocks whose share sets crossed the
	// combination threshold (or that received a combined certificate),
	// per round. The engine's hot loops iterate these short candidate
	// lists instead of scanning every block of the round — at n=100 a
	// round can hold several equivocating proposals with O(n) shares
	// each, and the per-message rescan was the pool's dominant cost.
	notarReady map[types.Round][]hash.Digest
	finalReady map[types.Round][]hash.Digest

	// nzInRound memoizes NotarizedInRound hits. Notarization is monotone,
	// so a hit stays correct; misses re-scan (the answer can change).
	nzInRound map[types.Round]hash.Digest

	// verifier performs the cryptographic admission checks. Structural
	// checks that depend on pool state (duplicates, block contradiction)
	// remain in the Add methods themselves.
	verifier Verifier
}

// Options tunes a Pool.
type Options struct {
	// Verifier performs the cryptographic admission checks. Nil selects
	// a CryptoVerifier over the pool's key material with Policy.
	Verifier Verifier
	// Policy tunes the default verifier when Verifier is nil: VerifyFull
	// for raw network input, VerifyPreVerified when a verification
	// pipeline upstream has already checked every inbound artifact.
	Policy VerifyPolicy
}

// New creates an empty pool initialised with the root block, which is
// "always considered authentic, valid, notarized, and finalized"
// (paper §3.4).
func New(pub *keys.Public, self types.PartyID, opts Options) *Pool {
	root := types.RootBlock()
	rh := root.Hash()
	p := &Pool{
		pub:              pub,
		self:             self,
		rootHash:         rh,
		blocks:           map[hash.Digest]*types.Block{rh: root},
		byRound:          map[types.Round][]hash.Digest{0: {rh}},
		auths:            make(map[hash.Digest]*types.Authenticator),
		notarShares:      make(map[hash.Digest]map[types.PartyID]*types.NotarizationShare),
		notarization:     make(map[hash.Digest]*types.Notarization),
		finalShares:      make(map[hash.Digest]map[types.PartyID]*types.FinalizationShare),
		finalization:     make(map[hash.Digest]*types.Finalization),
		validCache:       make(map[hash.Digest]bool),
		finalizableDirty: make(map[types.Round]struct{}),
		notarReady:       make(map[types.Round][]hash.Digest),
		finalReady:       make(map[types.Round][]hash.Digest),
		nzInRound:        make(map[types.Round]hash.Digest),
		verifier:         opts.Verifier,
	}
	if p.verifier == nil {
		p.verifier = NewVerifier(pub, opts.Policy)
	}
	return p
}

// RootHash returns the hash of the genesis block.
func (p *Pool) RootHash() hash.Digest { return p.rootHash }

// AddBlock stores a block. It returns true if the block is new.
// No signature check happens here — a block only matters once its
// authenticator arrives (AddAuthenticator).
func (p *Pool) AddBlock(b *types.Block) bool {
	if b == nil || b.IsRoot() {
		return false
	}
	h := b.Hash()
	if _, ok := p.blocks[h]; ok {
		return false
	}
	p.blocks[h] = b
	p.byRound[b.Round] = append(p.byRound[b.Round], h)
	return true
}

// AddAuthenticator verifies and stores an authenticator.
//
// All verified-artifact adders share one contract: (true, nil) means
// newly stored, (false, nil) means a benign no-op (duplicate or already
// present), and (false, err) means the artifact was rejected — err wraps
// an internal/crypto sentinel so callers can attribute the reject.
func (p *Pool) AddAuthenticator(a *types.Authenticator) (bool, error) {
	if a == nil {
		return false, fmt.Errorf("%w: nil authenticator", crypto.ErrBadSignature)
	}
	if _, ok := p.auths[a.BlockHash]; ok {
		return false, nil
	}
	if err := p.verifier.Authenticator(a); err != nil {
		return false, err
	}
	p.auths[a.BlockHash] = a
	return true, nil
}

// AddNotarizationShare verifies and stores a share. Returns true if
// newly stored. A share whose claimed (round, proposer) contradicts a
// block already in the pool is rejected: it could never combine into a
// verifiable notarization for that block, and counting it would let an
// adversary inflate the share count.
func (p *Pool) AddNotarizationShare(s *types.NotarizationShare) (bool, error) {
	if s == nil {
		return false, fmt.Errorf("%w: nil notarization share", crypto.ErrBadShare)
	}
	if b, ok := p.blocks[s.BlockHash]; ok && (b.Round != s.Round || b.Proposer != s.Proposer) {
		return false, fmt.Errorf("%w: notarization share for round %d/proposer %d", crypto.Mismatch, s.Round, s.Proposer)
	}
	m := p.notarShares[s.BlockHash]
	if _, dup := m[s.Signer]; dup {
		return false, nil
	}
	if err := p.verifier.NotarizationShare(s); err != nil {
		return false, err
	}
	if m == nil {
		m = make(map[types.PartyID]*types.NotarizationShare)
		p.notarShares[s.BlockHash] = m
	}
	m[s.Signer] = s
	if len(m) == p.pub.Notary.Quorum() {
		p.markReady(p.notarReady, s.Round, s.BlockHash)
	}
	return true, nil
}

// markReady appends h to a per-round candidate list, once.
func (p *Pool) markReady(idx map[types.Round][]hash.Digest, k types.Round, h hash.Digest) {
	for _, have := range idx[k] {
		if have == h {
			return
		}
	}
	idx[k] = append(idx[k], h)
}

// AddNotarization verifies and stores a combined notarization (same
// result contract as AddAuthenticator).
func (p *Pool) AddNotarization(nz *types.Notarization) (bool, error) {
	if nz == nil {
		return false, fmt.Errorf("%w: nil notarization", crypto.ErrBadAggregate)
	}
	if _, ok := p.notarization[nz.BlockHash]; ok {
		return false, nil
	}
	if err := p.verifier.Notarization(nz); err != nil {
		return false, err
	}
	p.notarization[nz.BlockHash] = nz
	return true, nil
}

// AddFinalizationShare verifies and stores a share (same mismatch rule
// as AddNotarizationShare, same result contract as AddAuthenticator).
func (p *Pool) AddFinalizationShare(s *types.FinalizationShare) (bool, error) {
	if s == nil {
		return false, fmt.Errorf("%w: nil finalization share", crypto.ErrBadShare)
	}
	if b, ok := p.blocks[s.BlockHash]; ok && (b.Round != s.Round || b.Proposer != s.Proposer) {
		return false, fmt.Errorf("%w: finalization share for round %d/proposer %d", crypto.Mismatch, s.Round, s.Proposer)
	}
	m := p.finalShares[s.BlockHash]
	if _, dup := m[s.Signer]; dup {
		return false, nil
	}
	if err := p.verifier.FinalizationShare(s); err != nil {
		return false, err
	}
	if m == nil {
		m = make(map[types.PartyID]*types.FinalizationShare)
		p.finalShares[s.BlockHash] = m
	}
	m[s.Signer] = s
	p.finalizableDirty[s.Round] = struct{}{}
	if len(m) == p.pub.Final.Quorum() {
		p.markReady(p.finalReady, s.Round, s.BlockHash)
	}
	return true, nil
}

// AddFinalization verifies and stores a combined finalization (same
// result contract as AddAuthenticator).
func (p *Pool) AddFinalization(f *types.Finalization) (bool, error) {
	if f == nil {
		return false, fmt.Errorf("%w: nil finalization", crypto.ErrBadAggregate)
	}
	if _, ok := p.finalization[f.BlockHash]; ok {
		return false, nil
	}
	if err := p.verifier.Finalization(f); err != nil {
		return false, err
	}
	p.finalization[f.BlockHash] = f
	p.finalizableDirty[f.Round] = struct{}{}
	p.markReady(p.finalReady, f.Round, f.BlockHash)
	return true, nil
}

// Block returns the block with the given hash, if present.
func (p *Pool) Block(h hash.Digest) *types.Block { return p.blocks[h] }

// IsAuthentic reports whether the block is present with a verified
// authenticator whose (round, proposer) matches the block's own claim
// (paper §3.4).
func (p *Pool) IsAuthentic(h hash.Digest) bool {
	if h == p.rootHash {
		return true
	}
	b, ok := p.blocks[h]
	if !ok {
		return false
	}
	a, ok := p.auths[h]
	return ok && a.Round == b.Round && a.Proposer == b.Proposer
}

// IsValid reports whether the block is valid: authentic, and its parent
// is a notarized block of the previous round (paper §3.4).
func (p *Pool) IsValid(h hash.Digest) bool {
	if h == p.rootHash {
		return true
	}
	if p.validCache[h] {
		return true
	}
	b, ok := p.blocks[h]
	if !ok || !p.IsAuthentic(h) {
		return false
	}
	parent, ok := p.blocks[b.ParentHash]
	if !ok || parent.Round != b.Round-1 {
		return false
	}
	if !p.IsNotarized(b.ParentHash) {
		return false
	}
	p.validCache[h] = true
	return true
}

// IsNotarized reports whether the block is valid and carries a
// notarization (paper §3.4). The root is always notarized.
func (p *Pool) IsNotarized(h hash.Digest) bool {
	if h == p.rootHash {
		return true
	}
	if _, ok := p.notarization[h]; !ok {
		return false
	}
	return p.IsValid(h)
}

// IsFinalized reports whether the block is valid and carries a
// finalization.
func (p *Pool) IsFinalized(h hash.Digest) bool {
	if h == p.rootHash {
		return true
	}
	if _, ok := p.finalization[h]; !ok {
		return false
	}
	return p.IsValid(h)
}

// BlocksInRound returns the hashes of all blocks stored for a round.
func (p *Pool) BlocksInRound(k types.Round) []hash.Digest {
	return p.byRound[k]
}

// NotarizedInRound returns the first notarized block of the round found,
// if any. Hits are memoized (notarization is monotone), so the hot
// callers — tryPropose consulting round k−1, resync consulting the
// current round — pay the linear scan at most once per round.
func (p *Pool) NotarizedInRound(k types.Round) (hash.Digest, bool) {
	if h, ok := p.nzInRound[k]; ok {
		return h, true
	}
	for _, h := range p.byRound[k] {
		if p.IsNotarized(h) {
			p.nzInRound[k] = h
			return h, true
		}
	}
	return hash.Digest{}, false
}

// NotarShareCount returns how many distinct verified notarization shares
// are held for the block.
func (p *Pool) NotarShareCount(h hash.Digest) int { return len(p.notarShares[h]) }

// NotarAggregateIfReady combines the held notarization shares for the
// block into an aggregate, reporting false while fewer than threshold
// distinct shares are held. Every share in the pool passed admission
// verification (the verifier, or — under VerifyPreVerified — the
// upstream pipeline that policy attests to), so combination skips the
// per-share signature re-check.
func (p *Pool) NotarAggregateIfReady(h hash.Digest) (aggsig.Certificate, bool) {
	return aggregateIfReady(p.pub.Notary, sharesOf(p.notarShares[h], func(s *types.NotarizationShare) (types.PartyID, []byte) {
		return s.Signer, s.Sig
	}))
}

// ForEachNotarShareMessage visits the held notarization shares for the
// block in signer order (deterministic, for byte-stable resync bundles)
// without materialising a slice.
func (p *Pool) ForEachNotarShareMessage(h hash.Digest, fn func(*types.NotarizationShare)) {
	m := p.notarShares[h]
	for pid := 0; len(m) > 0 && pid < p.pub.N; pid++ {
		if s, ok := m[types.PartyID(pid)]; ok {
			fn(s)
		}
	}
}

// Notarization returns the stored notarization for the block, if any.
func (p *Pool) Notarization(h hash.Digest) *types.Notarization { return p.notarization[h] }

// FinalShareCount returns how many distinct verified finalization shares
// are held for the block.
func (p *Pool) FinalShareCount(h hash.Digest) int { return len(p.finalShares[h]) }

// FinalAggregateIfReady combines the held finalization shares for the
// block into an aggregate, reporting false while fewer than threshold
// distinct shares are held (same verification contract as
// NotarAggregateIfReady).
func (p *Pool) FinalAggregateIfReady(h hash.Digest) (aggsig.Certificate, bool) {
	return aggregateIfReady(p.pub.Final, sharesOf(p.finalShares[h], func(s *types.FinalizationShare) (types.PartyID, []byte) {
		return s.Signer, s.Sig
	}))
}

// ForEachFinalShareMessage visits the held finalization shares for the
// block in signer order without materialising a slice.
func (p *Pool) ForEachFinalShareMessage(h hash.Digest, fn func(*types.FinalizationShare)) {
	m := p.finalShares[h]
	for pid := 0; len(m) > 0 && pid < p.pub.N; pid++ {
		if s, ok := m[types.PartyID(pid)]; ok {
			fn(s)
		}
	}
}

// sharesOf converts a signer-keyed share map into aggregate-scheme shares.
func sharesOf[S any](m map[types.PartyID]S, fields func(S) (types.PartyID, []byte)) []*aggsig.Share {
	if len(m) == 0 {
		return nil
	}
	out := make([]*aggsig.Share, 0, len(m))
	for _, s := range m {
		signer, sg := fields(s)
		out = append(out, &aggsig.Share{Signer: int(signer), Signature: sg})
	}
	return out
}

func aggregateIfReady(info aggsig.Scheme, shares []*aggsig.Share) (aggsig.Certificate, bool) {
	if len(shares) < info.Quorum() {
		return nil, false
	}
	agg, err := info.CombineVerified(shares)
	if err != nil {
		return nil, false
	}
	return agg, true
}

// NotarReadyBlocks returns the round's blocks whose notarization share
// sets reached the combination threshold — the candidate list
// tryFinishRound iterates instead of every block of the round.
func (p *Pool) NotarReadyBlocks(k types.Round) []hash.Digest { return p.notarReady[k] }

// FinalCandidateBlocks returns the round's blocks holding either a
// finalization certificate or a threshold set of finalization shares —
// the candidate list the finalizer iterates.
func (p *Pool) FinalCandidateBlocks(k types.Round) []hash.Digest { return p.finalReady[k] }

// Finalization returns the stored finalization for the block, if any.
func (p *Pool) Finalization(h hash.Digest) *types.Finalization { return p.finalization[h] }

// Authenticator returns the stored authenticator for the block, if any.
func (p *Pool) Authenticator(h hash.Digest) *types.Authenticator { return p.auths[h] }

// DirtyFinalizableRounds returns (and clears) the set of rounds whose
// finalization state changed since the last call — the finalizer's work
// list.
func (p *Pool) DirtyFinalizableRounds() []types.Round {
	if len(p.finalizableDirty) == 0 {
		return nil
	}
	out := make([]types.Round, 0, len(p.finalizableDirty))
	for k := range p.finalizableDirty {
		out = append(out, k)
	}
	p.finalizableDirty = make(map[types.Round]struct{})
	return out
}

// Chain returns the blocks strictly above `aboveRound` on the path from
// the root to the block h, ordered by increasing round. It returns nil
// if any ancestor is missing from the pool.
func (p *Pool) Chain(h hash.Digest, aboveRound types.Round) []*types.Block {
	var rev []*types.Block
	cur := h
	for {
		if cur == p.rootHash {
			break
		}
		b, ok := p.blocks[cur]
		if !ok {
			return nil
		}
		if b.Round <= aboveRound {
			break
		}
		rev = append(rev, b)
		cur = b.ParentHash
	}
	out := make([]*types.Block, len(rev))
	for i, b := range rev {
		out[len(rev)-1-i] = b
	}
	return out
}

// InstallCheckpoint seeds the pool with a verified checkpoint's boundary
// block and certificates, marking the block valid by fiat. The caller
// (the engine's checkpoint-install path) has already run
// checkpoint.Verify, which subsumes the admission checks performed here
// for ordinary traffic: the notarization aggregate vouches for the
// block, so it becomes the new chain root and resync traffic above the
// checkpoint validates against it through the ordinary IsValid recursion
// — even though its own ancestors are absent.
func (p *Pool) InstallCheckpoint(b *types.Block, nz *types.Notarization, fz *types.Finalization) {
	if b == nil || nz == nil {
		return
	}
	h := b.Hash()
	if _, ok := p.blocks[h]; !ok {
		p.blocks[h] = b
		p.byRound[b.Round] = append(p.byRound[b.Round], h)
	}
	p.notarization[h] = nz
	p.markReady(p.notarReady, b.Round, h)
	if fz != nil {
		p.finalization[h] = fz
		p.finalizableDirty[b.Round] = struct{}{}
		p.markReady(p.finalReady, b.Round, h)
	}
	p.validCache[h] = true
}

// Prune discards artifacts for rounds strictly below `before`, except
// the root. The paper keeps pools unbounded (§3.1) but notes a practical
// implementation would garbage-collect; long-running simulations need
// this.
func (p *Pool) Prune(before types.Round) {
	// Memoize the validity of every retained block while its ancestors
	// are still present; validity is monotone, so the cached result
	// remains correct after the ancestors are dropped.
	for k, hs := range p.byRound {
		if k < before {
			continue
		}
		for _, h := range hs {
			p.IsValid(h)
		}
	}
	for k, hs := range p.byRound {
		if k == 0 || k >= before {
			continue
		}
		for _, h := range hs {
			delete(p.blocks, h)
			delete(p.auths, h)
			delete(p.notarShares, h)
			delete(p.notarization, h)
			delete(p.finalShares, h)
			delete(p.finalization, h)
			delete(p.validCache, h)
		}
		delete(p.byRound, k)
	}
	for k := range p.finalizableDirty {
		if k < before {
			delete(p.finalizableDirty, k)
		}
	}
	for k := range p.notarReady {
		if k != 0 && k < before {
			delete(p.notarReady, k)
		}
	}
	for k := range p.finalReady {
		if k != 0 && k < before {
			delete(p.finalReady, k)
		}
	}
	for k := range p.nzInRound {
		if k != 0 && k < before {
			delete(p.nzInRound, k)
		}
	}
}
