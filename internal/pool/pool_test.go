package pool

import (
	"crypto/rand"
	"errors"
	"testing"

	"icc/internal/crypto"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/crypto/sig"
	"icc/internal/types"
)

// added adapts the (bool, error) admission result for tests that only
// care whether the artifact was stored.
func added(ok bool, _ error) bool { return ok }

type fixture struct {
	pub   *keys.Public
	privs []keys.Private
	pool  *Pool
}

func newFixture(t testing.TB, n int) *fixture {
	t.Helper()
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	return &fixture{pub: pub, privs: privs, pool: New(pub, 0, Options{})}
}

// block builds a round-k block by the given proposer on the given parent.
func (f *fixture) block(round types.Round, proposer types.PartyID, parent hash.Digest, payload string) *types.Block {
	return &types.Block{Round: round, Proposer: proposer, ParentHash: parent, Payload: []byte(payload)}
}

func (f *fixture) auth(b *types.Block) *types.Authenticator {
	msg := types.SigningBytes(b.Round, b.Proposer, b.Hash())
	return &types.Authenticator{
		Round: b.Round, Proposer: b.Proposer, BlockHash: b.Hash(),
		Sig: sig.Sign(f.privs[b.Proposer].Auth, types.DomainAuthenticator, msg),
	}
}

func (f *fixture) nshare(b *types.Block, signer types.PartyID) *types.NotarizationShare {
	msg := types.SigningBytes(b.Round, b.Proposer, b.Hash())
	s := f.privs[signer].Notary.Sign(types.DomainNotarization, msg)
	return &types.NotarizationShare{Round: b.Round, Proposer: b.Proposer, BlockHash: b.Hash(),
		Signer: signer, Sig: s.Signature}
}

func (f *fixture) fshare(b *types.Block, signer types.PartyID) *types.FinalizationShare {
	msg := types.SigningBytes(b.Round, b.Proposer, b.Hash())
	s := f.privs[signer].Final.Sign(types.DomainFinalization, msg)
	return &types.FinalizationShare{Round: b.Round, Proposer: b.Proposer, BlockHash: b.Hash(),
		Signer: signer, Sig: s.Signature}
}

func (f *fixture) notarization(t testing.TB, b *types.Block) *types.Notarization {
	t.Helper()
	agg, ok := f.pool.NotarAggregateIfReady(b.Hash())
	if !ok {
		t.Fatal("notarization shares not ready to combine")
	}
	return &types.Notarization{Round: b.Round, Proposer: b.Proposer, BlockHash: b.Hash(), Agg: agg.Encode()}
}

// notarize fully notarizes a block in the pool (adds block, auth, all
// shares, combined notarization).
func (f *fixture) notarize(t testing.TB, b *types.Block) {
	t.Helper()
	f.pool.AddBlock(b)
	f.pool.AddAuthenticator(f.auth(b))
	for i := 0; i < f.pub.N; i++ {
		f.pool.AddNotarizationShare(f.nshare(b, types.PartyID(i)))
	}
	if !added(f.pool.AddNotarization(f.notarization(t, b))) {
		t.Fatal("notarization rejected")
	}
}

func TestRootIsEverything(t *testing.T) {
	f := newFixture(t, 4)
	rh := f.pool.RootHash()
	if !f.pool.IsAuthentic(rh) || !f.pool.IsValid(rh) || !f.pool.IsNotarized(rh) || !f.pool.IsFinalized(rh) {
		t.Fatal("root must be authentic, valid, notarized, finalized")
	}
}

func TestValidityLadder(t *testing.T) {
	f := newFixture(t, 4)
	b := f.block(1, 2, f.pool.RootHash(), "payload")
	h := b.Hash()

	if f.pool.IsAuthentic(h) {
		t.Fatal("unknown block authentic")
	}
	f.pool.AddBlock(b)
	if f.pool.IsAuthentic(h) {
		t.Fatal("block without authenticator is authentic")
	}
	f.pool.AddAuthenticator(f.auth(b))
	if !f.pool.IsAuthentic(h) {
		t.Fatal("authenticated block not authentic")
	}
	if !f.pool.IsValid(h) {
		t.Fatal("round-1 block on root should be valid")
	}
	if f.pool.IsNotarized(h) {
		t.Fatal("block without notarization notarized")
	}
	// n−t = 3 shares needed.
	f.pool.AddNotarizationShare(f.nshare(b, 0))
	f.pool.AddNotarizationShare(f.nshare(b, 1))
	if f.pool.NotarShareCount(h) != 2 {
		t.Fatalf("share count %d, want 2", f.pool.NotarShareCount(h))
	}
	f.pool.AddNotarizationShare(f.nshare(b, 3))
	nz := f.notarization(t, b)
	if !added(f.pool.AddNotarization(nz)) {
		t.Fatal("valid notarization rejected")
	}
	if !f.pool.IsNotarized(h) {
		t.Fatal("notarized block not notarized")
	}
	got, ok := f.pool.NotarizedInRound(1)
	if !ok || got != h {
		t.Fatal("NotarizedInRound missed the block")
	}
}

func TestValidityRequiresNotarizedParent(t *testing.T) {
	f := newFixture(t, 4)
	b1 := f.block(1, 0, f.pool.RootHash(), "a")
	b2 := f.block(2, 1, b1.Hash(), "b")
	f.pool.AddBlock(b2)
	f.pool.AddAuthenticator(f.auth(b2))
	if f.pool.IsValid(b2.Hash()) {
		t.Fatal("block with unknown parent valid")
	}
	f.pool.AddBlock(b1)
	f.pool.AddAuthenticator(f.auth(b1))
	if f.pool.IsValid(b2.Hash()) {
		t.Fatal("block with non-notarized parent valid")
	}
	f.notarize(t, b1)
	if !f.pool.IsValid(b2.Hash()) {
		t.Fatal("block with notarized parent not valid")
	}
}

func TestValidityRejectsWrongParentRound(t *testing.T) {
	f := newFixture(t, 4)
	b1 := f.block(1, 0, f.pool.RootHash(), "a")
	f.notarize(t, b1)
	// A round-3 block pointing at a round-1 parent must not be valid.
	b3 := f.block(3, 1, b1.Hash(), "skip")
	f.pool.AddBlock(b3)
	f.pool.AddAuthenticator(f.auth(b3))
	if f.pool.IsValid(b3.Hash()) {
		t.Fatal("block skipping a round considered valid")
	}
}

func TestRejectsBadSignatures(t *testing.T) {
	f := newFixture(t, 4)
	b := f.block(1, 2, f.pool.RootHash(), "x")
	f.pool.AddBlock(b)
	// Authenticator signed by the wrong party.
	bad := f.auth(b)
	msg := types.SigningBytes(b.Round, b.Proposer, b.Hash())
	bad.Sig = sig.Sign(f.privs[1].Auth, types.DomainAuthenticator, msg)
	if _, err := f.pool.AddAuthenticator(bad); !errors.Is(err, crypto.ErrBadSignature) {
		t.Fatalf("wrong-signer authenticator: err = %v", err)
	}
	// Share with mismatched signer field.
	s := f.nshare(b, 0)
	s.Signer = 1
	if _, err := f.pool.AddNotarizationShare(s); !errors.Is(err, crypto.ErrBadShare) {
		t.Fatalf("share with stolen identity: err = %v", err)
	}
	// Out-of-range values.
	if _, err := f.pool.AddAuthenticator(&types.Authenticator{Round: 1, Proposer: 9}); err == nil {
		t.Fatal("out-of-range proposer accepted")
	}
	if _, err := f.pool.AddNotarizationShare(&types.NotarizationShare{Round: 1, Signer: -1}); err == nil {
		t.Fatal("negative signer accepted")
	}
	// Garbage aggregate.
	garbage := &types.Notarization{Round: 1, Proposer: 2, BlockHash: b.Hash(), Agg: []byte{1, 2}}
	if _, err := f.pool.AddNotarization(garbage); !errors.Is(err, crypto.ErrBadAggregate) {
		t.Fatalf("garbage notarization: err = %v", err)
	}
}

func TestAuthenticatorMustMatchBlockFields(t *testing.T) {
	f := newFixture(t, 4)
	b := f.block(1, 2, f.pool.RootHash(), "x")
	f.pool.AddBlock(b)
	// Party 2 signs an authenticator for the right hash but the wrong
	// round claim; IsAuthentic must stay false because the block's own
	// fields disagree. (The signature itself is over the claimed tuple.)
	msg := types.SigningBytes(5, 2, b.Hash())
	a := &types.Authenticator{Round: 5, Proposer: 2, BlockHash: b.Hash(),
		Sig: sig.Sign(f.privs[2].Auth, types.DomainAuthenticator, msg)}
	f.pool.AddAuthenticator(a)
	if f.pool.IsAuthentic(b.Hash()) {
		t.Fatal("mismatched authenticator made block authentic")
	}
}

func TestDuplicatesIgnored(t *testing.T) {
	f := newFixture(t, 4)
	b := f.block(1, 0, f.pool.RootHash(), "x")
	if !f.pool.AddBlock(b) || f.pool.AddBlock(b) {
		t.Fatal("duplicate block handling wrong")
	}
	a := f.auth(b)
	if !added(f.pool.AddAuthenticator(a)) || added(f.pool.AddAuthenticator(a)) {
		t.Fatal("duplicate authenticator handling wrong")
	}
	// A duplicate is a no-op, not a reject: no error either time.
	if _, err := f.pool.AddAuthenticator(a); err != nil {
		t.Fatalf("duplicate authenticator errored: %v", err)
	}
	s := f.nshare(b, 1)
	if !added(f.pool.AddNotarizationShare(s)) || added(f.pool.AddNotarizationShare(s)) {
		t.Fatal("duplicate share handling wrong")
	}
}

func TestFinalizationFlow(t *testing.T) {
	f := newFixture(t, 4)
	b := f.block(1, 0, f.pool.RootHash(), "x")
	f.notarize(t, b)
	for i := 0; i < 3; i++ {
		if !added(f.pool.AddFinalizationShare(f.fshare(b, types.PartyID(i)))) {
			t.Fatal("finalization share rejected")
		}
	}
	if f.pool.FinalShareCount(b.Hash()) != 3 {
		t.Fatal("final share count wrong")
	}
	agg, ok := f.pool.FinalAggregateIfReady(b.Hash())
	if !ok {
		t.Fatal("finalization shares not ready to combine")
	}
	fin := &types.Finalization{Round: 1, Proposer: 0, BlockHash: b.Hash(), Agg: agg.Encode()}
	if !added(f.pool.AddFinalization(fin)) {
		t.Fatal("finalization rejected")
	}
	if !f.pool.IsFinalized(b.Hash()) {
		t.Fatal("finalized block not finalized")
	}
	dirty := f.pool.DirtyFinalizableRounds()
	if len(dirty) != 1 || dirty[0] != 1 {
		t.Fatalf("dirty rounds = %v, want [1]", dirty)
	}
	if f.pool.DirtyFinalizableRounds() != nil {
		t.Fatal("dirty rounds not cleared")
	}
}

func TestChain(t *testing.T) {
	f := newFixture(t, 4)
	b1 := f.block(1, 0, f.pool.RootHash(), "a")
	f.notarize(t, b1)
	b2 := f.block(2, 1, b1.Hash(), "b")
	f.notarize(t, b2)
	b3 := f.block(3, 2, b2.Hash(), "c")
	f.notarize(t, b3)

	chain := f.pool.Chain(b3.Hash(), 0)
	if len(chain) != 3 || chain[0].Hash() != b1.Hash() || chain[2].Hash() != b3.Hash() {
		t.Fatalf("full chain wrong: %d blocks", len(chain))
	}
	chain = f.pool.Chain(b3.Hash(), 1)
	if len(chain) != 2 || chain[0].Hash() != b2.Hash() {
		t.Fatal("partial chain wrong")
	}
	if f.pool.Chain(b3.Hash(), 3) != nil && len(f.pool.Chain(b3.Hash(), 3)) != 0 {
		t.Fatal("empty chain wrong")
	}
	// Missing ancestor → nil.
	orphan := f.block(5, 0, hash.SumUint64(hash.DomainBlock, 77), "o")
	f.pool.AddBlock(orphan)
	if f.pool.Chain(orphan.Hash(), 0) != nil {
		t.Fatal("chain with missing ancestor should be nil")
	}
}

func TestPrune(t *testing.T) {
	f := newFixture(t, 4)
	b1 := f.block(1, 0, f.pool.RootHash(), "a")
	f.notarize(t, b1)
	b2 := f.block(2, 1, b1.Hash(), "b")
	f.notarize(t, b2)
	b3 := f.block(3, 2, b2.Hash(), "c")
	f.notarize(t, b3)

	f.pool.Prune(3)
	if f.pool.Block(b1.Hash()) != nil || f.pool.Block(b2.Hash()) != nil {
		t.Fatal("pruned blocks still present")
	}
	if f.pool.Block(b3.Hash()) == nil {
		t.Fatal("unpruned block missing")
	}
	// b3's validity was cached before the prune, so it survives.
	if !f.pool.IsNotarized(b3.Hash()) {
		t.Fatal("cached validity lost on prune")
	}
	// Root always survives.
	if !f.pool.IsFinalized(f.pool.RootHash()) {
		t.Fatal("root pruned")
	}
}

func TestVerifyPolicies(t *testing.T) {
	pub, _, err := keys.Deal(rand.Reader, 4)
	if err != nil {
		t.Fatal(err)
	}
	junkNz := func() *types.Notarization {
		return &types.Notarization{Round: 1, Proposer: 0, BlockHash: hash.SumUint64(hash.DomainBlock, 1), Agg: []byte{0}}
	}
	// Full rejects a cryptographically garbage aggregate.
	p := New(pub, 0, Options{Policy: VerifyFull})
	if _, err := p.AddNotarization(junkNz()); !errors.Is(err, crypto.ErrBadAggregate) {
		t.Fatalf("full-verify pool admitted garbage aggregate: err = %v", err)
	}
	// PreVerified admits it, and unsigned shares too, but still rejects
	// structurally malformed input.
	p = New(pub, 0, Options{Policy: VerifyPreVerified})
	if !added(p.AddNotarization(junkNz())) {
		t.Fatal("pre-verified pool rejected aggregate")
	}
	if !added(p.AddNotarizationShare(&types.NotarizationShare{Round: 1, Signer: 2})) {
		t.Fatal("pre-verified pool rejected unsigned share")
	}
	if _, err := p.AddNotarizationShare(&types.NotarizationShare{Round: 1, Signer: 9}); err == nil {
		t.Fatal("pre-verified pool admitted out-of-range signer")
	}
}

// stubVerifier counts calls and rejects everything, proving the pool
// consults an injected Verifier rather than its default.
type stubVerifier struct {
	calls int
	err   error
}

func (s *stubVerifier) Authenticator(*types.Authenticator) error         { s.calls++; return s.err }
func (s *stubVerifier) NotarizationShare(*types.NotarizationShare) error { s.calls++; return s.err }
func (s *stubVerifier) Notarization(*types.Notarization) error           { s.calls++; return s.err }
func (s *stubVerifier) FinalizationShare(*types.FinalizationShare) error { s.calls++; return s.err }
func (s *stubVerifier) Finalization(*types.Finalization) error           { s.calls++; return s.err }

func TestInjectedVerifier(t *testing.T) {
	f := newFixture(t, 4)
	sv := &stubVerifier{err: crypto.ErrBadSignature}
	p := New(f.pub, 0, Options{Verifier: sv})
	b := f.block(1, 2, f.pool.RootHash(), "x")
	p.AddBlock(b)
	if _, err := p.AddAuthenticator(f.auth(b)); !errors.Is(err, crypto.ErrBadSignature) {
		t.Fatalf("injected verifier not consulted: err = %v", err)
	}
	if sv.calls != 1 {
		t.Fatalf("verifier calls = %d, want 1", sv.calls)
	}
	// Duplicate suppression runs before the verifier: a second copy of an
	// admitted artifact must not hit the verifier again.
	sv.err = nil
	if !added(p.AddAuthenticator(f.auth(b))) {
		t.Fatal("authenticator rejected by permissive verifier")
	}
	calls := sv.calls
	if added(p.AddAuthenticator(f.auth(b))) {
		t.Fatal("duplicate authenticator admitted twice")
	}
	if sv.calls != calls {
		t.Fatal("duplicate authenticator re-verified")
	}
}

func TestShareRoundMismatchRejected(t *testing.T) {
	f := newFixture(t, 4)
	b := f.block(1, 0, f.pool.RootHash(), "x")
	f.pool.AddBlock(b)
	// A share signing (round 2) for this round-1 block: valid signature
	// over its own claim, but contradicting the block — rejected.
	s := f.nshare(b, 1)
	s.Round = 2
	msg := types.SigningBytes(2, b.Proposer, b.Hash())
	s.Sig = f.privs[1].Notary.Sign(types.DomainNotarization, msg).Signature
	if _, err := f.pool.AddNotarizationShare(s); !errors.Is(err, crypto.Mismatch) {
		t.Fatalf("round-mismatched notarization share: err = %v", err)
	}
	fs := f.fshare(b, 1)
	fs.Round = 2
	fs.Sig = f.privs[1].Final.Sign(types.DomainFinalization, msg).Signature
	if _, err := f.pool.AddFinalizationShare(fs); !errors.Is(err, crypto.Mismatch) {
		t.Fatalf("round-mismatched finalization share: err = %v", err)
	}
}

func TestEquivocatingSharesStayContainedPerBlock(t *testing.T) {
	// A Byzantine party that signs notarization shares for two distinct
	// blocks of the same (round, proposer) — the share-layer face of an
	// equivocating proposer. The pool must keep the conflict contained:
	// each share counts only toward the block hash it names, so neither
	// fork can borrow the other's signers to reach quorum.
	f := newFixture(t, 4)
	a := f.block(1, 0, f.pool.RootHash(), "original")
	b := f.block(1, 0, f.pool.RootHash(), "twin")
	f.pool.AddBlock(a)
	f.pool.AddBlock(b)

	// Party 0 (the equivocator) signs both forks; both are internally
	// valid shares and both are admitted — under their own hashes.
	if !added(f.pool.AddNotarizationShare(f.nshare(a, 0))) {
		t.Fatal("share on fork A rejected")
	}
	if !added(f.pool.AddNotarizationShare(f.nshare(b, 0))) {
		t.Fatal("share on fork B rejected")
	}
	if got := f.pool.NotarShareCount(a.Hash()); got != 1 {
		t.Fatalf("fork A share count = %d, want 1", got)
	}
	if got := f.pool.NotarShareCount(b.Hash()); got != 1 {
		t.Fatalf("fork B share count = %d, want 1", got)
	}

	// Honest signers 1 and 2 only vote for fork A. Fork A reaches the
	// n−t = 3 quorum; fork B stays at the equivocator's lone share.
	f.pool.AddNotarizationShare(f.nshare(a, 1))
	f.pool.AddNotarizationShare(f.nshare(a, 2))
	if _, ok := f.pool.NotarAggregateIfReady(a.Hash()); !ok {
		t.Fatal("fork A should combine with 3 shares")
	}
	if _, ok := f.pool.NotarAggregateIfReady(b.Hash()); ok {
		t.Fatal("fork B combined from 1 share: conflicting shares leaked across hashes")
	}
	// And a cross-fork replay — fork A's share bytes relabelled with fork
	// B's hash — fails signature verification.
	forged := f.nshare(a, 1)
	forged.BlockHash = b.Hash()
	if ok, err := f.pool.AddNotarizationShare(forged); ok || err == nil {
		t.Fatalf("relabelled share admitted (ok=%v err=%v)", ok, err)
	}
}

func TestReadyIndices(t *testing.T) {
	f := newFixture(t, 4) // threshold n−t = 3
	b := f.block(1, 0, f.pool.RootHash(), "x")
	f.pool.AddBlock(b)
	f.pool.AddAuthenticator(f.auth(b))
	h := b.Hash()

	// Below threshold: no candidates, no aggregate.
	for i := 0; i < 2; i++ {
		f.pool.AddNotarizationShare(f.nshare(b, types.PartyID(i)))
	}
	if got := f.pool.NotarReadyBlocks(1); len(got) != 0 {
		t.Fatalf("notar-ready below threshold: %v", got)
	}
	if _, ok := f.pool.NotarAggregateIfReady(h); ok {
		t.Fatal("aggregate produced below threshold")
	}

	// Crossing the threshold registers the block exactly once.
	f.pool.AddNotarizationShare(f.nshare(b, 2))
	f.pool.AddNotarizationShare(f.nshare(b, 3))
	if got := f.pool.NotarReadyBlocks(1); len(got) != 1 || got[0] != h {
		t.Fatalf("notar-ready = %v, want [%x]", got, h[:4])
	}
	agg, ok := f.pool.NotarAggregateIfReady(h)
	if !ok {
		t.Fatal("aggregate not ready at threshold")
	}
	msg := types.SigningBytes(1, 0, h)
	if err := f.pub.Notary.Verify(types.DomainNotarization, msg, agg); err != nil {
		t.Fatalf("pool-combined aggregate does not verify: %v", err)
	}

	// Finalization candidates appear both via the share threshold and via
	// a combined certificate — still deduplicated.
	for i := 0; i < 3; i++ {
		f.pool.AddFinalizationShare(f.fshare(b, types.PartyID(i)))
	}
	fagg, ok := f.pool.FinalAggregateIfReady(h)
	if !ok {
		t.Fatal("final aggregate not ready at threshold")
	}
	fin := &types.Finalization{Round: 1, Proposer: 0, BlockHash: h, Agg: fagg.Encode()}
	if !added(f.pool.AddFinalization(fin)) {
		t.Fatal("finalization rejected")
	}
	if got := f.pool.FinalCandidateBlocks(1); len(got) != 1 || got[0] != h {
		t.Fatalf("final candidates = %v, want exactly [%x]", got, h[:4])
	}
}

func TestForEachShareMessageOrder(t *testing.T) {
	f := newFixture(t, 4)
	b := f.block(1, 0, f.pool.RootHash(), "x")
	f.pool.AddBlock(b)
	h := b.Hash()
	// Insert out of signer order; iteration must be signer-ascending
	// (resync bundles depend on deterministic bytes).
	for _, signer := range []types.PartyID{3, 1, 2} {
		f.pool.AddNotarizationShare(f.nshare(b, signer))
		f.pool.AddFinalizationShare(f.fshare(b, signer))
	}
	var norder, forder []types.PartyID
	f.pool.ForEachNotarShareMessage(h, func(s *types.NotarizationShare) {
		norder = append(norder, s.Signer)
	})
	f.pool.ForEachFinalShareMessage(h, func(s *types.FinalizationShare) {
		forder = append(forder, s.Signer)
	})
	want := []types.PartyID{1, 2, 3}
	for i := range want {
		if norder[i] != want[i] || forder[i] != want[i] {
			t.Fatalf("iteration order notar=%v final=%v, want %v", norder, forder, want)
		}
	}
}

func TestPruneClearsIndices(t *testing.T) {
	f := newFixture(t, 4)
	b1 := f.block(1, 0, f.pool.RootHash(), "a")
	f.notarize(t, b1)
	if _, ok := f.pool.NotarizedInRound(1); !ok {
		t.Fatal("round 1 not notarized")
	}
	b2 := f.block(2, 1, b1.Hash(), "b")
	f.notarize(t, b2)
	f.pool.Prune(2)
	if got := f.pool.NotarReadyBlocks(1); got != nil {
		t.Fatalf("pruned round still notar-ready: %v", got)
	}
	if _, ok := f.pool.NotarizedInRound(1); ok {
		t.Fatal("pruned round still memoized as notarized")
	}
	// Retained round keeps its index; round 0 (root) survives any cut.
	if got := f.pool.NotarReadyBlocks(2); len(got) != 1 {
		t.Fatalf("retained round lost its candidate list: %v", got)
	}
	if _, ok := f.pool.NotarizedInRound(0); !ok {
		t.Fatal("root round lost notarization")
	}
}
