package core

// Conformance tests: each clause of the Tree-Building Subprotocol
// (Fig. 1) and the Finalization Subprotocol (Fig. 2) exercised in
// isolation against a single engine fed hand-crafted, properly signed
// artifacts.

import (
	"crypto/rand"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/keys"
	"icc/internal/crypto/sig"
	"icc/internal/engine"
	"icc/internal/types"
)

// choreography fabricates valid artifacts on behalf of any party and
// drives one engine under test.
type choreography struct {
	t     *testing.T
	n     int
	pub   *keys.Public
	privs []keys.Private
	// A reference beacon per party to mint genuine beacon shares.
	beacons []*beacon.Beacon
	eng     *Engine
	outs    []engine.Output
	// perm[rank] = party for round 1.
	perm []types.PartyID
}

func newChoreography(t *testing.T, n int, underTestRank int, deltaBound time.Duration) *choreography {
	return newChoreographyWith(t, n, underTestRank, deltaBound, nil)
}

// newChoreographyWith lets a test set further fields of the engine's
// config (payload source, hooks, limits) before the engine is built.
func newChoreographyWith(t *testing.T, n int, underTestRank int, deltaBound time.Duration, conf func(*Config)) *choreography {
	t.Helper()
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	c := &choreography{t: t, n: n, pub: pub, privs: privs}
	for i := 0; i < n; i++ {
		c.beacons = append(c.beacons, beacon.New(pub.Beacon, privs[i].Beacon, types.PartyID(i), pub.GenesisSeed))
	}
	// Reveal round 1 on a reference beacon to learn the permutation.
	ref := c.beacons[0]
	for i := 0; i < n; i++ {
		s, err := c.beacons[i].ShareForRound(1)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := ref.AddShare(s); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := ref.Reveal(1); !ok {
		t.Fatal("reveal failed")
	}
	perm, _ := ref.Permutation(1)
	c.perm = perm

	// Build the engine for the party of the requested rank.
	self := perm[underTestRank]
	cfg := Config{
		Self:       self,
		Keys:       pub,
		Priv:       privs[self],
		DeltaBound: deltaBound,
	}
	if conf != nil {
		conf(&cfg)
	}
	c.eng = NewEngine(cfg)
	return c
}

// start runs Init and feeds the engine every round-1 beacon share so it
// enters round 1 at time 0.
func (c *choreography) start() {
	c.outs = append(c.outs, c.eng.Init(0)...)
	c.enterRound1()
}

// enterRound1 is the second half of start, for tests that have something
// to deliver between Init and the round.
func (c *choreography) enterRound1() {
	for i := 0; i < c.n; i++ {
		pid := types.PartyID(i)
		if pid == c.eng.ID() {
			continue
		}
		s, err := c.beacons[i].ShareForRound(1)
		if err != nil {
			c.t.Fatal(err)
		}
		c.outs = append(c.outs, c.eng.HandleMessage(pid, s, 0)...)
	}
}

// deliver feeds a message at a given time.
func (c *choreography) deliver(from types.PartyID, m types.Message, now time.Duration) {
	c.outs = append(c.outs, c.eng.HandleMessage(from, m, now)...)
}

// tick advances time.
func (c *choreography) tick(now time.Duration) {
	c.outs = append(c.outs, c.eng.Tick(now)...)
}

// block crafts a signed round-1 block bundle by the party of the given
// rank.
func (c *choreography) block(rank int, payload string) (*types.Block, *types.Bundle) {
	proposer := c.perm[rank]
	b := &types.Block{Round: 1, Proposer: proposer, ParentHash: c.eng.Pool().RootHash(), Payload: []byte(payload)}
	auth := &types.Authenticator{
		Round: 1, Proposer: proposer, BlockHash: b.Hash(),
		Sig: sig.Sign(c.privs[proposer].Auth, types.DomainAuthenticator,
			types.SigningBytes(1, proposer, b.Hash())),
	}
	return b, &types.Bundle{Messages: []types.Message{&types.BlockMsg{Block: b}, auth}}
}

// nshare crafts a notarization share by `signer` on block b.
func (c *choreography) nshare(b *types.Block, signer types.PartyID) *types.NotarizationShare {
	msg := types.SigningBytes(b.Round, b.Proposer, b.Hash())
	return &types.NotarizationShare{
		Round: b.Round, Proposer: b.Proposer, BlockHash: b.Hash(), Signer: signer,
		Sig: c.privs[signer].Notary.Sign(types.DomainNotarization, msg).Signature,
	}
}

// fshare crafts a finalization share.
func (c *choreography) fshare(b *types.Block, signer types.PartyID) *types.FinalizationShare {
	msg := types.SigningBytes(b.Round, b.Proposer, b.Hash())
	return &types.FinalizationShare{
		Round: b.Round, Proposer: b.Proposer, BlockHash: b.Hash(), Signer: signer,
		Sig: c.privs[signer].Final.Sign(types.DomainFinalization, msg).Signature,
	}
}

// sharesOf extracts the engine's own notarization shares from outputs.
func (c *choreography) sharesOf() []*types.NotarizationShare {
	var out []*types.NotarizationShare
	for _, o := range c.outs {
		if s, ok := o.Msg.(*types.NotarizationShare); ok && s.Signer == c.eng.ID() {
			out = append(out, s)
		}
	}
	return out
}

// proposals counts the engine's own block proposals so far.
func (c *choreography) proposals() int {
	count := 0
	for _, o := range c.outs {
		if b, ok := o.Msg.(*types.Bundle); ok {
			if bm, ok := b.Messages[0].(*types.BlockMsg); ok && bm.Block.Proposer == c.eng.ID() {
				count++
			}
		}
	}
	return count
}

// TestClauseBLeaderProposesImmediately: Δprop(0) = 0, so the rank-0
// engine proposes the moment it enters the round, extending the root.
func TestClauseBLeaderProposesImmediately(t *testing.T) {
	c := newChoreography(t, 4, 0, 100*time.Millisecond)
	c.start()
	var proposals []*types.Block
	for _, o := range c.outs {
		if bun, ok := o.Msg.(*types.Bundle); ok {
			if bm, ok := bun.Messages[0].(*types.BlockMsg); ok && bm.Block.Proposer == c.eng.ID() {
				proposals = append(proposals, bm.Block)
			}
		}
	}
	if len(proposals) != 1 {
		t.Fatalf("leader emitted %d proposals at t=0, want 1", len(proposals))
	}
	if proposals[0].ParentHash != c.eng.Pool().RootHash() {
		t.Fatal("round-1 proposal does not extend root")
	}
	// Beacon pipelining: a round-2 beacon share must also have gone out.
	foundShare := false
	for _, o := range c.outs {
		if s, ok := o.Msg.(*types.BeaconShare); ok && s.Round == 2 {
			foundShare = true
		}
	}
	if !foundShare {
		t.Fatal("no round-2 beacon share broadcast on entering round 1 (pipelining)")
	}
}

// TestClauseBRankedProposerWaits: a rank-1 engine must not propose
// before Δprop(1) = 2·Δbnd, and must propose at/after it.
func TestClauseBRankedProposerWaits(t *testing.T) {
	const bound = 100 * time.Millisecond
	c := newChoreography(t, 4, 1, bound)
	c.start()
	c.tick(2*bound - time.Millisecond)
	if c.proposals() != 0 {
		t.Fatal("rank-1 party proposed before Δprop(1)")
	}
	c.tick(2 * bound)
	if c.proposals() != 1 {
		t.Fatal("rank-1 party did not propose at Δprop(1)")
	}
}

// TestClauseCNotarizesLeaderBlockImmediately: Δntry(0) = 0 (ε = 0), so a
// valid rank-0 block gets a notarization share as soon as it arrives.
func TestClauseCNotarizesLeaderBlockImmediately(t *testing.T) {
	c := newChoreography(t, 4, 1, 100*time.Millisecond)
	c.start()
	b0, bundle := c.block(0, "leader block")
	c.deliver(b0.Proposer, bundle, 10*time.Millisecond)
	shares := c.sharesOf()
	if len(shares) != 1 || shares[0].BlockHash != b0.Hash() {
		t.Fatalf("leader block not notarization-shared on arrival (%d shares)", len(shares))
	}
}

// TestClauseCDelaysHigherRanks: a rank-2 block arriving early must wait
// until Δntry(2); and once a lower-rank valid block exists, the
// higher-rank one is never shared (priority rule [r] \ D).
func TestClauseCDelaysHigherRanks(t *testing.T) {
	const bound = 50 * time.Millisecond
	c := newChoreography(t, 4, 0, bound)
	// NOTE: rank-0 engine under test would propose its own block; use a
	// variant where the engine is rank 3 so ranks 1,2 are foreign.
	c = newChoreography(t, 4, 3, bound)
	c.start()
	b2, bundle2 := c.block(2, "rank2")
	c.deliver(b2.Proposer, bundle2, 5*time.Millisecond)
	if len(c.sharesOf()) != 0 {
		t.Fatal("rank-2 block shared before Δntry(2)")
	}
	// At Δntry(2) = 4·Δbnd it is shared (no better block around).
	c.tick(4 * bound)
	shares := c.sharesOf()
	if len(shares) != 1 || shares[0].BlockHash != b2.Hash() {
		t.Fatal("rank-2 block not shared at Δntry(2)")
	}
	// Now a rank-1 block arrives late: it is lower-ranked and not
	// disqualified, so it too gets shared (it is better than rank 2 and
	// its own Δntry already passed).
	b1, bundle1 := c.block(1, "rank1")
	c.deliver(b1.Proposer, bundle1, 4*bound+time.Millisecond)
	shares = c.sharesOf()
	if len(shares) != 2 {
		t.Fatalf("late rank-1 block handling: %d shares", len(shares))
	}
}

// TestClauseCPriorityBlocksHigherRank: when the rank-1 block is already
// present (valid, not disqualified), a rank-2 block must never be
// shared even after its Δntry.
func TestClauseCPriorityBlocksHigherRank(t *testing.T) {
	const bound = 50 * time.Millisecond
	c := newChoreography(t, 4, 3, bound)
	c.start()
	b1, bundle1 := c.block(1, "rank1")
	b2, bundle2 := c.block(2, "rank2")
	c.deliver(b1.Proposer, bundle1, time.Millisecond)
	c.deliver(b2.Proposer, bundle2, 2*time.Millisecond)
	c.tick(10 * bound) // far past every Δntry
	for _, s := range c.sharesOf() {
		if s.BlockHash == b2.Hash() {
			t.Fatal("rank-2 block shared despite a valid rank-1 block (priority violated)")
		}
	}
	shares := c.sharesOf()
	if len(shares) != 1 || shares[0].BlockHash != b1.Hash() {
		t.Fatal("rank-1 block not shared")
	}
}

// TestNextWakeKeepsPassedBoundariesDue: a Δprop or Δntry boundary that
// passed without a tick — the caller re-asked after a message the engine
// never saw — is reported as due now until its clause has run, while a
// block that a lower-ranked one blocks asks for no wake at all.
func TestNextWakeKeepsPassedBoundariesDue(t *testing.T) {
	const bound, epsilon = 50 * time.Millisecond, 50 * time.Millisecond
	prop, ntry := types.StandardDelays(bound, epsilon)
	leader := newChoreographyWith(t, 4, 0, bound, func(cfg *Config) {
		cfg.Epsilon = epsilon
	})
	leader.start()
	if at, ok := leader.eng.NextWake(10 * time.Millisecond); !ok || at != prop(0) {
		t.Fatalf("next wake %v (%v), want Δprop(0) = %v", at, ok, prop(0))
	}
	late := prop(0) + 5*time.Millisecond
	if at, ok := leader.eng.NextWake(late); !ok || at != late+1 {
		t.Fatalf("next wake %v (%v) with Δprop(0) passed and nothing proposed, want %v", at, ok, late+1)
	}
	leader.tick(late + 1)
	if at, ok := leader.eng.NextWake(late + 2); !ok || at != ntry(0) {
		t.Fatalf("next wake %v (%v) after proposing, want Δntry(0) = %v for the own block", at, ok, ntry(0))
	}

	c := newChoreographyWith(t, 4, 3, bound, nil)
	c.start()
	b1, bundle1 := c.block(1, "rank1")
	b2, bundle2 := c.block(2, "rank2")
	c.deliver(b1.Proposer, bundle1, time.Millisecond)
	c.deliver(b2.Proposer, bundle2, 2*time.Millisecond)
	if at, ok := c.eng.NextWake(3 * bound); !ok || at != 3*bound+1 {
		t.Fatalf("next wake %v (%v) with Δntry(1) passed and the rank-1 block unshared, want %v", at, ok, 3*bound+1)
	}
	c.tick(3*bound + 1)
	if len(c.sharesOf()) != 1 {
		t.Fatal("rank-1 block not shared once ticked")
	}
	// Δntry(2) has passed too, but the rank-2 block is blocked: the next
	// wake is this party's own Δprop(3).
	if at, ok := c.eng.NextWake(5 * bound); !ok || at != 6*bound {
		t.Fatalf("next wake %v (%v) with only a blocked block pending, want Δprop(3) = %v", at, ok, 6*bound)
	}
}

// TestShareReportsHowLateItsBlockCame: OnNotarizationShare carries 0 for
// a share the Δntry timer held back, and the time past Δntry(r) for a
// block that arrived after it.
func TestShareReportsHowLateItsBlockCame(t *testing.T) {
	const bound = 50 * time.Millisecond
	var late []time.Duration
	c := newChoreographyWith(t, 4, 3, bound, func(cfg *Config) {
		cfg.Hooks.OnNotarizationShare = func(_ types.Round, l, _ time.Duration) { late = append(late, l) }
	})
	c.start()
	_, bundle1 := c.block(1, "rank1")
	c.deliver(c.perm[1], bundle1, time.Millisecond)
	c.tick(2 * bound) // Δntry(1)
	_, bundle0 := c.block(0, "rank0")
	c.deliver(c.perm[0], bundle0, 2*bound+7*time.Millisecond) // Δntry(0) = 0
	if len(late) != 2 || late[0] != 0 || late[1] != 2*bound+7*time.Millisecond {
		t.Fatalf("shares reported late by %v, want [0s %v]", late, 2*bound+7*time.Millisecond)
	}
}

// TestClauseCEquivocationDisqualifies: two distinct blocks of the same
// rank ⇒ the first is shared, the second is echoed but NOT shared, and
// afterwards even a third block of that rank is ignored.
func TestClauseCEquivocationDisqualifies(t *testing.T) {
	const bound = 50 * time.Millisecond
	c := newChoreography(t, 4, 3, bound)
	c.start()
	b1a, bundleA := c.block(1, "first")
	b1b, bundleB := c.block(1, "second")
	c.deliver(b1a.Proposer, bundleA, time.Millisecond)
	c.tick(2 * bound) // Δntry(1)
	c.deliver(b1b.Proposer, bundleB, 2*bound+time.Millisecond)
	shares := c.sharesOf()
	if len(shares) != 1 || shares[0].BlockHash != b1a.Hash() {
		t.Fatalf("equivocation: %d shares", len(shares))
	}
	// The second block must have been echoed (so others can also
	// disqualify the rank).
	echoed := false
	for _, o := range c.outs {
		if bun, ok := o.Msg.(*types.Bundle); ok {
			if bm, ok := bun.Messages[0].(*types.BlockMsg); ok && bm.Block.Hash() == b1b.Hash() {
				echoed = true
			}
		}
	}
	if !echoed {
		t.Fatal("second equivocating block not echoed")
	}
	// After disqualification, the rank is dead: a rank-2 block can now
	// be shared (the disqualified rank no longer blocks it).
	b2, bundle2 := c.block(2, "rank2 after disqualification")
	c.deliver(b2.Proposer, bundle2, 4*bound+time.Millisecond)
	found := false
	for _, s := range c.sharesOf() {
		if s.BlockHash == b2.Hash() {
			found = true
		}
	}
	if !found {
		t.Fatal("rank-2 block blocked by a disqualified rank")
	}
}

// TestClauseAFinishAndFinalizationShare: a full set of n−t notarization
// shares for the only block in N ⇒ the engine combines and broadcasts a
// notarization AND a finalization share, then moves to round 2.
func TestClauseAFinishAndFinalizationShare(t *testing.T) {
	c := newChoreography(t, 4, 1, 100*time.Millisecond)
	c.start()
	b0, bundle := c.block(0, "leader block")
	c.deliver(b0.Proposer, bundle, time.Millisecond) // engine shares it (N = {b0})
	// Two more shares (engine's own + 2 = 3 = n−t).
	c.deliver(c.perm[0], c.nshare(b0, c.perm[0]), 2*time.Millisecond)
	c.deliver(c.perm[2], c.nshare(b0, c.perm[2]), 3*time.Millisecond)

	var sawNotarization, sawFinalShare bool
	for _, o := range c.outs {
		switch m := o.Msg.(type) {
		case *types.Notarization:
			if m.BlockHash == b0.Hash() {
				sawNotarization = true
			}
		case *types.FinalizationShare:
			if m.BlockHash == b0.Hash() && m.Signer == c.eng.ID() {
				sawFinalShare = true
			}
		}
	}
	if !sawNotarization {
		t.Fatal("no notarization broadcast on finishing the round")
	}
	if !sawFinalShare {
		t.Fatal("no finalization share despite N ⊆ {B}")
	}
	if c.eng.CurrentRound() != 2 {
		t.Fatalf("engine in round %d after finishing round 1", c.eng.CurrentRound())
	}
}

// TestClauseANoFinalizationShareWhenMixed: if the engine shared two
// different blocks (N ⊄ {B}), finishing the round must NOT produce a
// finalization share.
func TestClauseANoFinalizationShareWhenMixed(t *testing.T) {
	const bound = 50 * time.Millisecond
	c := newChoreography(t, 4, 3, bound)
	c.start()
	// Rank-2 block arrives alone and gets shared at Δntry(2)...
	b2, bundle2 := c.block(2, "rank2")
	c.deliver(b2.Proposer, bundle2, time.Millisecond)
	c.tick(4 * bound)
	// ...then the rank-1 block shows up and gets shared too (mixed N).
	b1, bundle1 := c.block(1, "rank1")
	c.deliver(b1.Proposer, bundle1, 4*bound+time.Millisecond)
	if len(c.sharesOf()) != 2 {
		t.Fatalf("setup failed: %d shares", len(c.sharesOf()))
	}
	// Now b1 reaches quorum.
	c.deliver(c.perm[0], c.nshare(b1, c.perm[0]), 4*bound+2*time.Millisecond)
	c.deliver(c.perm[1], c.nshare(b1, c.perm[1]), 4*bound+3*time.Millisecond)
	for _, o := range c.outs {
		if fs, ok := o.Msg.(*types.FinalizationShare); ok && fs.Signer == c.eng.ID() {
			t.Fatal("finalization share sent despite N ⊄ {B}")
		}
	}
	if c.eng.CurrentRound() != 2 {
		t.Fatal("round did not finish")
	}
}

// TestFinalizationSubprotocolOutputsChain: Fig. 2 — a full set of
// finalization shares makes the engine broadcast a finalization and
// commit the chain.
func TestFinalizationSubprotocolOutputsChain(t *testing.T) {
	committed := []*types.Block{}
	c := newChoreography(t, 4, 1, 100*time.Millisecond)
	c.eng.cfg.Hooks.OnCommit = func(b *types.Block, _ time.Duration) {
		committed = append(committed, b)
	}
	c.start()
	b0, bundle := c.block(0, "to finalize")
	c.deliver(b0.Proposer, bundle, time.Millisecond)
	c.deliver(c.perm[0], c.nshare(b0, c.perm[0]), 2*time.Millisecond)
	c.deliver(c.perm[2], c.nshare(b0, c.perm[2]), 3*time.Millisecond)
	// The engine produced its own finalization share; two more complete
	// the quorum.
	c.deliver(c.perm[0], c.fshare(b0, c.perm[0]), 4*time.Millisecond)
	c.deliver(c.perm[2], c.fshare(b0, c.perm[2]), 5*time.Millisecond)

	if len(committed) != 1 || committed[0].Hash() != b0.Hash() {
		t.Fatalf("committed %d blocks", len(committed))
	}
	var sawFinalization bool
	for _, o := range c.outs {
		if f, ok := o.Msg.(*types.Finalization); ok && f.BlockHash == b0.Hash() {
			sawFinalization = true
		}
	}
	if !sawFinalization {
		t.Fatal("no finalization broadcast")
	}
	if c.eng.FinalizedRound() != 1 {
		t.Fatalf("kmax = %d", c.eng.FinalizedRound())
	}
	// Duplicate shares change nothing.
	before := len(committed)
	c.deliver(c.perm[0], c.fshare(b0, c.perm[0]), 6*time.Millisecond)
	if len(committed) != before {
		t.Fatal("double commit")
	}
}

// TestIgnoresForgedArtifacts: artifacts signed with the wrong keys are
// dropped at the pool and never influence the engine.
func TestIgnoresForgedArtifacts(t *testing.T) {
	c := newChoreography(t, 4, 1, 100*time.Millisecond)
	c.start()
	b0, _ := c.block(0, "real block")
	// Authenticator signed by the wrong party.
	forged := &types.Authenticator{
		Round: 1, Proposer: b0.Proposer, BlockHash: b0.Hash(),
		Sig: sig.Sign(c.privs[c.perm[3]].Auth, types.DomainAuthenticator,
			types.SigningBytes(1, b0.Proposer, b0.Hash())),
	}
	c.deliver(c.perm[3], &types.Bundle{Messages: []types.Message{&types.BlockMsg{Block: b0}, forged}}, time.Millisecond)
	c.tick(time.Second) // the engine will propose and share its OWN block
	for _, s := range c.sharesOf() {
		if s.BlockHash == b0.Hash() {
			t.Fatal("engine shared a block with a forged authenticator")
		}
	}
	// Forged notarization share: wrong signer key.
	realBundle := &types.Bundle{Messages: []types.Message{&types.BlockMsg{Block: b0}}}
	_ = realBundle
	bad := c.nshare(b0, c.perm[0])
	bad.Signer = c.perm[2] // claims to be someone else
	c.deliver(c.perm[2], bad, 2*time.Millisecond)
	if c.eng.Pool().NotarShareCount(b0.Hash()) != 0 {
		t.Fatal("forged notarization share admitted")
	}
}
