package core

// Tests for the leader's measured cut (cut.go): lag samples taken from
// the other parties' rank-0 blocks, the quorum-rank margin, the fallback
// while a party has no sample, ε = 0, the adaptive multiplier, and the
// window in which forwards still go to the leader.

import (
	"testing"
	"time"

	"icc/internal/types"
)

const (
	cutBound   = 100 * time.Millisecond
	cutEpsilon = 50 * time.Millisecond
	// cutRoundLen spaces the driven rounds: each finishes at
	// Δntry(0) + 1 ms, well inside it.
	cutRoundLen = 100 * time.Millisecond
)

// lagDriver runs a choreography's engine through successive rounds, one
// every cutRoundLen: every other party's beacon share of round k arrives
// at the round's base, another party's rank-0 block at an offset the test
// chooses, and with the engine's own share at Δntry(0) two more shares
// notarize the block.
type lagDriver struct {
	c      *choreography
	k      types.Round
	base   time.Duration
	parent *types.Block // the notarized block of round k−1
}

func newLagDriver(c *choreography) *lagDriver {
	c.start()
	for p := range c.beacons {
		c.revealRound(types.PartyID(p), 1)
	}
	return &lagDriver{c: c, k: 1, parent: c.eng.Pool().Block(c.eng.Pool().RootHash())}
}

// leader is round k's rank-0 party.
func (d *lagDriver) leader() types.PartyID {
	perm, ok := d.c.beacons[0].Permutation(d.k)
	if !ok {
		d.c.t.Fatalf("round %d unknown to the reference beacon", d.k)
	}
	return perm[0]
}

// block is round k's block of proposer, cut at cut.
func (d *lagDriver) block(proposer types.PartyID, cut time.Duration) *types.Block {
	return &types.Block{Round: d.k, Proposer: proposer, ParentHash: d.parent.Hash(), Payload: []byte("b"), Cut: cut}
}

// finish notarizes b at the engine and moves on to round k+1, whose
// beacon shares (next) reveal it at the new base. Rounds 2 on are
// entered here.
func (d *lagDriver) finish(b *types.Block) {
	c := d.c
	ntry := c.eng.dntry(0)
	c.tick(d.base + ntry)
	signed := 0
	for p := 0; p < c.n && signed < c.n-types.MaxFaults(c.n)-1; p++ {
		if pid := types.PartyID(p); pid != c.eng.ID() {
			c.deliver(pid, c.nshare(b, pid), d.base+ntry+time.Millisecond)
			signed++
		}
	}
	if c.eng.CurrentRound() != d.k+1 {
		c.t.Fatalf("round %d did not finish on its rank-0 block", d.k)
	}
	d.parent, d.k, d.base = b, d.k+1, d.base+cutRoundLen
}

// enter delivers every other party's beacon share of round k at base.
func (d *lagDriver) enter() {
	c := d.c
	for p := range c.beacons {
		c.revealRound(types.PartyID(p), d.k)
	}
	for p, b := range c.beacons {
		if pid := types.PartyID(p); pid != c.eng.ID() {
			s, err := b.ShareForRound(d.k)
			if err != nil {
				c.t.Fatal(err)
			}
			c.deliver(pid, s, d.base)
		}
	}
	if c.eng.CurrentRound() != d.k || !c.eng.inRound {
		c.t.Fatalf("engine did not enter round %d", d.k)
	}
}

// untilLeading drives rounds led by other parties, each block cut at
// cuts[leader] and valid here lags[leader] after that into the round,
// until the engine leads and every other party has led once since the
// start; it returns at the base of that round. A party missing from lags
// never leads in time and fails the test.
func (d *lagDriver) untilLeading(cut time.Duration, lags map[types.PartyID]time.Duration) {
	c := d.c
	led := make(map[types.PartyID]bool)
	for try := 0; try < 200; try++ {
		if d.k > 1 {
			d.enter()
		}
		l := d.leader()
		if l == c.eng.ID() {
			if len(led) == len(lags) {
				return
			}
			d.ownRound()
			continue
		}
		lag, ok := lags[l]
		if !ok {
			c.t.Fatalf("no lag chosen for party %d", l)
		}
		led[l] = true
		b := d.block(l, cut)
		c.deliver(l, c.bundleOf(b), d.base+cut+lag)
		d.finish(b)
	}
	c.t.Fatal("the engine never led a round after every other party had")
}

// ownRound finishes a round the engine leads on its own block, which
// samples nothing.
func (d *lagDriver) ownRound() {
	d.c.tick(d.base + d.c.eng.dntry(0))
	b := d.c.ownBlock(d.k)
	if b == nil {
		d.c.t.Fatalf("the engine did not propose in round %d, which it leads", d.k)
	}
	d.finish(b)
}

func cutChoreography(t *testing.T, epsilon time.Duration, samples *[]time.Duration) *choreography {
	return newChoreographyWith(t, 4, 1, cutBound, func(cfg *Config) {
		cfg.Epsilon = epsilon
		cfg.Hooks.OnBlockLag = func(_ types.Round, _ types.PartyID, lag, _ time.Duration) {
			if samples != nil {
				*samples = append(*samples, lag)
			}
		}
	})
}

// TestCutWithoutSamplesIsThreeQuarters: a fresh leader has no sample, and
// every slot holds the standard margin ε/4: it cuts at 3ε/4, where
// types.StandardDelays puts Δprop(0).
func TestCutWithoutSamplesIsThreeQuarters(t *testing.T) {
	c := newChoreographyWith(t, 4, 0, cutBound, func(cfg *Config) { cfg.Epsilon = cutEpsilon })
	c.start()
	prop, _ := types.StandardDelays(cutBound, cutEpsilon)
	if at, ok := c.eng.NextWake(0); !ok || at != prop(0) || at != 3*cutEpsilon/4 {
		t.Fatalf("next wake %v (%v), want 3ε/4 = %v", at, ok, prop(0))
	}
	for p, lag := range c.eng.Lags() {
		if types.PartyID(p) != c.eng.ID() && lag != cutEpsilon/4 {
			t.Errorf("party %d's slot %v, want ε/4", p, lag)
		}
	}
	c.tick(prop(0) - 1)
	if n := c.proposals(); n != 0 {
		t.Fatalf("%d proposals before 3ε/4", n)
	}
	c.tick(prop(0))
	if n := c.proposals(); n != 1 {
		t.Fatalf("%d proposals at 3ε/4, want 1", n)
	}
}

// TestCutIsNtryLessTheQuorumRankLag: three other parties' blocks, each
// cut 30 ms into the round and valid here 2, 5 and 9 ms after that, give
// the slots 2, 5 and 9 ms; at n = 4 the leader needs two others in time,
// so it cuts at Δntry(0) less the second smallest, 45 ms, and NextWake
// names that instant. The block it cuts carries its offset.
func TestCutIsNtryLessTheQuorumRankLag(t *testing.T) {
	var samples []time.Duration
	c := cutChoreography(t, cutEpsilon, &samples)
	d := newLagDriver(c)
	lags := make(map[types.PartyID]time.Duration)
	for i, p := range otherParties(c) {
		lags[p] = []time.Duration{2, 5, 9}[i] * time.Millisecond
	}
	d.untilLeading(30*time.Millisecond, lags)
	for p, lag := range lags {
		if got := c.eng.Lags()[p]; got != lag {
			t.Errorf("party %d's slot %v, want %v", p, got, lag)
		}
	}
	if len(samples) < len(lags) {
		t.Errorf("OnBlockLag fired %d times, want at least %d", len(samples), len(lags))
	}
	want := d.base + cutEpsilon - 5*time.Millisecond
	if at, ok := c.eng.NextWake(d.base); !ok || at != want {
		t.Fatalf("next wake %v (%v), want Δntry(0) − 5 ms = %v", at, ok, want)
	}
	c.tick(want - 1)
	if c.ownBlock(d.k) != nil {
		t.Fatal("proposed before the measured cut")
	}
	c.tick(want)
	b := c.ownBlock(d.k)
	if b == nil || b.Cut != want-d.base {
		t.Fatalf("proposal %+v, want one cut at %v", b, want-d.base)
	}
}

// TestBlockHeldAtEntryCountsZero: a rank-0 block that is valid before the
// party enters its round reached it in time whatever its Cut: lag 0.
func TestBlockHeldAtEntryCountsZero(t *testing.T) {
	var samples []time.Duration
	c := cutChoreography(t, cutEpsilon, &samples)
	d := newLagDriver(c)
	for try := 0; try < 100; try++ {
		if d.k == 1 {
			// Round 1 is entered at start; its block cannot come earlier.
			b := d.block(d.leader(), 30*time.Millisecond)
			c.deliver(b.Proposer, c.bundleOf(b), 31*time.Millisecond)
			d.finish(b)
			continue
		}
		for p := range c.beacons {
			c.revealRound(types.PartyID(p), d.k)
		}
		l := d.leader()
		if l == c.eng.ID() {
			d.enter()
			d.ownRound()
			continue
		}
		b := d.block(l, 40*time.Millisecond)
		c.deliver(l, c.bundleOf(b), d.base-5*time.Millisecond)
		taken := len(samples)
		d.enter()
		if len(samples) != taken+1 || samples[taken] != 0 {
			t.Fatalf("party %d's block, held on entry, gave samples %v; want one more, 0", l, samples[taken:])
		}
		return
	}
	t.Fatal("no round led by another party")
}

// TestSlotIsTheSecondLargestOfTheLatestSamples: a party's slot is its
// only sample, then the second largest of its latest lagWindow samples,
// so one outlier is forgotten, and so is a sample older than those.
func TestSlotIsTheSecondLargestOfTheLatestSamples(t *testing.T) {
	c := cutChoreography(t, cutEpsilon, nil)
	p := otherParties(c)[0]
	c.eng.lag[p].add(9 * time.Millisecond)
	if got := c.eng.Lags()[p]; got != 9*time.Millisecond {
		t.Fatalf("slot %v with one sample of 9 ms", got)
	}
	c.eng.lag[p].add(8 * time.Millisecond)
	for i := 2; i < lagWindow; i++ {
		c.eng.lag[p].add(time.Duration(i) * time.Millisecond / 2)
	}
	if got := c.eng.Lags()[p]; got != 8*time.Millisecond {
		t.Fatalf("slot %v with 9 and 8 ms among the latest %d samples, want 8ms", got, lagWindow)
	}
	c.eng.lag[p].add(2 * time.Millisecond)
	if want := time.Duration(lagWindow-1) * time.Millisecond / 2; c.eng.Lags()[p] != want {
		t.Fatalf("slot %v once 9 ms is older than the latest %d samples, want %v", c.eng.Lags()[p], lagWindow, want)
	}
}

// TestZeroEpsilonCutsAtEntry: at ε = 0, Δntry(0) = 0 bounds every sample
// and the cut, so whatever the others' blocks took, the leader proposes
// the moment it enters its round: eq. (2).
func TestZeroEpsilonCutsAtEntry(t *testing.T) {
	c := cutChoreography(t, 0, nil)
	d := newLagDriver(c)
	lags := make(map[types.PartyID]time.Duration)
	for _, p := range otherParties(c) {
		lags[p] = 7 * time.Millisecond
	}
	d.untilLeading(0, lags)
	for p, lag := range c.eng.Lags() {
		if types.PartyID(p) != c.eng.ID() && lag != 0 {
			t.Errorf("party %d's slot %v at ε = 0, want 0", p, lag)
		}
	}
	if b := c.ownBlock(d.k); b == nil || b.Cut != 0 {
		t.Fatalf("proposal %+v, want one cut on entry", b)
	}
}

// TestAdaptiveMultiplierScalesTheFallback: with the working delays
// doubled twice, the empty slots hold 4·ε/4 and the leader cuts at
// 4·3ε/4.
func TestAdaptiveMultiplierScalesTheFallback(t *testing.T) {
	c := newChoreographyWith(t, 4, 0, cutBound, func(cfg *Config) {
		cfg.Epsilon = cutEpsilon
		cfg.Adaptive = true
	})
	c.eng.adaptPow = 2
	c.start()
	for p, lag := range c.eng.Lags() {
		if types.PartyID(p) != c.eng.ID() && lag != cutEpsilon {
			t.Errorf("party %d's slot %v, want 4·ε/4", p, lag)
		}
	}
	if at, ok := c.eng.NextWake(0); !ok || at != 3*cutEpsilon {
		t.Fatalf("next wake %v (%v), want 4·3ε/4 = %v", at, ok, 3*cutEpsilon)
	}
}

// TestForwardsToTheLeaderUntilNtry: a command admitted after the standard
// 3ε/4 but before Δntry(0) still goes to rank 0, whose measured cut may
// be that late; once the rank-0 block is in, the next command does not.
func TestForwardsToTheLeaderUntilNtry(t *testing.T) {
	c, q, next := streamRound(t, cutEpsilon)
	for try := 0; next == c.perm[0]; try++ { // rank 0 must not be Leader(2), fed once the block is in
		if try == 32 {
			t.Fatal("rank 0 led round 2 for every key set dealt")
		}
		c, q, next = streamRound(t, cutEpsilon)
	}
	rank0 := c.perm[0]
	c.submit(q, kvCommand(1, 1))
	c.tick(cutEpsilon - time.Millisecond)
	if got := seqsOf(c.forwardsTo(rank0)); len(got) != 1 || got[0] != 1 {
		t.Fatalf("forwarded %v to rank 0 just before Δntry(0), want command 1", got)
	}
	b := &types.Block{Round: 1, Proposer: rank0, ParentHash: c.eng.Pool().RootHash(), Payload: []byte("b0"), Cut: 45 * time.Millisecond}
	c.deliver(rank0, c.bundleOf(b), cutEpsilon-time.Millisecond/2)
	c.submit(q, kvCommand(1, 2))
	c.tick(cutEpsilon - time.Millisecond/4)
	if got := seqsOf(c.forwardsTo(rank0)); len(got) != 1 {
		t.Fatalf("forwarded %v to rank 0 with its block held", got)
	}
}

// TestForwardWindowClosesAtNtry: with no rank-0 block, nothing goes to
// rank 0 from Δntry(0) on.
func TestForwardWindowClosesAtNtry(t *testing.T) {
	c, q, _ := streamRound(t, cutEpsilon)
	c.submit(q, kvCommand(1, 1))
	c.tick(cutEpsilon)
	if got := c.forwardsTo(c.perm[0]); len(got) != 0 {
		t.Fatalf("forwarded %v to rank 0 at Δntry(0)", seqsOf(got))
	}
}

// otherParties lists every party but the engine under test.
func otherParties(c *choreography) []types.PartyID {
	var ps []types.PartyID
	for p := 0; p < c.n; p++ {
		if pid := types.PartyID(p); pid != c.eng.ID() {
			ps = append(ps, pid)
		}
	}
	return ps
}

// ownBlock is the engine's own round-k proposal, nil if none left it.
func (c *choreography) ownBlock(k types.Round) *types.Block {
	for _, o := range c.outs {
		if bun, ok := o.Msg.(*types.Bundle); ok {
			if bm, ok := bun.Messages[0].(*types.BlockMsg); ok && bm.Block.Proposer == c.eng.ID() && bm.Block.Round == k {
				return bm.Block
			}
		}
	}
	return nil
}
