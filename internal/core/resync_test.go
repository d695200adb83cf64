package core

// Unit tests for the resynchronisation layer (resync.go), driving a
// single engine by hand the way the conformance tests do.

import (
	"crypto/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/types"
)

// buildResyncEngine assembles an engine with a simulated beacon and a
// short resync interval (0 keeps resyncDeltas·Δbnd), plus per-party
// beacons to mint peers' shares.
func buildResyncEngine(t *testing.T, n int, self types.PartyID, interval time.Duration) (*Engine, *keys.Public, []*beacon.Simulated) {
	t.Helper()
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	beacons := make([]*beacon.Simulated, n)
	for i := 0; i < n; i++ {
		beacons[i] = beacon.NewSimulated(n, types.PartyID(i), pub.GenesisSeed)
	}
	e := NewEngine(Config{
		Self:       self,
		Keys:       pub,
		Priv:       privs[self],
		Beacon:     beacons[self],
		DeltaBound: 100 * time.Millisecond,
	})
	if interval != 0 {
		e.setResyncInterval(interval)
	}
	return e, pub, beacons
}

// setResyncInterval replaces resyncDeltas·Δbnd + ε, for the stall timer
// and the per-peer answer limit alike. Call it before Init.
func (e *Engine) setResyncInterval(d time.Duration) {
	e.resyncInterval = d
}

// statusesIn collects the Status messages inside the outputs' bundles.
func statusesIn(outs []engine.Output) []*types.Status {
	var sts []*types.Status
	for _, o := range outs {
		b, ok := o.Msg.(*types.Bundle)
		if !ok {
			continue
		}
		for _, sub := range b.Messages {
			if st, ok := sub.(*types.Status); ok {
				sts = append(sts, st)
			}
		}
	}
	return sts
}

func TestResyncEmitsStatusWhenStalled(t *testing.T) {
	e, _, _ := buildResyncEngine(t, 4, 0, 500*time.Millisecond)
	outs := e.Init(0)
	if len(statusesIn(outs)) != 0 {
		t.Fatal("status emitted at init")
	}
	// Before the deadline: quiet.
	if sts := statusesIn(e.Tick(400 * time.Millisecond)); len(sts) != 0 {
		t.Fatal("status emitted before the stall deadline")
	}
	// The engine never entered round 1 (no beacon shares arrived): the
	// stall fires, once per peer, and repeats next interval with a fresh
	// sequence number.
	sts := statusesIn(e.Tick(600 * time.Millisecond))
	if len(sts) != 3 {
		t.Fatalf("got %d statuses, want one per peer (3)", len(sts))
	}
	if sts[0].Round != 1 || sts[0].Seq != 1 {
		t.Fatalf("unexpected status %+v", sts[0])
	}
	if sts := statusesIn(e.Tick(700 * time.Millisecond)); len(sts) != 0 {
		t.Fatal("status repeated within one interval")
	}
	sts = statusesIn(e.Tick(1200 * time.Millisecond))
	if len(sts) != 3 || sts[0].Seq != 2 {
		t.Fatalf("second stall round wrong: %d statuses", len(sts))
	}
}

// TestResyncDefaultIsEightDeltaBound: an engine configured with Δbnd
// alone sends its stall bundle exactly 8·Δbnd after its last progress —
// here entering round 1 at 50 ms — and not a nanosecond earlier.
func TestResyncDefaultIsEightDeltaBound(t *testing.T) {
	const bound, entered = 100 * time.Millisecond, 50 * time.Millisecond
	e, _, beacons := buildResyncEngine(t, 4, 0, 0)
	if len(statusesIn(e.Init(0))) != 0 {
		t.Fatal("status emitted at init")
	}
	for i := 1; i < 4; i++ {
		sh, err := beacons[i].ShareForRound(1)
		if err != nil {
			t.Fatal(err)
		}
		e.HandleMessage(types.PartyID(i), sh, entered)
	}
	if e.CurrentRound() != 1 || !e.inRound {
		t.Fatal("the engine did not enter round 1")
	}
	if sts := statusesIn(e.Tick(entered + 8*bound - 1)); len(sts) != 0 {
		t.Fatalf("%d statuses before 8·Δbnd had passed", len(sts))
	}
	if sts := statusesIn(e.Tick(entered + 8*bound)); len(sts) != 3 {
		t.Fatalf("got %d statuses at 8·Δbnd after the last progress, want one per peer (3)", len(sts))
	}
}

// TestResyncIntervalCountsEpsilon: with ε > 0 the stall timer is
// 8·Δbnd + ε, so a round that only waits out a silent leader's
// Δntry(1) = 2Δbnd + ε never looks stalled however large ε is.
func TestResyncIntervalCountsEpsilon(t *testing.T) {
	const bound, epsilon = 100 * time.Millisecond, 2300 * time.Millisecond
	pub, privs, err := keys.Deal(rand.Reader, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := NewEngine(Config{Self: 0, Keys: pub, Priv: privs[0], DeltaBound: bound, Epsilon: epsilon})
	e.Init(0)
	if sts := statusesIn(e.Tick(8*bound + epsilon - 1)); len(sts) != 0 {
		t.Fatalf("%d statuses before 8·Δbnd + ε had passed", len(sts))
	}
	if sts := statusesIn(e.Tick(8*bound + epsilon)); len(sts) != 3 {
		t.Fatalf("got %d statuses at 8·Δbnd + ε, want one per peer (3)", len(sts))
	}
}

func TestResyncStatusRoundZeroNoUnderflow(t *testing.T) {
	// Round is uint64: a party stalled at round 0 must report
	// Finalized=0, not 2^64−1 — responders skip beacon shares for
	// rounds ≤ Finalized, so the wrapped value made them skip every
	// share the stalled party needed.
	e, _, _ := buildResyncEngine(t, 4, 0, 500*time.Millisecond)
	e.Init(0)
	e.round = 0
	sts := statusesIn(e.Tick(600 * time.Millisecond))
	if len(sts) == 0 {
		t.Fatal("no status emitted at round 0")
	}
	for _, st := range sts {
		if st.Finalized != 0 {
			t.Fatalf("Status.Finalized = %d at round 0, want 0 (uint64 underflow)", st.Finalized)
		}
	}
}

func TestResyncStallBundleCarriesResyncMarker(t *testing.T) {
	// Stall re-broadcasts must ride the receivers' verify-pipeline
	// priority lane, which keys off the bundle's Resync flag.
	e, _, _ := buildResyncEngine(t, 4, 0, 500*time.Millisecond)
	e.Init(0)
	outs := e.Tick(600 * time.Millisecond)
	found := false
	for _, o := range outs {
		if b, ok := o.Msg.(*types.Bundle); ok {
			found = true
			if !b.Resync {
				t.Fatal("stall bundle not Resync-marked")
			}
		}
	}
	if !found {
		t.Fatal("no stall bundle emitted")
	}
}

func TestResyncNextWakeCoversStall(t *testing.T) {
	e, _, _ := buildResyncEngine(t, 4, 0, 500*time.Millisecond)
	e.Init(0)
	// Not in a round (beacon pending) — the paper's engine would sleep
	// forever here; the resync deadline must keep a wake armed.
	at, ok := e.NextWake(100 * time.Millisecond)
	if !ok || at != 500*time.Millisecond {
		t.Fatalf("NextWake = %v, %v; want 500ms resync deadline", at, ok)
	}
}

// runCluster runs a 4-party cluster of engines by hand, with synchronous
// full-mesh delivery, until party 0 is past round 6 and nothing is in
// flight; it returns the engines and the instant it stopped.
func runCluster(t *testing.T) ([]*Engine, time.Duration) {
	t.Helper()
	const n = 4
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	engines := make([]*Engine, n)
	for i := 0; i < n; i++ {
		engines[i] = NewEngine(Config{
			Self:       types.PartyID(i),
			Keys:       pub,
			Priv:       privs[i],
			Beacon:     beacon.NewSimulated(n, types.PartyID(i), pub.GenesisSeed),
			DeltaBound: 10 * time.Millisecond,
		})
	}
	var pending []engine.Output
	var senders []types.PartyID
	now := time.Duration(0)
	for i, e := range engines {
		for _, o := range e.Init(now) {
			pending = append(pending, o)
			senders = append(senders, types.PartyID(i))
		}
	}
	for step := 0; step < 400; step++ {
		outs, froms := pending, senders
		pending, senders = nil, nil
		for j, o := range outs {
			for i, e := range engines {
				if types.PartyID(i) == froms[j] {
					continue
				}
				if !o.Broadcast && o.To != types.PartyID(i) {
					continue
				}
				for _, out := range e.HandleMessage(froms[j], o.Msg, now) {
					pending = append(pending, out)
					senders = append(senders, types.PartyID(i))
				}
			}
		}
		now += time.Millisecond
		for i, e := range engines {
			for _, o := range e.Tick(now) {
				pending = append(pending, o)
				senders = append(senders, types.PartyID(i))
			}
		}
		if engines[0].CurrentRound() > 6 && len(pending) == 0 {
			break
		}
	}
	if engines[0].CurrentRound() <= 6 {
		t.Fatalf("cluster did not progress: round %d", engines[0].CurrentRound())
	}
	return engines, now
}

// answerTo returns the bundle among outs unicast to `to`, nil if none.
func answerTo(outs []engine.Output, to types.PartyID) *types.Bundle {
	for _, o := range outs {
		if b, ok := o.Msg.(*types.Bundle); ok && !o.Broadcast && o.To == to {
			return b
		}
	}
	return nil
}

func TestResyncAnswersLaggardWithBackfill(t *testing.T) {
	// Run a 4-party cluster of engines by hand until they commit some
	// rounds, then have a fresh laggard ask party 0 for a backfill.
	engines, now := runCluster(t)

	// A laggard stuck at round 1 asks party 0.
	backfill := answerTo(engines[0].HandleMessage(3, &types.Status{Round: 1, Finalized: 0, Seq: 1}, now), 3)
	if backfill == nil {
		t.Fatal("no backfill bundle for a laggard two-plus rounds behind")
	}
	var blocks, notars, beacons int
	for _, m := range backfill.Messages {
		switch m.(type) {
		case *types.BlockMsg:
			blocks++
		case *types.Notarization:
			notars++
		case *types.BeaconShare:
			beacons++
		}
	}
	if blocks < 3 || notars < 3 || beacons < 3 {
		t.Fatalf("thin backfill: %d blocks, %d notarizations, %d beacon shares", blocks, notars, beacons)
	}

	// Rate limit: an immediate repeat is ignored.
	if answerTo(engines[0].HandleMessage(3, &types.Status{Round: 1, Finalized: 0, Seq: 2}, now), 3) != nil {
		t.Fatal("backfill repeated within the rate-limit window")
	}

	// A peer only one round behind is answered too: a stalled party
	// sends nothing but its Status, so the answer is all it gets.
	k := engines[0].CurrentRound()
	b := answerTo(engines[0].HandleMessage(2, &types.Status{Round: k - 1, Seq: 1}, now), 2)
	if b == nil || !slices.ContainsFunc(b.Messages, func(m types.Message) bool {
		nz, ok := m.(*types.Notarization)
		return ok && nz.Round == k-1
	}) {
		t.Fatal("a peer one round behind did not get the previous round's notarization")
	}
}

// TestStatusOneRoundBehindGetsThePreviousRound: a peer in round k−1
// gets round k−1's notarized block, its authenticator and notarization,
// and the responder's beacon share for k; nothing of round k or k+1.
func TestStatusOneRoundBehindGetsThePreviousRound(t *testing.T) {
	engines, now := runCluster(t)
	e := engines[0]
	k := e.CurrentRound()
	b := answerTo(e.HandleMessage(2, &types.Status{Round: k - 1, Finalized: k - 1, Seq: 1}, now), 2)
	if b == nil || !b.Resync {
		t.Fatalf("no Resync-marked answer to a peer one round behind: %+v", b)
	}
	want := map[types.Kind]int{types.KindBlock: 1, types.KindAuthenticator: 1, types.KindNotarization: 1, types.KindBeaconShare: 1}
	got := map[types.Kind]int{}
	for _, m := range b.Messages {
		got[m.Kind()]++
		switch v := m.(type) {
		case *types.BlockMsg:
			if v.Block.Round != k-1 {
				t.Errorf("block of round %d, want %d", v.Block.Round, k-1)
			}
		case *types.Authenticator:
			if v.Round != k-1 {
				t.Errorf("authenticator of round %d, want %d", v.Round, k-1)
			}
		case *types.Notarization:
			if v.Round != k-1 {
				t.Errorf("notarization of round %d, want %d", v.Round, k-1)
			}
		case *types.BeaconShare:
			if v.Round != k || v.Signer != e.ID() {
				t.Errorf("beacon share of round %d by %d, want round %d by %d", v.Round, v.Signer, k, e.ID())
			}
		case *types.Finalization:
		default:
			t.Errorf("unexpected %s in the answer", m.Kind())
		}
	}
	for kind, n := range want {
		if got[kind] != n {
			t.Errorf("%d %s, want %d (answer %v)", got[kind], kind, n, got)
		}
	}
}

// sameRound sets up a rank-3 engine in round 1 holding two blocks: the
// rank-0 block B0 with the engine's own notarization share and party
// perm[1]'s, and the rank-1 block B1 with its proposer's share. It
// returns the choreography, both blocks' artifacts in pool order, and a
// peer that asks.
func sameRound(t *testing.T) (c *choreography, b0, b1 []types.Message, peer types.PartyID) {
	t.Helper()
	c = newChoreography(t, 4, 3, 100*time.Millisecond)
	c.start()
	blk0, bundle0 := c.block(0, "b0")
	blk1, bundle1 := c.block(1, "b1")
	c.deliver(c.perm[0], bundle0, 0)
	own := c.sharesOf()
	if len(own) != 1 {
		t.Fatalf("the engine cast %d notarization shares on the leader's block, want 1", len(own))
	}
	other := c.nshare(blk0, c.perm[1])
	c.deliver(c.perm[1], other, 0)
	c.deliver(c.perm[1], bundle1, 0)
	s1 := c.nshare(blk1, c.perm[1])
	c.deliver(c.perm[1], s1, 0)
	shares0 := []types.Message{own[0], other}
	if other.Signer < own[0].Signer {
		shares0 = []types.Message{other, own[0]}
	}
	b0 = append(append([]types.Message{}, bundle0.Messages...), shares0...)
	b1 = append(append([]types.Message{}, bundle1.Messages...), s1)
	return c, b0, b1, c.perm[2]
}

// refsOf is the ref of each message, in order.
func refsOf(msgs []types.Message) []types.Ref {
	refs := make([]types.Ref, len(msgs))
	for i, m := range msgs {
		refs[i] = types.RefOf(m)
	}
	return refs
}

// sameRefs fails unless got is want, element for element by ref.
func sameRefs(t *testing.T, got *types.Bundle, want []types.Message) {
	t.Helper()
	if got == nil {
		t.Fatal("no answer")
	}
	if !slices.Equal(refsOf(got.Messages), refsOf(want)) {
		t.Fatalf("answer carries %d messages %v, want %d %v", len(got.Messages), refsOf(got.Messages), len(want), refsOf(want))
	}
}

// TestStatusSameRoundNothingMissing: a peer in our round that holds
// everything we hold gets no answer, and the limiter is not charged —
// its next Status, lacking something, is answered at once.
func TestStatusSameRoundNothingMissing(t *testing.T) {
	c, b0, b1, peer := sameRound(t)
	all := refsOf(append(append([]types.Message{}, b0...), b1...))
	if b := answerTo(c.eng.HandleMessage(peer, &types.Status{Round: 1, Seq: 1, Have: all}, 10*time.Millisecond), peer); b != nil {
		t.Fatalf("answered a peer that lacks nothing with %d messages", len(b.Messages))
	}
	if _, charged := c.eng.repliedAt[peer]; charged {
		t.Fatal("an answer never sent charged the limiter")
	}
	sameRefs(t, answerTo(c.eng.HandleMessage(peer, &types.Status{Round: 1, Seq: 2, Have: all[1:]}, 20*time.Millisecond), peer), b0[:1])
}

// TestStatusSameRoundOneShareMissing: exactly the missing share is sent.
func TestStatusSameRoundOneShareMissing(t *testing.T) {
	c, b0, b1, peer := sameRound(t)
	have := refsOf(append(append([]types.Message{}, b0[:3]...), b1...)) // lacks b0's second share
	sameRefs(t, answerTo(c.eng.HandleMessage(peer, &types.Status{Round: 1, Seq: 1, Have: have}, 10*time.Millisecond), peer), b0[3:])
}

// TestStatusSameRoundOneBlockMissing: the missing block goes with its
// authenticator and its shares, and nothing the peer holds.
func TestStatusSameRoundOneBlockMissing(t *testing.T) {
	c, b0, b1, peer := sameRound(t)
	sameRefs(t, answerTo(c.eng.HandleMessage(peer, &types.Status{Round: 1, Seq: 1, Have: refsOf(b0)}, 10*time.Millisecond), peer), b1)
}

// TestStatusSameRoundHashesEachArtifactOnce: a peer repeating a Status
// that names everything we hold gets no answer, so the limiter never
// stops it, and each repeat compares its Have against our round. The
// round's refs are memoised: a 1-MiB block is encoded and hashed once,
// not once a Status — fifty repeats allocate far less than one copy of
// the block.
func TestStatusSameRoundHashesEachArtifactOnce(t *testing.T) {
	const payload = 1 << 20
	c := newChoreography(t, 4, 3, 100*time.Millisecond)
	c.start()
	_, bundle := c.block(0, strings.Repeat("x", payload))
	c.deliver(c.perm[0], bundle, 0)
	st := c.eng.Status()
	if len(st.Have) != len(bundle.Messages)+1 {
		t.Fatalf("Status names %d artifacts, want the block, its authenticator and our share", len(st.Have))
	}
	peer := c.perm[2]
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 50; i++ {
		now := time.Duration(i+1) * time.Millisecond
		if b := answerTo(c.eng.HandleMessage(peer, &types.Status{Round: 1, Seq: uint64(i + 1), Have: st.Have}, now), peer); b != nil {
			t.Fatalf("answered a peer that lacks nothing with %d messages", len(b.Messages))
		}
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > payload/2 {
		t.Fatalf("fifty Statuses naming the round allocated %d bytes: the %d-byte block was re-encoded", got, payload)
	}
}

// TestStallSendsOnlyStatusAndOwnShares: the stall bundle is a Status
// naming what the party holds for its round, plus its own beacon
// shares for the round and the next — no block, share or certificate.
func TestStallSendsOnlyStatusAndOwnShares(t *testing.T) {
	c, b0, b1, _ := sameRound(t)
	// Stall before the engine's own Δprop(3) = 600 ms proposal.
	c.eng.setResyncInterval(500 * time.Millisecond)
	c.eng.touchResync(0)
	outs := c.eng.Tick(500 * time.Millisecond)
	if len(outs) != 3 {
		t.Fatalf("%d outputs at the stall, want one bundle per peer (3)", len(outs))
	}
	for _, o := range outs {
		b, ok := o.Msg.(*types.Bundle)
		if !ok || o.Broadcast || !b.Resync {
			t.Fatalf("stall output %+v is not a Resync-marked unicast bundle", o)
		}
		st, ok := b.Messages[0].(*types.Status)
		if !ok {
			t.Fatalf("stall bundle opens with %s, want a Status", b.Messages[0].Kind())
		}
		if !slices.Equal(st.Have, refsOf(append(append([]types.Message{}, b0...), b1...))) {
			t.Fatalf("Status names %v, want the round's %d artifacts", st.Have, len(b0)+len(b1))
		}
		var rounds []types.Round
		for _, m := range b.Messages[1:] {
			sh, ok := m.(*types.BeaconShare)
			if !ok || sh.Signer != c.eng.ID() {
				t.Fatalf("stall bundle carries %s, want only the party's own beacon shares", m.Kind())
			}
			rounds = append(rounds, sh.Round)
		}
		if !slices.Equal(rounds, []types.Round{1, 2}) {
			t.Fatalf("own beacon shares for rounds %v, want [1 2]", rounds)
		}
	}
}
