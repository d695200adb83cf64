package adversary

import (
	"crypto/rand"
	"testing"
	"time"

	"icc/internal/core"
	"icc/internal/crypto/keys"
	"icc/internal/engine"
	"icc/internal/pool"
	"icc/internal/types"
)

func TestSilentDoesNothing(t *testing.T) {
	s := NewSilent(3)
	if s.ID() != 3 {
		t.Fatal("wrong id")
	}
	if out := s.Init(0); out != nil {
		t.Fatal("silent party spoke at init")
	}
	if out := s.HandleMessage(0, &types.Advert{}, 0); out != nil {
		t.Fatal("silent party replied")
	}
	if out := s.Tick(time.Second); out != nil {
		t.Fatal("silent party ticked")
	}
	if _, ok := s.NextWake(0); ok {
		t.Fatal("silent party wants waking")
	}
}

func TestFilterTransforms(t *testing.T) {
	inner := NewSilent(1)
	calls := 0
	f := &Filter{
		Inner: inner,
		Transform: func(o engine.Output) []engine.Output {
			calls++
			return []engine.Output{o, o} // duplicate everything
		},
	}
	if f.ID() != 1 {
		t.Fatal("filter id")
	}
	// Inner emits nothing, so transform never fires.
	f.Init(0)
	f.Tick(0)
	f.HandleMessage(0, &types.Advert{}, 0)
	if calls != 0 {
		t.Fatal("transform fired without outputs")
	}
}

// buildEngine assembles a real core engine for wrapper tests.
func buildEngine(t *testing.T, n int, self types.PartyID) (*core.Engine, *keys.Public, []keys.Private) {
	t.Helper()
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	eng := core.NewEngine(core.Config{
		Self:       self,
		Keys:       pub,
		Priv:       privs[self],
		DeltaBound: 10 * time.Millisecond,
	})
	return eng, pub, privs
}

// driveToProposal feeds an engine enough beacon shares to enter round 1
// and returns all outputs produced (the proposal fires at Δprop of its
// rank via Tick).
func driveToProposal(t *testing.T, eng engine.Engine, pub *keys.Public, privs []keys.Private, n int) []engine.Output {
	t.Helper()
	var outs []engine.Output
	outs = append(outs, eng.Init(0)...)
	// Hand the engine every other party's round-1 beacon share by
	// running sibling engines' Init and forwarding their beacon shares.
	for i := 0; i < n; i++ {
		pid := types.PartyID(i)
		if pid == eng.ID() {
			continue
		}
		sib := core.NewEngine(core.Config{Self: pid, Keys: pub, Priv: privs[i], DeltaBound: 10 * time.Millisecond})
		for _, o := range sib.Init(0) {
			if bs, ok := o.Msg.(*types.BeaconShare); ok {
				outs = append(outs, eng.HandleMessage(pid, bs, 0)...)
			}
		}
	}
	// Let timers run far enough for any rank to propose.
	for now := time.Duration(0); now < time.Second; now += 10 * time.Millisecond {
		outs = append(outs, eng.Tick(now)...)
	}
	return outs
}

func findProposals(outs []engine.Output, self types.PartyID) []engine.Output {
	var props []engine.Output
	for _, o := range outs {
		if b, ok := o.Msg.(*types.Bundle); ok && len(b.Messages) > 0 {
			if bm, ok := b.Messages[0].(*types.BlockMsg); ok && bm.Block.Proposer == self {
				props = append(props, o)
			}
		}
	}
	return props
}

func TestSilentLeaderSuppressesOwnProposals(t *testing.T) {
	const n = 4
	inner, pub, privs := buildEngine(t, n, 0)
	wrapped := NewSilentLeader(inner)
	outs := driveToProposal(t, wrapped, pub, privs, n)
	if props := findProposals(outs, 0); len(props) != 0 {
		t.Fatalf("silent leader emitted %d proposals", len(props))
	}
	// It still sends beacon shares and notarization shares.
	var shares int
	for _, o := range outs {
		switch o.Msg.(type) {
		case *types.BeaconShare, *types.NotarizationShare:
			shares++
		}
	}
	if shares == 0 {
		t.Fatal("silent leader suppressed more than proposals")
	}
}

func TestLazyVoterSuppressesShares(t *testing.T) {
	const n = 4
	inner, pub, privs := buildEngine(t, n, 1)
	wrapped := NewLazyVoter(inner)
	outs := driveToProposal(t, wrapped, pub, privs, n)
	for _, o := range outs {
		switch o.Msg.(type) {
		case *types.NotarizationShare, *types.FinalizationShare:
			t.Fatal("lazy voter emitted a share")
		}
	}
	// But it still proposes (when its rank's time comes).
	if props := findProposals(outs, 1); len(props) == 0 {
		t.Fatal("lazy voter suppressed its own proposal too")
	}
}

func TestEquivocatorSendsConflictingBlocks(t *testing.T) {
	const n = 4
	inner, pub, privs := buildEngine(t, n, 2)
	wrapped := NewEquivocator(inner, n, privs[2])
	outs := driveToProposal(t, wrapped, pub, privs, n)

	// The proposal must have been replaced by per-party unicasts with
	// two distinct block hashes across the halves.
	hashes := map[[32]byte][]types.PartyID{}
	for _, o := range outs {
		b, ok := o.Msg.(*types.Bundle)
		if !ok || o.Broadcast {
			if ok && o.Broadcast {
				if bm, isBlock := b.Messages[0].(*types.BlockMsg); isBlock && bm.Block.Proposer == 2 {
					t.Fatal("equivocator broadcast a proposal instead of splitting")
				}
			}
			continue
		}
		bm, ok := b.Messages[0].(*types.BlockMsg)
		if !ok || bm.Block.Proposer != 2 {
			continue
		}
		hashes[bm.Block.Hash()] = append(hashes[bm.Block.Hash()], o.To)
	}
	if len(hashes) != 2 {
		t.Fatalf("equivocator produced %d distinct blocks, want 2", len(hashes))
	}
	// Both twins carry verifiable authenticators (checked by giving them
	// to an honest engine's pool via a sibling engine).
	for h, recipients := range hashes {
		if len(recipients) == 0 {
			t.Fatalf("block %x sent to nobody", h[:4])
		}
	}
}

func TestEquivocatorForksNotarizationShares(t *testing.T) {
	const n = 4
	inner, pub, privs := buildEngine(t, n, 2)
	wrapped := NewEquivocator(inner, n, privs[2])
	outs := driveToProposal(t, wrapped, pub, privs, n)

	// The equivocator's own notarization share for its own proposal must
	// be forked like the block was: per-party unicasts carrying two
	// distinct block hashes, each a genuinely verifiable share.
	shares := map[[32]byte][]types.PartyID{}
	var forked []*types.NotarizationShare
	for _, o := range outs {
		s, ok := o.Msg.(*types.NotarizationShare)
		if !ok || s.Signer != 2 || s.Proposer != 2 {
			continue
		}
		if o.Broadcast {
			t.Fatal("equivocator broadcast its own-proposal share instead of splitting")
		}
		if _, seen := shares[s.BlockHash]; !seen {
			forked = append(forked, s)
		}
		shares[s.BlockHash] = append(shares[s.BlockHash], o.To)
	}
	if len(shares) != 2 {
		t.Fatalf("equivocator produced shares for %d distinct blocks, want 2", len(shares))
	}
	// Both shares pass pool admission — the twin is a real S_notary
	// signature over the twin statement, not junk an honest pool drops.
	p := pool.New(pub, 0, pool.Options{})
	for _, s := range forked {
		if ok, err := p.AddNotarizationShare(s); !ok || err != nil {
			t.Fatalf("forked share for %x rejected: %v", s.BlockHash[:4], err)
		}
	}
}

// scripted is an outer engine that emits a prepared list on Init.
type scripted struct {
	Silent
	outs []engine.Output
}

func (s *scripted) Init(time.Duration) []engine.Output { return s.outs }

// The mute relay lets through what party 2 signed or proposed itself and
// what is not gossip; everything second-hand stops, a bundle's foreign
// shares included.
func TestMuteRelaySendsOnlyItsOwn(t *testing.T) {
	own := &types.NotarizationShare{Round: 1, Signer: 2, Sig: []byte{1}}
	foreign := &types.NotarizationShare{Round: 1, Signer: 3, Sig: []byte{2}}
	bundle := &types.ShareBundle{
		Notar:  []types.ShareGroup{{Round: 1, Signers: []types.PartyID{2, 3}, Sigs: [][]byte{{1}, {2}}}},
		Beacon: []*types.BeaconShare{{Round: 2, Signer: 2}, {Round: 2, Signer: 4}},
	}
	m := NewMuteRelay(&scripted{Silent: Silent{Self: 2}, outs: []engine.Output{
		engine.Unicast(0, own),
		engine.Unicast(0, foreign),
		engine.Unicast(0, bundle),
		engine.Unicast(0, &types.BlockMsg{Block: &types.Block{Round: 1, Proposer: 2}}),
		engine.Unicast(0, &types.BlockMsg{Block: &types.Block{Round: 1, Proposer: 3}}),
		engine.Unicast(0, &types.Authenticator{Round: 1, Proposer: 3}),
		engine.Unicast(0, &types.Notarization{Round: 1}),
		engine.Unicast(0, &types.Advert{}),
		engine.Unicast(0, &types.Request{}),
	}})
	var kinds []types.Kind
	for _, o := range m.Init(0) {
		switch v := o.Msg.(type) {
		case *types.NotarizationShare:
			if v.Signer != 2 {
				t.Fatalf("relayed the share of signer %d", v.Signer)
			}
		case *types.BeaconShare:
			if v.Signer != 2 {
				t.Fatalf("relayed the beacon share of signer %d", v.Signer)
			}
		case *types.BlockMsg:
			if v.Block.Proposer != 2 {
				t.Fatalf("relayed the block of proposer %d", v.Block.Proposer)
			}
		}
		kinds = append(kinds, o.Msg.Kind())
	}
	want := []types.Kind{types.KindNotarizationShare, types.KindNotarizationShare, types.KindBeaconShare, types.KindBlock, types.KindRequest}
	if len(kinds) != len(want) {
		t.Fatalf("sent %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("sent %v, want %v", kinds, want)
		}
	}
}

// A selective signer's own shares, bare or in a bundle, reach a party only
// in the rounds Hears picks for it; about half of thirteen parties hear a
// round, and everything else passes. (Mutation: Hears ignoring the round.)
func TestSelectiveSignerSendsItsSharesToHalf(t *testing.T) {
	const self = types.PartyID(2)
	for k := types.Round(1); k <= 4; k++ {
		hearing := 0
		for to := types.PartyID(0); to < 13; to++ {
			bundle := &types.ShareBundle{Final: []types.ShareGroup{{Round: k, Signers: []types.PartyID{self, 3}, Sigs: [][]byte{{1}, {2}}}}}
			m := NewSelectiveSigner(&scripted{Silent: Silent{Self: self}, outs: []engine.Output{
				engine.Unicast(to, &types.NotarizationShare{Round: k, Signer: self}),
				engine.Unicast(to, &types.NotarizationShare{Round: k, Signer: 3}),
				engine.Unicast(to, bundle),
				engine.Unicast(to, &types.Notarization{Round: k}),
			}})
			own := 0
			for _, o := range m.Init(0) {
				switch v := o.Msg.(type) {
				case *types.NotarizationShare:
					if v.Signer == self {
						own++
					}
				case *types.FinalizationShare:
					if v.Signer == self {
						own++
					}
				}
			}
			if Hears(k, to) {
				hearing++
				if own != 2 {
					t.Fatalf("round %d: party %d hears the signer and got %d of its shares, want 2", k, to, own)
				}
			} else if own != 0 {
				t.Fatalf("round %d: party %d does not hear the signer and got %d of its shares", k, to, own)
			}
		}
		if hearing < 3 || hearing > 10 {
			t.Fatalf("round %d: %d of 13 parties hear the signer", k, hearing)
		}
	}
	same := true
	for to := types.PartyID(0); to < 13; to++ {
		same = same && Hears(1, to) == Hears(2, to)
	}
	if same {
		t.Fatal("rounds 1 and 2 pick the same half")
	}
}
