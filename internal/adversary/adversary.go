// Package adversary provides Byzantine engine implementations for
// robustness experiments (paper §1 "Robust consensus", Table 1 scenario
// 3). Each adversary implements engine.Engine so it plugs into the same
// simulator as honest engines.
//
// The behaviours here follow the corruption taxonomy of §3.1: crash
// failures (Silent), consistent failures (SilentLeader, LazyVoter — not
// conspicuously incorrect), and full Byzantine behaviour (Equivocator).
package adversary

import (
	"time"

	"icc/internal/beacon"
	"icc/internal/core"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/crypto/sig"
	"icc/internal/engine"
	"icc/internal/types"
)

// Silent is a party that crashed before the protocol started: it never
// sends anything and ignores everything.
type Silent struct {
	Self types.PartyID
}

// NewSilent returns a from-birth crashed party.
func NewSilent(self types.PartyID) *Silent { return &Silent{Self: self} }

// ID implements engine.Engine.
func (s *Silent) ID() types.PartyID { return s.Self }

// Init implements engine.Engine.
func (s *Silent) Init(time.Duration) []engine.Output { return nil }

// HandleMessage implements engine.Engine.
func (s *Silent) HandleMessage(types.PartyID, types.Message, time.Duration) []engine.Output {
	return nil
}

// Tick implements engine.Engine.
func (s *Silent) Tick(time.Duration) []engine.Output { return nil }

// NextWake implements engine.Engine.
func (s *Silent) NextWake(time.Duration) (time.Duration, bool) { return 0, false }

// CurrentRound implements engine.Engine.
func (s *Silent) CurrentRound() types.Round { return 0 }

var _ engine.Engine = (*Silent)(nil)

// Filter wraps an inner engine and rewrites its outputs — the chassis
// for selective misbehaviour. Transform receives each output and returns
// the outputs to actually transmit (possibly none, possibly several).
type Filter struct {
	Inner     engine.Engine
	Transform func(out engine.Output) []engine.Output
}

// ID implements engine.Engine.
func (f *Filter) ID() types.PartyID { return f.Inner.ID() }

// Init implements engine.Engine.
func (f *Filter) Init(now time.Duration) []engine.Output {
	return f.apply(f.Inner.Init(now))
}

// HandleMessage implements engine.Engine.
func (f *Filter) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	return f.apply(f.Inner.HandleMessage(from, m, now))
}

// Tick implements engine.Engine.
func (f *Filter) Tick(now time.Duration) []engine.Output {
	return f.apply(f.Inner.Tick(now))
}

// NextWake implements engine.Engine.
func (f *Filter) NextWake(now time.Duration) (time.Duration, bool) { return f.Inner.NextWake(now) }

// Wake implements engine.Waker for the inner engine.
func (f *Filter) Wake() <-chan struct{} { return engine.WakeOf(f.Inner) }

// Beacon implements engine.Beaconed for the inner engine.
func (f *Filter) Beacon() beacon.Source { return engine.BeaconOf(f.Inner) }

// CurrentRound implements engine.Engine.
func (f *Filter) CurrentRound() types.Round { return f.Inner.CurrentRound() }

func (f *Filter) apply(outs []engine.Output) []engine.Output {
	var res []engine.Output
	for _, o := range outs {
		res = append(res, f.Transform(o)...)
	}
	return res
}

var _ engine.Engine = (*Filter)(nil)

// isOwnProposal reports whether the output is the bundle an engine
// broadcasts when proposing its own block.
func isOwnProposal(self types.PartyID, o engine.Output) (*types.Bundle, *types.Block, bool) {
	b, ok := o.Msg.(*types.Bundle)
	if !ok || len(b.Messages) < 2 {
		return nil, nil, false
	}
	bm, ok := b.Messages[0].(*types.BlockMsg)
	if !ok || bm.Block == nil || bm.Block.Proposer != self {
		return nil, nil, false
	}
	return b, bm.Block, true
}

// NewSilentLeader wraps an honest engine so that it participates fully in
// notarization and finalization but never disseminates its own block
// proposals. In rounds where it is the leader, other parties must fall
// back to rank-1+ proposals after Δntry — the robustness path the paper
// highlights.
func NewSilentLeader(inner *core.Engine) engine.Engine {
	self := inner.ID()
	return &Filter{
		Inner: inner,
		Transform: func(o engine.Output) []engine.Output {
			if _, _, own := isOwnProposal(self, o); own {
				return nil
			}
			return []engine.Output{o}
		},
	}
}

// NewLazyVoter wraps an honest engine so that it never contributes
// notarization or finalization shares (but still proposes and relays) —
// a "consistent failure" that shrinks quorums without conspicuous
// misbehaviour.
func NewLazyVoter(inner *core.Engine) engine.Engine {
	return &Filter{
		Inner: inner,
		Transform: func(o engine.Output) []engine.Output {
			switch o.Msg.(type) {
			case *types.NotarizationShare, *types.FinalizationShare:
				return nil
			}
			return []engine.Output{o}
		},
	}
}

// NewMuteRelay wraps a party's gossip wrapper — the outermost engine, not
// the consensus engine inside it — so that the party takes every frame
// and sends what it signed or proposed itself, but relays nothing
// second-hand: no other party's share, block or authenticator, no
// certificate, and no advert (so a block of its own above the overlay's
// eager threshold is never fetched from it either). Its own shares leave
// bare, one frame each. To an overlay that gives every edge one speaker
// it is the speaker that never speaks, on every edge where that is its
// turn. Unicasts that are not gossip — resync traffic, requests, payload
// offers — pass.
func NewMuteRelay(outer engine.Engine) engine.Engine {
	self := outer.ID()
	own := func(m types.Message) bool {
		switch v := m.(type) {
		case *types.NotarizationShare:
			return v.Signer == self
		case *types.FinalizationShare:
			return v.Signer == self
		case *types.BeaconShare:
			return v.Signer == self
		case *types.BlockMsg:
			return v.Block != nil && v.Block.Proposer == self
		case *types.Authenticator:
			return v.Proposer == self
		case *types.Notarization, *types.Finalization, *types.BeaconOutput, *types.Advert:
			return false
		}
		return true
	}
	return &Filter{
		Inner: outer,
		Transform: func(o engine.Output) []engine.Output {
			if b, ok := o.Msg.(*types.ShareBundle); ok {
				var kept []engine.Output
				for _, sub := range b.Expand() {
					if own(sub) {
						kept = append(kept, engine.Unicast(o.To, sub))
					}
				}
				return kept
			}
			if !own(o.Msg) {
				return nil
			}
			return []engine.Output{o}
		},
	}
}

// NewSelectiveSigner wraps a party's gossip wrapper — the outermost
// engine, like NewMuteRelay — so that its own notarization and
// finalization shares reach only half of its neighbours: those the round
// picks (Hears), a different half each round. It chooses who hears it —
// the message adversary of Losa and Gafni. A relay does not send a
// signer's share on to the signer's own neighbours at once, since they
// hear it first-hand; the half that does not must get it from relays when
// their wait is over. Its own shares inside a ShareBundle, a completion
// among them, are cut the same way; everything else passes.
func NewSelectiveSigner(outer engine.Engine) engine.Engine {
	self := outer.ID()
	// kept reports whether m may go to party to: anything but an own
	// share of a round in which to does not hear the signer.
	kept := func(to types.PartyID, m types.Message) bool {
		switch v := m.(type) {
		case *types.NotarizationShare:
			return v.Signer != self || Hears(v.Round, to)
		case *types.FinalizationShare:
			return v.Signer != self || Hears(v.Round, to)
		}
		return true
	}
	return &Filter{
		Inner: outer,
		Transform: func(o engine.Output) []engine.Output {
			b, ok := o.Msg.(*types.ShareBundle)
			if !ok {
				if o.Broadcast || kept(o.To, o.Msg) {
					return []engine.Output{o}
				}
				return nil
			}
			var out []engine.Output
			for _, sub := range b.Expand() {
				if kept(o.To, sub) {
					out = append(out, engine.Unicast(o.To, sub))
				}
			}
			return out
		},
	}
}

// Hears reports whether a selective signer sends its round-k shares to
// party p: one bit of a hash of the two, so about half of any neighbour
// list, another half each round.
func Hears(k types.Round, p types.PartyID) bool {
	return hash.SumUint64(hash.DomainPayload, uint64(k)<<16|uint64(p))[0]&1 == 0
}

// NewEquivocator wraps an honest engine so that whenever it proposes a
// block, it creates a second, conflicting block for the same round and
// sends one to the first half of the parties and the other to the second
// half. It then keeps the lie consistent at the share layer: its own
// notarization share for the original block is likewise forked, with a
// twin share (a real S_notary signature over the twin's statement) sent
// to the parties that received the twin block. Honest parties that see
// both blocks must disqualify its rank (Fig. 1 clause (c)), pools that
// see both shares must keep them contained per block hash, and safety
// must survive regardless. n is the cluster size; priv the party's own
// key material (the twin block and twin share are properly signed —
// unsigned ones would simply be dropped at the pool).
func NewEquivocator(inner *core.Engine, n int, priv keys.Private) engine.Engine {
	self := inner.ID()
	type twinRec struct {
		orig, twin hash.Digest
	}
	twins := make(map[types.Round]twinRec)
	// split sends orig to the first half of the parties and alt to the
	// rest — consistently, so each victim sees one coherent story.
	split := func(orig, alt types.Message) []engine.Output {
		var outs []engine.Output
		for p := 0; p < n; p++ {
			pid := types.PartyID(p)
			if pid == self {
				continue
			}
			if p < n/2 {
				outs = append(outs, engine.Unicast(pid, orig))
			} else {
				outs = append(outs, engine.Unicast(pid, alt))
			}
		}
		return outs
	}
	return &Filter{
		Inner: inner,
		Transform: func(o engine.Output) []engine.Output {
			if bundle, blk, own := isOwnProposal(self, o); own {
				// Build the conflicting twin: same round and parent,
				// different payload.
				twin := &types.Block{
					Round:      blk.Round,
					Proposer:   blk.Proposer,
					ParentHash: blk.ParentHash,
					Payload:    append([]byte("equivocation:"), blk.Payload...),
					Cut:        blk.Cut,
				}
				th := twin.Hash()
				twinAuth := &types.Authenticator{
					Round: twin.Round, Proposer: twin.Proposer, BlockHash: th,
					Sig: sig.Sign(priv.Auth, types.DomainAuthenticator,
						types.SigningBytes(twin.Round, twin.Proposer, th)),
				}
				twinBundle := &types.Bundle{Messages: []types.Message{&types.BlockMsg{Block: twin}, twinAuth}}
				// Reuse the parent notarization from the original bundle.
				for _, m := range bundle.Messages {
					if nz, ok := m.(*types.Notarization); ok {
						twinBundle.Messages = append(twinBundle.Messages, nz)
					}
				}
				twins[blk.Round] = twinRec{orig: blk.Hash(), twin: th}
				for k := range twins {
					if k+8 < blk.Round {
						delete(twins, k)
					}
				}
				return split(bundle, twinBundle)
			}
			if s, ok := o.Msg.(*types.NotarizationShare); ok && s.Signer == self && s.Proposer == self {
				if rec, ok := twins[s.Round]; ok && s.BlockHash == rec.orig {
					twinShare := &types.NotarizationShare{
						Round: s.Round, Proposer: s.Proposer, BlockHash: rec.twin, Signer: self,
						Sig: priv.Notary.Sign(types.DomainNotarization,
							types.SigningBytes(s.Round, s.Proposer, rec.twin)).Signature,
					}
					return split(s, twinShare)
				}
			}
			return []engine.Output{o}
		},
	}
}
