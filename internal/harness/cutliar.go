package harness

import (
	"math"
	"time"

	"icc/internal/beacon"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/crypto/sig"
	"icc/internal/engine"
	"icc/internal/types"
)

// cutLiar runs the protocol honestly but lies about when it cut its own
// blocks, to steer the other parties' measured cuts (core's cut.go). Under
// CutZero, CutNtry and CutWild it stamps each block it proposes with
// another Cut — 0, Δntry(0), or by turns the largest and the smallest
// duration there is — signs it again and sends that block in place of its
// own. It takes the re-stamped block into its own pool too, and signs its
// notarization share for the re-stamped block. Under CutHold it sends its
// block unchanged, Δntry(0) + Δbnd/2 after its round entry.
type cutLiar struct {
	engine.Engine
	lie         Behavior
	priv        keys.Private
	ntry, bound time.Duration
	restamped   map[hash.Digest]hash.Digest // own block → the block sent in its place
	held        []heldProposal              // CutHold: proposals not sent yet
}

type heldProposal struct {
	at  time.Duration
	out engine.Output
}

func newCutLiar(eng engine.Engine, lie Behavior, priv keys.Private, epsilon, bound time.Duration) *cutLiar {
	return &cutLiar{Engine: eng, lie: lie, priv: priv, ntry: epsilon, bound: bound,
		restamped: make(map[hash.Digest]hash.Digest)}
}

// claim is the Cut the liar puts on its round-k block.
func (l *cutLiar) claim(k types.Round) time.Duration {
	switch {
	case l.lie == CutZero:
		return 0
	case l.lie == CutNtry:
		return l.ntry
	case k%2 == 0:
		return math.MaxInt64
	default:
		return math.MinInt64
	}
}

func (l *cutLiar) rewrite(outs []engine.Output, now time.Duration) []engine.Output {
	var res []engine.Output
	for _, o := range outs {
		bun, b, own := l.ownProposal(o)
		switch {
		case own && l.lie == CutHold:
			l.held = append(l.held, heldProposal{at: now - b.Cut + l.ntry + l.bound/2, out: o})
		case own:
			lied := *b
			lied.Cut = l.claim(b.Round)
			h := lied.Hash()
			l.restamped[b.Hash()] = h
			auth := &types.Authenticator{Round: lied.Round, Proposer: lied.Proposer, BlockHash: h,
				Sig: sig.Sign(l.priv.Auth, types.DomainAuthenticator, types.SigningBytes(lied.Round, lied.Proposer, h))}
			msgs := append([]types.Message{&types.BlockMsg{Block: &lied}, auth}, bun.Messages[2:]...)
			out := &types.Bundle{Messages: msgs}
			res = append(res, engine.Broadcast(out))
			res = append(res, l.rewrite(l.Engine.HandleMessage(l.ID(), out, now), now)...)
		default:
			if s, ok := o.Msg.(*types.NotarizationShare); ok && s.Signer == l.ID() {
				if h, ok := l.restamped[s.BlockHash]; ok {
					o.Msg = &types.NotarizationShare{Round: s.Round, Proposer: s.Proposer, BlockHash: h, Signer: s.Signer,
						Sig: l.priv.Notary.Sign(types.DomainNotarization, types.SigningBytes(s.Round, s.Proposer, h)).Signature}
				}
			}
			res = append(res, o)
		}
	}
	return append(res, l.release(now)...)
}

// ownProposal reports whether o is the bundle the engine broadcasts with
// its own new block first.
func (l *cutLiar) ownProposal(o engine.Output) (*types.Bundle, *types.Block, bool) {
	bun, ok := o.Msg.(*types.Bundle)
	if !ok || bun.Resync || len(bun.Messages) < 2 {
		return nil, nil, false
	}
	bm, ok := bun.Messages[0].(*types.BlockMsg)
	if !ok || bm.Block == nil || bm.Block.Proposer != l.ID() {
		return nil, nil, false
	}
	if _, again := l.restamped[bm.Block.Hash()]; again {
		return nil, nil, false
	}
	return bun, bm.Block, true
}

// release returns the held proposals now due.
func (l *cutLiar) release(now time.Duration) []engine.Output {
	var due []engine.Output
	for len(l.held) > 0 && l.held[0].at <= now {
		due = append(due, l.held[0].out)
		l.held = l.held[1:]
	}
	return due
}

func (l *cutLiar) Init(now time.Duration) []engine.Output {
	return l.rewrite(l.Engine.Init(now), now)
}

func (l *cutLiar) HandleMessage(from types.PartyID, m types.Message, now time.Duration) []engine.Output {
	return l.rewrite(l.Engine.HandleMessage(from, m, now), now)
}

func (l *cutLiar) Tick(now time.Duration) []engine.Output {
	return l.rewrite(l.Engine.Tick(now), now)
}

// Beacon implements engine.Beaconed for the wrapped engine.
func (l *cutLiar) Beacon() beacon.Source { return engine.BeaconOf(l.Engine) }

func (l *cutLiar) NextWake(now time.Duration) (time.Duration, bool) {
	at, ok := l.Engine.NextWake(now)
	if len(l.held) > 0 {
		if due := max(l.held[0].at, now+1); !ok || due < at {
			return due, true
		}
	}
	return at, ok
}
