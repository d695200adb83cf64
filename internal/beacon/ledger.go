package beacon

import (
	"fmt"

	"icc/internal/crypto"
	"icc/internal/types"
)

// shareLedger holds the beacon shares received for rounds not yet revealed,
// together with what is known about each one's validity. A share can only
// be checked once R_{k−1} is known, so it is admitted unverified and judged
// when a Reveal first needs it; the verdict is then kept:
//
//   - a share that passed is never verified again, and later Reveals
//     combine the passed ones first;
//   - a share that failed is evicted and its signer ignored for the rest
//     of the round, so one forged share costs one verification and not one
//     per Reveal attempt.
//
// The first share admitted for a signer decides that signer's slot for the
// round, as it always has: shares are relayed (resync bundles, gossip), so
// a share's sender says nothing about who made it, and a forgery arriving
// ahead of the real share displaces it. Beacon liveness therefore needs
// t+1 signers whose first-arriving share is genuine.
//
// S is the backend's decoded share type. A ledger is not safe for
// concurrent use; the owning beacon serialises access.
type shareLedger[S any] struct {
	rounds map[types.Round]*roundShares[S]
	// verifies counts the verify calls collect has made (read by tests).
	verifies int
}

type roundShares[S any] struct {
	held     map[types.PartyID]*heldShare[S]
	rejected map[types.PartyID]struct{}
}

type heldShare[S any] struct {
	share    S
	verified bool
}

func newShareLedger[S any]() *shareLedger[S] {
	return &shareLedger[S]{rounds: make(map[types.Round]*roundShares[S])}
}

// add records signer's round-k share. trusted marks a share that needs no
// verification (the party's own, exactly as it signed it). It reports
// whether the share was newly admitted: false for a second share from the
// same signer, false with an error for a signer whose share already failed
// this round.
func (l *shareLedger[S]) add(k types.Round, signer types.PartyID, share S, trusted bool) (bool, error) {
	r := l.rounds[k]
	if r == nil {
		r = &roundShares[S]{held: make(map[types.PartyID]*heldShare[S])}
		l.rounds[k] = r
	}
	if _, bad := r.rejected[signer]; bad {
		return false, fmt.Errorf("beacon: round %d: signer %d already sent an invalid share: %w", k, signer, crypto.ErrBadShare)
	}
	if _, dup := r.held[signer]; dup {
		return false, nil
	}
	r.held[signer] = &heldShare[S]{share: share, verified: trusted}
	return true, nil
}

// count returns the number of shares held for round k; evicted ones do
// not count.
func (l *shareLedger[S]) count(k types.Round) int {
	r := l.rounds[k]
	if r == nil {
		return 0
	}
	return len(r.held)
}

// collect returns threshold valid round-k shares of the n parties, or nil
// if the ledger cannot supply that many. Shares already verified come
// first; unverified ones are then judged with verify, in ascending party
// order, only until the threshold is reached. A share that fails is
// evicted and its signer rejected for the round.
func (l *shareLedger[S]) collect(k types.Round, n, threshold int, verify func(S) error) []S {
	r := l.rounds[k]
	if r == nil || len(r.held) < threshold {
		return nil
	}
	valid := make([]S, 0, threshold)
	for p := 0; p < n && len(valid) < threshold; p++ {
		if h := r.held[types.PartyID(p)]; h != nil && h.verified {
			valid = append(valid, h.share)
		}
	}
	for p := 0; p < n && len(valid) < threshold; p++ {
		signer := types.PartyID(p)
		h := r.held[signer]
		if h == nil || h.verified {
			continue
		}
		l.verifies++
		if err := verify(h.share); err != nil {
			delete(r.held, signer)
			if r.rejected == nil {
				r.rejected = make(map[types.PartyID]struct{})
			}
			r.rejected[signer] = struct{}{}
			continue
		}
		h.verified = true
		valid = append(valid, h.share)
	}
	if len(valid) < threshold {
		return nil
	}
	return valid
}
