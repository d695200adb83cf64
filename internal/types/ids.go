// Package types defines the core protocol vocabulary of the ICC
// reproduction — party identities, rounds, ranks, blocks, and every wire
// message the protocols exchange — together with a hand-rolled binary
// codec. Artifact classification (authentic / valid / notarized /
// finalized, paper §3.4) lives in the pool package; this package is pure
// data.
package types

import (
	"fmt"
	"time"
)

// PartyID identifies one of the n parties, indexed from 0.
type PartyID int

// Round is a protocol round number; round 0 is the genesis (root) round,
// real rounds start at 1 (paper §3.4).
type Round uint64

// Rank is a party's position in the round's random permutation;
// rank 0 is the round leader (paper §3.3).
type Rank int

// String implements fmt.Stringer for readable traces.
func (p PartyID) String() string { return fmt.Sprintf("P%d", int(p)) }

// MaxFaults returns the largest t with t < n/3, the corruption bound the
// ICC protocols tolerate (paper §1).
func MaxFaults(n int) int {
	if n < 1 {
		return 0
	}
	return (n - 1) / 3
}

// NotaryQuorum returns n−t, the number of signature shares required to
// form a notarization or finalization (paper §3.2: (t, n−t, n) schemes).
func NotaryQuorum(n int) int { return n - MaxFaults(n) }

// BeaconQuorum returns t+1, the number of beacon shares required to
// reconstruct a beacon value (paper §3.2: (t, t+1, n) scheme).
func BeaconQuorum(n int) int { return MaxFaults(n) + 1 }

// CheckpointQuorum returns t+1, the number of checkpoint signature
// shares that make a checkpoint certificate self-authenticating: any
// t+1 set contains at least one honest signer, and an honest party only
// signs a checkpoint commitment for state it derived from the finalized
// chain.
func CheckpointQuorum(n int) int { return MaxFaults(n) + 1 }

// DelayFunc maps a proposer rank to a delay, the shape of the Δprop and
// Δntry delay functions of the Tree-Building Subprotocol (paper §3.5).
// Implementations must be non-decreasing in the rank.
type DelayFunc func(r Rank) time.Duration

// StandardDelays returns the delay functions of paper eq. (2), with the
// proposals moved three quarters into the ε governor:
//
//	Δprop(r) = 2·Δbnd·r + ε − ε/4
//	Δntry(r) = 2·Δbnd·r + ε
//
// (ε − ε/4 rather than 3ε/4, so that Δntry(r) − Δprop(r) is ε/4 exactly
// in whole nanoseconds.) The ε "governor" keeps the protocol from running too fast; it may be 0,
// and then these are eq. (2) exactly. Liveness asks only that
// 2·Δbnd + Δprop(0) ≤ Δntry(1) (§4), which holds for any cut in [0, ε];
// and Δprop(r) ≤ Δntry(r) keeps every block out no later than its rank's
// share is due. The rank-0 leader, which would otherwise cut its block on
// entry and idle out the ε the others wait, cuts it with the commands
// forwarded to it meanwhile: at Δntry(0) less how late the others' blocks
// reach it, each party not yet measured counted at this Δntry(0) −
// Δprop(0) (core's cut.go, DESIGN.md §2), so a fresh leader cuts at
// Δprop(0). Δprop(0) still times the beacon's precomputation and the
// rank-1 forwards.
func StandardDelays(deltaBound, epsilon time.Duration) (dprop, dntry DelayFunc) {
	dprop = func(r Rank) time.Duration { return 2*deltaBound*time.Duration(r) + epsilon - epsilon/4 }
	dntry = func(r Rank) time.Duration { return 2*deltaBound*time.Duration(r) + epsilon }
	return dprop, dntry
}
