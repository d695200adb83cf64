package core

import (
	"time"

	"icc/internal/obs"
	"icc/internal/types"
)

// ObservedHooks returns base with every per-phase hook additionally
// reporting into ob: round entry/notarization, proposal, share issuance,
// beacon-recovery timing, commits, and resync triggers. base's own
// callbacks still run (after the observer update). A nil ob returns base
// unchanged, so callers wire observability unconditionally.
func ObservedHooks(ob *obs.Observer, base Hooks) Hooks {
	if ob == nil {
		return base
	}
	return Hooks{
		OnEnterRound: func(k types.Round, now time.Duration) {
			ob.EnterRound(uint64(k), now)
			if base.OnEnterRound != nil {
				base.OnEnterRound(k, now)
			}
		},
		OnBeaconRecovered: func(k types.Round, waited, now time.Duration) {
			ob.BeaconRecovered(uint64(k), waited)
			if base.OnBeaconRecovered != nil {
				base.OnBeaconRecovered(k, waited, now)
			}
		},
		OnPropose: func(k types.Round, cut, now time.Duration) {
			ob.Propose(uint64(k), cut, now)
			if base.OnPropose != nil {
				base.OnPropose(k, cut, now)
			}
		},
		OnBlockLag: func(k types.Round, proposer types.PartyID, lag, now time.Duration) {
			ob.BlockLag(lag)
			if base.OnBlockLag != nil {
				base.OnBlockLag(k, proposer, lag, now)
			}
		},
		OnNotarizationShare: func(k types.Round, late, now time.Duration) {
			ob.NotarizationShare(uint64(k), late, now)
			if base.OnNotarizationShare != nil {
				base.OnNotarizationShare(k, late, now)
			}
		},
		OnFinalizationShare: func(k types.Round, now time.Duration) {
			ob.FinalizationShare(uint64(k), now)
			if base.OnFinalizationShare != nil {
				base.OnFinalizationShare(k, now)
			}
		},
		OnFinishRound: func(k types.Round, now time.Duration) {
			ob.FinishRound(uint64(k), now)
			if base.OnFinishRound != nil {
				base.OnFinishRound(k, now)
			}
		},
		OnRankDisqualified: func(k types.Round, rank types.Rank, now time.Duration) {
			ob.RankDisqualified(uint64(k), int(rank), now)
			if base.OnRankDisqualified != nil {
				base.OnRankDisqualified(k, rank, now)
			}
		},
		OnCommit: func(b *types.Block, now time.Duration) {
			ob.Commit(uint64(b.Round), len(b.Payload), now)
			if base.OnCommit != nil {
				base.OnCommit(b, now)
			}
		},
		OnResync: func(k types.Round, now time.Duration) {
			ob.Resync(uint64(k), now)
			if base.OnResync != nil {
				base.OnResync(k, now)
			}
		},
		OnBackfill: func(peer types.PartyID, inline, deferred int, now time.Duration) {
			ob.Backfill(int(peer), inline, deferred, now)
			if base.OnBackfill != nil {
				base.OnBackfill(peer, inline, deferred, now)
			}
		},
		OnRejectedMessage: func(from types.PartyID, reason string) {
			ob.RejectedMessage(reason)
			if base.OnRejectedMessage != nil {
				base.OnRejectedMessage(from, reason)
			}
		},
		OnCheckpoint: func(k types.Round, now time.Duration) {
			ob.Checkpoint(uint64(k), now)
			if base.OnCheckpoint != nil {
				base.OnCheckpoint(k, now)
			}
		},
		OnCheckpointInstalled: func(k types.Round, now time.Duration) {
			ob.CheckpointInstalled(uint64(k), now)
			if base.OnCheckpointInstalled != nil {
				base.OnCheckpointInstalled(k, now)
			}
		},
		OnCheckpointServed: func(peer types.PartyID, k types.Round, now time.Duration) {
			ob.CheckpointServed(int(peer), uint64(k), now)
			if base.OnCheckpointServed != nil {
				base.OnCheckpointServed(peer, k, now)
			}
		},
		OnPayloadOffer: func(peer types.PartyID, k types.Round, payloadBytes int, outcome string, now time.Duration) {
			ob.PayloadOffer(int(peer), uint64(k), payloadBytes, outcome)
			if base.OnPayloadOffer != nil {
				base.OnPayloadOffer(peer, k, payloadBytes, outcome, now)
			}
		},
		OnResyncLost: func(gap types.Round, now time.Duration) {
			ob.ResyncLost(uint64(gap), now)
			if base.OnResyncLost != nil {
				base.OnResyncLost(gap, now)
			}
		},
	}
}
