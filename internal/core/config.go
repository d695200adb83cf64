// Package core implements the ICC family of atomic-broadcast engines:
// ICC0 (paper §3, Figures 1 and 2), and — via dissemination wrappers in
// the gossip and rbc packages — the ICC1 and ICC2 variants.
//
// The engine is an event-driven transliteration of the paper's blocking
// pseudocode: every "wait for" clause of the Tree-Building Subprotocol
// (Fig. 1) and the Finalization Subprotocol (Fig. 2) becomes a condition
// re-evaluated whenever the pool changes or a timer fires.
package core

import (
	"time"

	"icc/internal/beacon"
	"icc/internal/checkpoint"
	"icc/internal/crypto/hash"
	"icc/internal/crypto/keys"
	"icc/internal/pool"
	"icc/internal/types"
	"icc/internal/wal"
)

// DefaultPruneDepth is the standard pool/beacon retention horizon: how
// many rounds of artifacts behind the finalized watermark a node keeps
// for serving laggards. Every deployment entry point (iccnode, iccsim,
// the experiment harness) shares this value unless explicitly tuned.
//
// Retention and checkpointing interlock: a laggard whose gap exceeds
// PruneDepth can no longer be healed by artifact resync (its peers have
// pruned the rounds it needs) and must instead install a certified
// checkpoint. CheckpointInterval should therefore be comfortably below
// PruneDepth, so that by the time artifacts for a round are pruned, a
// checkpoint at or above that round already exists.
const DefaultPruneDepth types.Round = 128

// PayloadSource provides block payloads. getPayload(B_p) of Fig. 1: the
// implementation may inspect the parent and, through lookup, the whole
// chain it extends (e.g. to avoid duplicating commands, paper §3.3).
type PayloadSource interface {
	GetPayload(round types.Round, parent *types.Block, lookup func(hash.Digest) *types.Block) []byte
}

// DelegatedPayloadSource is a PayloadSource that also carries other
// parties' commands (delegate.go, DESIGN.md §19). At the end of every
// turn the engine asks Forward, for each party that may cut the next
// block, what that party has not been sent yet, and hands it over in a
// types.PayloadOffer; the receiving engine passes what arrives to Hold,
// and the source's GetPayload draws the held commands after its own. A
// source without these methods neither forwards nor holds: its commands
// wait for their own party's turn to lead.
//
// Forward returns the commands as a payload and their count, and must
// not return a command twice for one party. Hold's input is untrusted:
// it must keep at most one payload's worth per sender, and GetPayload
// must never let a held command of a client overtake an earlier one that
// is neither committed nor in the chain (the Seq rule). Settle reports,
// per sender, the held commands merged into one of this party's payloads
// for the first time and those dropped at commit without having been.
type DelegatedPayloadSource interface {
	PayloadSource
	Forward(to types.PartyID, parent *types.Block, lookup func(hash.Digest) *types.Block) (payload []byte, cmds int)
	Hold(from types.PartyID, payload []byte) (held, refused int)
	Settle(report func(from types.PartyID, merged, expired int))
}

// Outcomes of forwarded commands, as OnPayloadOffer counts them: each
// command a party sends is, at its receiver, held or refused, and each
// held one ends merged or expired. So sent = held + refused and held =
// merged + expired once the commands are committed everywhere.
const (
	OfferSent    = "sent"    // forwarded to a party that may cut the next block
	OfferHeld    = "held"    // kept by the receiver for its own payloads
	OfferRefused = "refused" // not kept: committed already, a repeat, past the sender's share, or unreadable (counted as one)
	OfferMerged  = "merged"  // a held command drawn into one of the receiver's payloads for the first time
	OfferExpired = "expired" // a held command committed without the receiver having drawn it
)

// EmptyPayload proposes empty payloads (useful for protocol-only tests
// and the "without load" scenario of Table 1).
type EmptyPayload struct{}

// GetPayload implements PayloadSource.
func (EmptyPayload) GetPayload(types.Round, *types.Block, func(hash.Digest) *types.Block) []byte {
	return nil
}

// SizedPayload proposes deterministic filler payloads of a fixed size,
// modelling batches of user commands of a given volume.
type SizedPayload struct {
	Size int
}

// GetPayload implements PayloadSource.
func (s SizedPayload) GetPayload(round types.Round, _ *types.Block, _ func(hash.Digest) *types.Block) []byte {
	p := make([]byte, s.Size)
	seed := hash.SumUint64(hash.DomainPayload, uint64(round))
	for i := range p {
		p[i] = seed[i%len(seed)]
	}
	return p
}

// Hooks are optional instrumentation callbacks; any field may be nil.
type Hooks struct {
	// OnEnterRound fires when the party computes the round's beacon and
	// starts the round in earnest.
	OnEnterRound func(k types.Round, now time.Duration)
	// OnBeaconRecovered fires immediately before OnEnterRound with how
	// long the party waited for round k's beacon to become computable
	// (from finishing round k−1, or from Init for round 1). The wait is
	// measured on the engine's clock between events, so it reads 0
	// whenever R_k was already combined during round k−1
	// (precomputeBeacon), which is the normal case; a positive value now
	// means the shares themselves arrived late.
	OnBeaconRecovered func(k types.Round, waited, now time.Duration)
	// OnPropose fires when the party broadcasts its own block proposal,
	// cut after its entry into round k (the block's Cut).
	OnPropose func(k types.Round, cut, now time.Duration)
	// OnBlockLag fires when the party takes a lag sample (cut.go): round
	// k's rank-0 block of proposer became valid here lag after its cut,
	// both offsets from the two parties' own round entries.
	OnBlockLag func(k types.Round, proposer types.PartyID, lag, now time.Duration)
	// OnNotarizationShare fires when the party issues a notarization
	// share for a round-k block of rank r. late is how long after the
	// party's own Δntry(r) the share was cast: 0 when the block was there
	// before the timer expired and the timer gated the share, above 0 when
	// the block itself arrived after Δntry(r).
	OnNotarizationShare func(k types.Round, late, now time.Duration)
	// OnFinalizationShare fires when the party issues a finalization
	// share for a round-k block.
	OnFinalizationShare func(k types.Round, now time.Duration)
	// OnFinishRound fires when the party sees a notarized block for its
	// current round and moves on.
	OnFinishRound func(k types.Round, now time.Duration)
	// OnRankDisqualified fires when clause (c) of Fig. 1 disqualifies a
	// proposer rank: this party saw two distinct valid round-k blocks of
	// the same rank, proving the proposer equivocated. The adversary
	// campaign uses it to assert Byzantine leaders are actually detected.
	OnRankDisqualified func(k types.Round, rank types.Rank, now time.Duration)
	// OnCommit fires for every block the Finalization Subprotocol
	// outputs, in chain order.
	OnCommit func(b *types.Block, now time.Duration)
	// OnResync fires when the stall detector sends the party's Status
	// to its peers (resync.go).
	OnResync func(k types.Round, now time.Duration)
	// OnBackfill fires when the party answers a lagging peer's Status
	// with a catch-up batch (catchup.go): inline is the number of beacon
	// shares served from the own-share cache (or signed synchronously
	// with no provider wired), deferred the number of share rounds
	// enqueued to the async CatchupProvider.
	OnBackfill func(peer types.PartyID, inline, deferred int, now time.Duration)
	// OnRejectedMessage fires when an inbound artifact fails admission —
	// a bad signature, share, or aggregate, or a structural mismatch
	// against the pool. reason is one of the internal/crypto Reason*
	// labels; it feeds the icc_verify_rejects_total counter. Duplicate
	// deliveries are not rejects and do not fire this hook.
	OnRejectedMessage func(from types.PartyID, reason string)
	// OnCheckpoint fires when the party assembles a certified checkpoint
	// for round k (its own share plus t more matching ones) and persists
	// it to the local store.
	OnCheckpoint func(k types.Round, now time.Duration)
	// OnCheckpointInstalled fires when the party installs a certified
	// checkpoint received from a peer, jumping its frontier to round k.
	OnCheckpointInstalled func(k types.Round, now time.Duration)
	// OnCheckpointServed fires when the party answers a behind-horizon
	// peer's Status with its latest certified checkpoint (round k).
	OnCheckpointServed func(peer types.PartyID, k types.Round, now time.Duration)
	// OnPayloadOffer counts forwarded commands (delegate.go): cmds of
	// them, in round k, met outcome, one of the Offer* constants; peer is
	// the receiver for OfferSent and the sender otherwise. merged / held
	// is how much of what reaches a party rides its blocks.
	OnPayloadOffer func(peer types.PartyID, k types.Round, cmds int, outcome string, now time.Duration)
	// OnResyncLost fires once when the party detects that its gap to the
	// cluster's finalization frontier exceeds PruneDepth with no
	// checkpoint path configured: peers have pruned the artifacts it
	// needs, so resync polling can never succeed.
	OnResyncLost func(gap types.Round, now time.Duration)
}

// Config assembles an engine.
type Config struct {
	Self types.PartyID
	Keys *keys.Public
	Priv keys.Private

	// Beacon is the random-beacon source. If nil, a production
	// threshold-signature beacon is constructed from the key material.
	Beacon beacon.Source

	// DeltaBound is Δbnd, the assumed network-delay bound of the partial
	// synchrony assumption; Epsilon is the ε governor. The Δprop and Δntry
	// delay functions of Fig. 1 are the recommended ones of eq. (2) over
	// these two.
	DeltaBound time.Duration
	Epsilon    time.Duration

	// Adaptive enables the adaptive delay variant discussed in §1: when
	// consecutive rounds pass without any finalization, the engine
	// doubles its working Δbnd (up to adaptiveMax doublings), and resets
	// it after a finalized round. Safety is unaffected — the delay
	// functions only influence liveness.
	Adaptive bool

	// Payload builds block payloads; defaults to EmptyPayload.
	Payload PayloadSource

	Hooks Hooks

	// Pool tunes the artifact pool.
	Pool pool.Options

	// PruneDepth, if positive, prunes pool and beacon state more than
	// this many rounds behind the finalized watermark.
	PruneDepth types.Round

	// Catchup, if non-nil, signs catch-up beacon shares missing from the
	// own-share cache off the engine loop (internal/backfill provides
	// the production worker). Nil keeps signing synchronous inside
	// handleStatus — the deterministic choice for simnet and harness.
	Catchup CatchupProvider

	// WAL, if non-nil, receives every artifact the engine admits or
	// creates, and is flushed (group-commit fsync) before any output
	// leaves the engine — the sync-before-send invariant that makes a
	// crash-restart unable to equivocate. Nil disables persistence (the
	// simnet/experiment default).
	WAL *wal.Log

	// CheckpointInterval, if positive, makes the engine propose a signed
	// checkpoint at every finalized round divisible by it. Keep it well
	// below PruneDepth (see DefaultPruneDepth) so laggards always find a
	// checkpoint newer than the artifact prune horizon.
	CheckpointInterval types.Round

	// Checkpoints, if non-nil, persists certified checkpoints and serves
	// the latest one to peers stuck behind the prune horizon.
	Checkpoints *checkpoint.Store

	// StateSnapshot captures the replicated state immediately after a
	// commit, for inclusion in checkpoints. Nil checkpoints an empty
	// state (protocol-only deployments).
	StateSnapshot func() []byte

	// StateRestore replaces the replicated state with a checkpoint
	// snapshot when installing a certified checkpoint from a peer. Nil
	// skips restoration.
	StateRestore func(state []byte) error
}

// adaptiveMax caps the doublings of the working Δbnd under Config.Adaptive.
const adaptiveMax = 6

// resyncDeltas is how many Δbnd, on top of ε, a round may stall before
// the engine sends every peer its Status (resync.go), and the least time
// between two answers to one peer's Status. ε counts because a round
// that only waits out a silent leader lasts Δntry(1) = 2Δbnd + ε, which
// is no stall. The paper's protocol is quiescent — nothing is ever
// retransmitted — which is safe under the eventual-delivery assumption
// of §1 but deadlocks when the network genuinely loses messages (a TCP
// partition, a crashed and recovered process).
const resyncDeltas = 8

// resyncBatch caps how many rounds of notarized blocks a single catch-up
// response carries to a lagging peer. The lagging party repeats its
// Status as long as it stays behind, so a deep gap is closed batch by
// batch.
const resyncBatch = 128

// withDefaults fills in derived fields.
func (c Config) withDefaults() Config {
	if c.DeltaBound == 0 {
		c.DeltaBound = 100 * time.Millisecond
	}
	if c.Payload == nil {
		c.Payload = EmptyPayload{}
	}
	if c.Beacon == nil {
		c.Beacon = beacon.New(c.Keys.Beacon, c.Priv.Beacon, c.Self, c.Keys.GenesisSeed)
	}
	return c
}
