package obs

import (
	"strconv"
	"sync"
	"time"
)

// HealthTracker derives liveness from commit recency: a consensus node
// that has stopped committing is stalled no matter how healthy its
// process looks. Shared across observers when several parties report
// into one health signal (the in-process facade cluster).
type HealthTracker struct {
	mu      sync.Mutex
	created time.Time
	last    time.Time
	commits uint64
}

// NewHealthTracker starts the clock: until the first commit, age is
// measured from creation.
func NewHealthTracker() *HealthTracker {
	return &HealthTracker{created: time.Now()}
}

// Touch records one commit. Safe on nil.
func (h *HealthTracker) Touch() {
	if h == nil {
		return
	}
	h.mu.Lock()
	h.last = time.Now()
	h.commits++
	h.mu.Unlock()
}

// Health is the /healthz payload.
type Health struct {
	Stalled              bool    `json:"stalled"`
	Commits              uint64  `json:"commits"`
	LastCommitAgeSeconds float64 `json:"last_commit_age_seconds"`
	StallAfterSeconds    float64 `json:"stall_after_seconds"`
}

// Health evaluates the stall condition: more than stallAfter since the
// last commit (or since creation, before the first commit).
func (h *HealthTracker) Health(stallAfter time.Duration) Health {
	if h == nil {
		return Health{}
	}
	h.mu.Lock()
	last := h.last
	if last.IsZero() {
		last = h.created
	}
	commits := h.commits
	h.mu.Unlock()
	age := time.Since(last)
	return Health{
		Stalled:              stallAfter > 0 && age > stallAfter,
		Commits:              commits,
		LastCommitAgeSeconds: age.Seconds(),
		StallAfterSeconds:    stallAfter.Seconds(),
	}
}

// ObserverConfig assembles an Observer. Zero-value fields get defaults.
type ObserverConfig struct {
	// Registry receives the instruments (nil → a fresh private registry).
	// Several observers may share one registry: families are registered
	// idempotently and their counters aggregate across parties.
	Registry *Registry
	// Tracer receives protocol events (nil → a fresh DefaultTraceCap ring).
	Tracer *Tracer
	// Party stamps trace events with the recording party.
	Party int
	// Health receives commit heartbeats (nil → a fresh private tracker).
	Health *HealthTracker
}

// Observer is one party's view onto the obs substrate: the standard
// consensus instrument set, registered on a (possibly shared) registry,
// plus trace emission and commit-recency health. Its methods mirror the
// core engine's per-phase hooks (see core.ObservedHooks) and the runtime
// event loop. All methods are safe on a nil *Observer, so instrumented
// code records unconditionally.
type Observer struct {
	Registry *Registry
	Tracer   *Tracer
	HealthT  *HealthTracker

	party int

	roundsEntered  *Counter
	roundsDone     *Counter
	proposals      *Counter
	notarShares    *Counter
	finalShares    *Counter
	commits        *Counter
	commitBytes    *Counter
	resyncs        *Counter
	backfills      *Counter
	backfillInline *Counter
	backfillDefer  *Counter
	msgsReceived   *Counter
	ticks          *Counter
	ranksDisq      *Counter
	rejects        *CounterVec
	payloadOffers  *CounterVec
	ckptCreated    *Counter
	ckptInstalled  *Counter
	ckptServed     *Counter
	resyncLost     *Counter
	currentRound   *Gauge
	finalizedRound *Gauge

	beaconWait      *Histogram
	roundDuration   *Histogram
	commitLatency   *Histogram
	notarShareDelay *Histogram
	finalShareDelay *Histogram

	mu      sync.Mutex
	enterAt map[uint64]time.Duration // round → protocol time it was entered
}

// enterAtCap bounds the per-round entry-time map; rounds that never
// commit (we were partitioned and caught up past them) must not leak.
const enterAtCap = 4096

// NewObserver builds an observer and registers the standard instrument
// set on cfg.Registry.
func NewObserver(cfg ObserverConfig) *Observer {
	reg := cfg.Registry
	if reg == nil {
		reg = NewRegistry()
	}
	tr := cfg.Tracer
	if tr == nil {
		tr = NewTracer(0)
	}
	ht := cfg.Health
	if ht == nil {
		ht = NewHealthTracker()
	}
	o := &Observer{
		Registry: reg,
		Tracer:   tr,
		HealthT:  ht,
		party:    cfg.Party,
		enterAt:  make(map[uint64]time.Duration),

		roundsEntered:  reg.Counter("icc_rounds_entered_total", "Rounds this node has entered (beacon revealed)."),
		roundsDone:     reg.Counter("icc_rounds_notarized_total", "Rounds finished with a notarized block."),
		proposals:      reg.Counter("icc_proposals_total", "Block proposals broadcast by this node."),
		notarShares:    reg.Counter("icc_notarization_shares_total", "Notarization shares issued by this node."),
		finalShares:    reg.Counter("icc_finalization_shares_total", "Finalization shares issued by this node."),
		commits:        reg.Counter("icc_blocks_committed_total", "Blocks output by the finalization subprotocol."),
		commitBytes:    reg.Counter("icc_committed_payload_bytes_total", "Payload bytes across committed blocks."),
		resyncs:        reg.Counter("icc_resyncs_total", "Stall-triggered resynchronisation broadcasts."),
		backfills:      reg.Counter("icc_resync_backfill_responses_total", "Catch-up responses sent to lagging peers."),
		backfillInline: reg.Counter("icc_resync_backfill_shares_inline_total", "Catch-up beacon shares answered inline (cache hit or synchronous signing)."),
		backfillDefer:  reg.Counter("icc_resync_backfill_rounds_deferred_total", "Catch-up share rounds handed to the async backfill worker."),
		msgsReceived:   reg.Counter("icc_runtime_messages_received_total", "Messages delivered to the engine event loop."),
		ticks:          reg.Counter("icc_runtime_ticks_total", "Timer ticks delivered to the engine event loop."),
		ranksDisq:      reg.Counter("icc_ranks_disqualified_total", "Proposer ranks disqualified for equivocation (Fig. 1 clause (c))."),
		rejects:        reg.CounterVec("icc_verify_rejects_total", "Inbound artifacts rejected at admission, by reason.", "reason"),
		payloadOffers:  reg.CounterVec("icc_core_payload_offers_total", "Payload offers to and from the next round's leader, by outcome (sent, merged, late, parent_mismatch, refused).", "outcome"),
		ckptCreated:    reg.Counter("icc_checkpoint_created_total", "Certified checkpoints this node assembled (own share plus t matching peer shares)."),
		ckptInstalled:  reg.Counter("icc_checkpoint_installed_total", "Certified checkpoints installed from peers (behind-horizon restores)."),
		ckptServed:     reg.Counter("icc_checkpoint_served_total", "Checkpoint transfers offered to peers stuck behind the prune horizon."),
		resyncLost:     reg.Counter("icc_resync_lost_total", "Times this node detected an unrecoverable lag (gap beyond the prune horizon with no checkpoint path)."),
		currentRound:   reg.Gauge("icc_current_round", "Round the engine is currently working on."),
		finalizedRound: reg.Gauge("icc_finalized_round", "Highest round this node has committed."),

		beaconWait:      reg.Histogram("icc_beacon_wait_seconds", "Wait for a round's beacon to become available.", nil),
		roundDuration:   reg.Histogram("icc_round_duration_seconds", "Round entry to notarized completion.", nil),
		commitLatency:   reg.Histogram("icc_commit_latency_seconds", "Round entry to commit of that round's block.", nil),
		notarShareDelay: reg.Histogram("icc_notarization_share_delay_seconds", "Round entry to this node's notarization share.", nil),
		finalShareDelay: reg.Histogram("icc_finalization_share_delay_seconds", "Round entry to this node's finalization share.", nil),
	}
	return o
}

// trace records one event stamped with this observer's party.
func (o *Observer) trace(kind string, round uint64, detail string) {
	o.Tracer.Record(Event{Party: o.party, Kind: kind, Round: round, Detail: detail})
}

// sinceEnter returns now − enter-time of round k, if known.
func (o *Observer) sinceEnter(k uint64, now time.Duration) (time.Duration, bool) {
	o.mu.Lock()
	at, ok := o.enterAt[k]
	o.mu.Unlock()
	if !ok || now < at {
		return 0, false
	}
	return now - at, true
}

// BeaconRecovered records the wait for round k's beacon.
func (o *Observer) BeaconRecovered(k uint64, waited time.Duration) {
	if o == nil {
		return
	}
	o.beaconWait.Observe(waited.Seconds())
}

// EnterRound records round entry at protocol time now.
func (o *Observer) EnterRound(k uint64, now time.Duration) {
	if o == nil {
		return
	}
	o.roundsEntered.Inc()
	o.currentRound.SetMax(float64(k))
	o.mu.Lock()
	o.enterAt[k] = now
	if len(o.enterAt) > enterAtCap {
		for old := range o.enterAt {
			if old+enterAtCap/2 < k {
				delete(o.enterAt, old)
			}
		}
	}
	o.mu.Unlock()
	o.trace(KindRoundEntered, k, "")
}

// Propose records this node broadcasting its own proposal.
func (o *Observer) Propose(k uint64, now time.Duration) {
	if o == nil {
		return
	}
	o.proposals.Inc()
	o.trace(KindProposed, k, "")
}

// NotarizationShare records this node issuing a notarization share.
func (o *Observer) NotarizationShare(k uint64, now time.Duration) {
	if o == nil {
		return
	}
	o.notarShares.Inc()
	if d, ok := o.sinceEnter(k, now); ok {
		o.notarShareDelay.Observe(d.Seconds())
	}
	o.trace(KindNotarShare, k, "")
}

// FinalizationShare records this node issuing a finalization share.
func (o *Observer) FinalizationShare(k uint64, now time.Duration) {
	if o == nil {
		return
	}
	o.finalShares.Inc()
	if d, ok := o.sinceEnter(k, now); ok {
		o.finalShareDelay.Observe(d.Seconds())
	}
	o.trace(KindFinalShare, k, "")
}

// FinishRound records the round completing with a notarized block.
func (o *Observer) FinishRound(k uint64, now time.Duration) {
	if o == nil {
		return
	}
	o.roundsDone.Inc()
	if d, ok := o.sinceEnter(k, now); ok {
		o.roundDuration.Observe(d.Seconds())
	}
	o.trace(KindRoundNotarized, k, "")
}

// Commit records one block committed.
func (o *Observer) Commit(k uint64, payloadBytes int, now time.Duration) {
	if o == nil {
		return
	}
	o.commits.Inc()
	o.commitBytes.Add(int64(payloadBytes))
	o.finalizedRound.SetMax(float64(k))
	if d, ok := o.sinceEnter(k, now); ok {
		o.commitLatency.Observe(d.Seconds())
	}
	o.mu.Lock()
	delete(o.enterAt, k)
	o.mu.Unlock()
	o.HealthT.Touch()
	o.trace(KindCommitted, k, strconv.Itoa(payloadBytes)+" payload bytes")
}

// Resync records a stall-triggered resynchronisation broadcast.
func (o *Observer) Resync(k uint64, now time.Duration) {
	if o == nil {
		return
	}
	o.resyncs.Inc()
	o.trace(KindResync, k, "")
}

// Backfill records one catch-up response to a lagging peer: inline
// beacon shares answered on the spot, deferred share rounds enqueued to
// the async worker.
func (o *Observer) Backfill(peer int, inline, deferred int, now time.Duration) {
	if o == nil {
		return
	}
	o.backfills.Inc()
	o.backfillInline.Add(int64(inline))
	o.backfillDefer.Add(int64(deferred))
	o.trace(KindBackfill, 0, "peer "+strconv.Itoa(peer)+": "+strconv.Itoa(inline)+" inline, "+strconv.Itoa(deferred)+" deferred")
}

// Checkpoint records one certified checkpoint assembled locally.
func (o *Observer) Checkpoint(k uint64, now time.Duration) {
	if o == nil {
		return
	}
	o.ckptCreated.Inc()
	o.trace(KindCheckpoint, k, "assembled")
}

// CheckpointInstalled records one certified checkpoint installed from a
// peer, jumping this node's frontier to round k.
func (o *Observer) CheckpointInstalled(k uint64, now time.Duration) {
	if o == nil {
		return
	}
	o.ckptInstalled.Inc()
	o.trace(KindCheckpoint, k, "installed")
}

// CheckpointServed records one checkpoint transfer offered to a peer
// stuck behind the prune horizon.
func (o *Observer) CheckpointServed(peer int, k uint64, now time.Duration) {
	if o == nil {
		return
	}
	o.ckptServed.Inc()
	o.trace(KindCheckpoint, k, "served to peer "+strconv.Itoa(peer))
}

// ResyncLost records the detection of an unrecoverable lag.
func (o *Observer) ResyncLost(gap uint64, now time.Duration) {
	if o == nil {
		return
	}
	o.resyncLost.Inc()
	o.trace(KindResyncLost, 0, strconv.FormatUint(gap, 10)+" rounds behind the frontier")
}

// RankDisqualified records clause (c) disqualifying a proposer rank:
// this node saw two distinct valid blocks of one rank — proof the
// proposer equivocated (the adversary campaign's detection signal).
func (o *Observer) RankDisqualified(k uint64, rank int, now time.Duration) {
	if o == nil {
		return
	}
	o.ranksDisq.Inc()
	o.trace(KindRankDisq, k, "rank "+strconv.Itoa(rank))
}

// RejectedMessage records one inbound artifact failing admission,
// labeled with the internal/crypto reason classification.
func (o *Observer) RejectedMessage(reason string) {
	if o == nil {
		return
	}
	o.rejects.With(reason).Inc()
}

// PayloadOffer records one delegated-payload offer: sent by this node to
// the round's leader (peer), or received from peer and merged into this
// node's proposal, late, cut against another parent, or refused.
func (o *Observer) PayloadOffer(peer int, k uint64, payloadBytes int, outcome string) {
	if o == nil {
		return
	}
	o.payloadOffers.With(outcome).Inc()
	o.trace(KindPayloadOffer, k, outcome+": peer "+strconv.Itoa(peer)+", "+strconv.Itoa(payloadBytes)+" command bytes")
}

// MessageReceived records one message delivered to the event loop.
func (o *Observer) MessageReceived() {
	if o == nil {
		return
	}
	o.msgsReceived.Inc()
}

// TickFired records one timer tick delivered to the event loop.
func (o *Observer) TickFired() {
	if o == nil {
		return
	}
	o.ticks.Inc()
}

// Snapshot returns the common map view of the observer's registry.
func (o *Observer) Snapshot() Snapshot {
	if o == nil {
		return Snapshot{}
	}
	return o.Registry.Snapshot()
}
