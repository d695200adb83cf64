// Package oracle states the properties the paper proves (§4) once, over
// what every run produces — each party's committed blocks with times and,
// where the protocol reports them, the rounds it entered and finished and
// the proposals and messages it sent — and judges a run against them. It
// takes no protocol type: simulated and live ICC0/1/2 clusters and the
// baselines of internal/baseline record into a Log and pass through Judge
// unchanged (the factoring of Bertrand et al., PAPERS.md). The same Log
// yields the §1 measures, message complexity, latency and round time,
// through Summarize. DESIGN.md §16 derives the two liveness bounds.
package oracle

import (
	"encoding/binary"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"icc/internal/crypto/hash"
	"icc/internal/types"
)

// Property is one property of §4, or a set of them.
type Property uint8

const (
	Agreement Property = 1 << iota // no two parties commit different blocks at one round
	Chain                          // each party's commits extend one another; every sequence is a prefix of the longest
	Growth                         // after GST every honest party keeps finishing rounds (deadlock-freeness)
	Finality                       // after GST every round an honest party leads is committed by every honest party in time (liveness)
	Stalled                        // no honest party commits: what a run past the fault threshold declares in place of Finality

	Safety = Agreement | Chain          // binds whatever the adversary does
	All    = Safety | Growth | Finality // a run within the fault threshold
)

var propertyNames = []string{"agreement", "chain", "growth", "finality", "stalled"}

// String names the set's properties ("agreement+chain+…"); 0 prints as All,
// which is how Judge reads it.
func (p Property) String() string {
	if p == 0 {
		p = All
	}
	var names []string
	for i, name := range propertyNames {
		if p&(1<<i) != 0 {
			names = append(names, name)
		}
	}
	return strings.Join(names, "+")
}

// ParseProperty inverts String.
func ParseProperty(s string) (Property, error) {
	for p := Property(1); p < 1<<len(propertyNames); p++ {
		if p.String() == s {
			return p, nil
		}
	}
	return 0, fmt.Errorf("oracle: unknown properties %q", s)
}

// Commit is one block a party output: its round, its hash and its
// parent's, its payload's size in bytes, and when. Round entries and
// finishes and proposals are records of Round and At alone.
type Commit struct {
	Round        types.Round
	Hash, Parent hash.Digest
	Payload      int
	At           time.Duration
}

// Log records a run party by party. It is safe for concurrent use: live
// nodes write it from their engine goroutines.
type Log struct {
	mu                                    sync.Mutex
	commits, entered, notarized, proposed [][]Commit
	sent                                  []traffic
	roundMsgs                             map[types.Round]int64 // messages sent in each round
}

// NewLog returns an empty log for parties 0..n−1.
func NewLog(n int) *Log {
	return &Log{
		commits: make([][]Commit, n), entered: make([][]Commit, n), notarized: make([][]Commit, n), proposed: make([][]Commit, n),
		sent: make([]traffic, n), roundMsgs: make(map[types.Round]int64),
	}
}

func (l *Log) add(to [][]Commit, p types.PartyID, c Commit) {
	l.mu.Lock()
	to[p] = append(to[p], c)
	l.mu.Unlock()
}

// Commit records a block party p output at time at.
func (l *Log) Commit(p types.PartyID, b *types.Block, at time.Duration) {
	l.add(l.commits, p, Commit{Round: b.Round, Hash: b.Hash(), Parent: b.ParentHash, Payload: len(b.Payload), At: at})
}

// Decided returns party p's commit hook for a protocol that names a
// decision by its sequence number and payload alone (internal/baseline):
// the record's hash covers both, and its parent is p's previous record.
func (l *Log) Decided(p types.PartyID) func(seq uint64, payload []byte, at time.Duration) {
	return func(seq uint64, payload []byte, at time.Duration) {
		c := Commit{Round: types.Round(seq), Hash: hash.Sum(hash.DomainPayload, binary.BigEndian.AppendUint64(nil, seq), payload), Payload: len(payload), At: at}
		l.mu.Lock()
		defer l.mu.Unlock()
		if prev := l.commits[p]; len(prev) > 0 {
			c.Parent = prev[len(prev)-1].Hash
		}
		l.commits[p] = append(l.commits[p], c)
	}
}

// Enter records that party p entered round k at time at.
func (l *Log) Enter(p types.PartyID, k types.Round, at time.Duration) {
	l.add(l.entered, p, Commit{Round: k, At: at})
}

// Notarized records that party p finished round k — saw a notarized
// round-k block — at time at.
func (l *Log) Notarized(p types.PartyID, k types.Round, at time.Duration) {
	l.add(l.notarized, p, Commit{Round: k, At: at})
}

// Propose records that party p's block proposal for round k left it at
// time at: a proposal a Byzantine party withholds is no proposal.
func (l *Log) Propose(p types.PartyID, k types.Round, at time.Duration) {
	l.add(l.proposed, p, Commit{Round: k, At: at})
}

// Commits returns a copy of party p's commits, in output order.
func (l *Log) Commits(p types.PartyID) []Commit {
	l.mu.Lock()
	defer l.mu.Unlock()
	return slices.Clone(l.commits[p])
}

// Last is party p's latest commit, the zero Commit if it has none.
func (l *Log) Last(p types.PartyID) (c Commit) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if seq := l.commits[p]; len(seq) > 0 {
		c = seq[len(seq)-1]
	}
	return c
}

// Len is how many commits party p has output.
func (l *Log) Len(p types.PartyID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.commits[p])
}

// Fewest is the commit count of the slowest of parties, or of every party
// when none is named.
func (l *Log) Fewest(parties ...types.PartyID) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	least := -1
	count := func(seq []Commit) {
		if least < 0 || len(seq) < least {
			least = len(seq)
		}
	}
	if len(parties) == 0 {
		for _, seq := range l.commits {
			count(seq)
		}
	}
	for _, p := range parties {
		count(l.commits[p])
	}
	return least
}

// Expect is what a run is judged against: the properties, whom they speak
// for, and the inputs the liveness bounds are derived from.
type Expect struct {
	Holds Property // the properties the run must satisfy (0: All)
	// Honest are the parties Growth, Finality and Stalled speak for.
	// Agreement and Chain speak for every party in the log: what writes
	// to it is a protocol engine's output, never a Byzantine wrapper's.
	Honest              []types.PartyID
	DeltaBound, Epsilon time.Duration // eq. (2)'s Δbnd and ε
	// Reach is the longest a message one honest party sends takes to
	// reach every other in the run's dissemination mode.
	Reach time.Duration
	// GST is when the run's last transient fault ended; End when it stopped.
	GST, End time.Duration
	// Ranking returns round k's beacon permutation, nil if unknown.
	Ranking func(k types.Round) []types.PartyID
}

// growthBound is the longest an honest party takes after GST to finish a
// round after the one before, when the round's first honest party has
// rank r: one Reach for everyone to enter, Δntry(r) plus one for that
// party's block (cut no later than Δntry(r): at Δprop(r) for r ≥ 1, and
// rank 0's measured cut is clamped to Δntry(0)), one for a lower-ranked
// block shared instead to reach the rest, one for the shares (DESIGN.md
// §16). Only "cut ≤ Δntry(r)" is used, so the bound holds for any margin
// the leader measured, Byzantine lags included.
func (e Expect) growthBound(r types.Rank) time.Duration {
	_, ntry := types.StandardDelays(e.DeltaBound, e.Epsilon)
	return ntry(r) + 4*e.Reach
}

// finalityBound is the longest after an honest leader enters a round
// until every honest party commits it: its block leaves at the leader's
// cut, Δntry(0) less its measured margin and never later than Δntry(0),
// and is shared by all, and no other beside it, within Δntry(0) plus one
// Reach, then one Reach for the notarization shares and one for the
// finalization shares (DESIGN.md §16).
func (e Expect) finalityBound() time.Duration {
	_, ntry := types.StandardDelays(e.DeltaBound, e.Epsilon)
	return ntry(0) + 3*e.Reach
}

// Judge checks the run in l against e and returns the first violation as
// an error whose message starts with the property's name and names the
// first offending party and round, or nil.
func Judge(l *Log, e Expect) error {
	if e.Holds == 0 {
		e.Holds = All
	}
	if e.Ranking == nil {
		e.Ranking = func(types.Round) []types.PartyID { return nil }
	}
	// A record is never changed once appended, so copying the per-party
	// slices is a snapshot, and Ranking runs without the lock.
	l.mu.Lock()
	j := judge{e, &Log{commits: slices.Clone(l.commits), entered: slices.Clone(l.entered), notarized: slices.Clone(l.notarized)}}
	l.mu.Unlock()
	for i, check := range []func() error{j.agreement, j.chain, j.growth, j.finality, j.stalled} {
		if p := Property(1 << i); e.Holds&p != 0 {
			if err := check(); err != nil {
				return fmt.Errorf("%v: %w", p, err)
			}
		}
	}
	return nil
}

// judge is one Judge call over a snapshot of a log.
type judge struct {
	Expect
	*Log
}

func (j judge) agreement() (bad error) {
	type by struct {
		p int
		h hash.Digest
	}
	first := make(map[types.Round]by)
	var k types.Round
	for p, seq := range j.commits {
		for _, c := range seq {
			if f, ok := first[c.Round]; !ok {
				first[c.Round] = by{p, c.Hash}
			} else if f.h != c.Hash && (bad == nil || c.Round < k) {
				bad, k = fmt.Errorf("party %d committed %s at round %d, party %d %s", p, c.Hash.Short(), c.Round, f.p, f.h.Short()), c.Round
			}
		}
	}
	return bad
}

func (j judge) chain() error {
	longest := j.commits[0]
	for _, seq := range j.commits {
		if len(seq) > len(longest) {
			longest = seq
		}
	}
	for p, seq := range j.commits {
		for i, c := range seq {
			if i > 0 && (c.Parent != seq[i-1].Hash || c.Round <= seq[i-1].Round) {
				return fmt.Errorf("party %d's commit at round %d does not extend its commit at round %d", p, c.Round, seq[i-1].Round)
			}
			if l := longest[i]; c.Hash != l.Hash {
				return fmt.Errorf("party %d's commit %d is round %d %s, the longest sequence's round %d %s", p, i, c.Round, c.Hash.Short(), l.Round, l.Hash.Short())
			}
		}
	}
	return nil
}

func (j judge) growth() error {
	for _, p := range j.Honest {
		at, k := j.GST, types.Round(0)
		for _, m := range j.notarized[p] {
			if b := j.growthBound(j.firstHonestRank(m.Round)); m.At >= j.GST && m.At-at > b {
				return fmt.Errorf("party %d finished round %d at %v, %v after round %d; bound %v", p, m.Round, m.At, m.At-at, k, b)
			}
			at, k = max(at, m.At), m.Round
		}
		if b := j.growthBound(j.firstHonestRank(k + 1)); j.End-at > b {
			return fmt.Errorf("party %d finished no round in the %v after round %d at %v; bound %v", p, j.End-at, k, at, b)
		}
	}
	return nil
}

func (j judge) finality() (bad error) {
	var badK types.Round
	b := j.finalityBound()
	for _, l := range j.Honest {
		for _, m := range j.entered[l] {
			perm, due := j.Ranking(m.Round), m.At+b
			if m.At < j.GST || due > j.End || len(perm) == 0 || perm[0] != l || (bad != nil && m.Round >= badK) {
				continue
			}
			for _, p := range j.Honest {
				seq := j.commits[p]
				if i := slices.IndexFunc(seq, func(c Commit) bool { return c.Round == m.Round }); i < 0 || seq[i].At > due {
					bad, badK = fmt.Errorf("party %d had not committed round %d by %v, %v after its leader %d entered it", p, m.Round, due, b, l), m.Round
					break
				}
			}
		}
	}
	return bad
}

func (j judge) stalled() error {
	for _, p := range j.Honest {
		if seq := j.commits[p]; len(seq) > 0 {
			return fmt.Errorf("party %d committed round %d at %v", p, seq[0].Round, seq[0].At)
		}
	}
	return nil
}

// firstHonestRank is the rank of round k's first honest party; with the
// ranking unknown, the worst case: every other party ranked ahead.
func (j judge) firstHonestRank(k types.Round) types.Rank {
	for r, p := range j.Ranking(k) {
		if slices.Contains(j.Honest, p) {
			return types.Rank(r)
		}
	}
	return types.Rank(len(j.commits) - len(j.Honest))
}
