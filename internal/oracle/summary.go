package oracle

import (
	"slices"
	"time"

	"icc/internal/types"
)

// traffic is what one party sent: one message per recipient, their
// bytes, and the bytes of those that were recovery traffic.
type traffic struct{ msgs, bytes, recovery int64 }

// Send records that party p, working on round k, sent a message of size
// bytes to recipients parties; recovery marks a Status or an answer to
// one (a Resync-marked bundle). The paper's message complexity counts
// honest parties' messages only (§1), so hosts record theirs alone.
func (l *Log) Send(p types.PartyID, k types.Round, recipients, size int, recovery bool) {
	l.mu.Lock()
	defer l.mu.Unlock()
	bytes := int64(size) * int64(recipients)
	l.sent[p].msgs += int64(recipients)
	l.sent[p].bytes += bytes
	if recovery {
		l.sent[p].recovery += bytes
	}
	l.roundMsgs[k] += int64(recipients)
}

// Summary is what the paper's evaluation reports of a run (§1, §5 Table 1).
type Summary struct {
	Parties         int
	TotalBytes      int64
	TotalMsgs       int64
	MaxPartyBytes   int64 // the "communication bottleneck" measure of [35]
	MaxPartyMsgs    int64
	RecoveryBytes   int64 // of TotalBytes, what stalled parties sent and were answered
	CommittedBlocks int64 // rounds some party committed
	CommittedBytes  int64 // their payloads

	// MeanRoundMsgs is the paper's per-round message complexity averaged
	// over rounds; MaxRoundMsgs the worst round.
	MeanRoundMsgs float64
	MaxRoundMsgs  int64

	// MeanLatency is the mean over committed rounds of the time from the
	// round's earliest proposal to its first commit (paper: 3δ for ICC0);
	// P50Latency and P99Latency are quantiles of the same.
	MeanLatency time.Duration
	P50Latency  time.Duration
	P99Latency  time.Duration

	// MeanRoundTime is the mean gap between the first notarizations of
	// consecutive rounds — the reciprocal throughput (paper: 2δ for ICC0).
	MeanRoundTime time.Duration
}

// Summarize aggregates everything recorded so far.
func (l *Log) Summarize() Summary {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := Summary{Parties: len(l.sent)}
	for _, t := range l.sent {
		s.TotalBytes += t.bytes
		s.TotalMsgs += t.msgs
		s.RecoveryBytes += t.recovery
		s.MaxPartyBytes = max(s.MaxPartyBytes, t.bytes)
		s.MaxPartyMsgs = max(s.MaxPartyMsgs, t.msgs)
	}
	if len(l.roundMsgs) > 0 {
		var total int64
		for _, c := range l.roundMsgs {
			total += c
			s.MaxRoundMsgs = max(s.MaxRoundMsgs, c)
		}
		s.MeanRoundMsgs = float64(total) / float64(len(l.roundMsgs))
	}
	committed, proposed := earliest(l.commits), earliest(l.proposed)
	var lats []time.Duration
	for k, c := range committed {
		s.CommittedBlocks++
		s.CommittedBytes += int64(c.Payload)
		if p, ok := proposed[k]; ok && c.At >= p.At {
			lats = append(lats, c.At-p.At)
		}
	}
	if len(lats) > 0 {
		slices.Sort(lats)
		var total time.Duration
		for _, d := range lats {
			total += d
		}
		s.MeanLatency = total / time.Duration(len(lats))
		s.P50Latency = lats[len(lats)/2]
		s.P99Latency = lats[len(lats)*99/100]
	}
	if finished := earliest(l.notarized); len(finished) >= 2 {
		rounds := make([]types.Round, 0, len(finished))
		for k := range finished {
			rounds = append(rounds, k)
		}
		first, last := slices.Min(rounds), slices.Max(rounds)
		if gap := finished[last].At - finished[first].At; gap > 0 {
			s.MeanRoundTime = gap / time.Duration(len(finished)-1)
		}
	}
	return s
}

// FirstCommits is the first commit of each round by any party: what
// Summarize measures latency and committed blocks against.
func (l *Log) FirstCommits() map[types.Round]Commit {
	l.mu.Lock()
	defer l.mu.Unlock()
	return earliest(l.commits)
}

// earliest is the earliest record of each round among every party's.
func earliest(records [][]Commit) map[types.Round]Commit {
	first := make(map[types.Round]Commit)
	for _, seq := range records {
		for _, c := range seq {
			if f, ok := first[c.Round]; !ok || c.At < f.At {
				first[c.Round] = c
			}
		}
	}
	return first
}
