// Package metrics collects the measurements the paper's evaluation
// reports: per-party messages and bytes sent, per-round message counts,
// block commit latencies, and block production rate (paper §1 message
// complexity, §5 Table 1).
package metrics

import (
	"sort"
	"sync"
	"time"

	"icc/internal/types"
)

// Recorder accumulates measurements for one protocol run. Safe for
// concurrent use.
type Recorder struct {
	mu sync.Mutex

	n         int
	bytesSent []int64
	msgsSent  []int64

	// roundMsgs counts messages sent by honest parties per round — the
	// paper's "message complexity" (one broadcast by one party counts n).
	roundMsgs map[types.Round]int64

	// proposeTime records when the first proposal for a round was sent;
	// commitTime when the first party finalized the round's block.
	proposeTime map[types.Round]time.Duration
	commitTime  map[types.Round]time.Duration
	// roundDone records, per party, when it finished the round; used to
	// derive reciprocal throughput.
	roundDone map[types.Round]time.Duration

	committedBlocks int64
	committedBytes  int64
}

// NewRecorder creates a recorder for n parties.
func NewRecorder(n int) *Recorder {
	return &Recorder{
		n:           n,
		bytesSent:   make([]int64, n),
		msgsSent:    make([]int64, n),
		roundMsgs:   make(map[types.Round]int64),
		proposeTime: make(map[types.Round]time.Duration),
		commitTime:  make(map[types.Round]time.Duration),
		roundDone:   make(map[types.Round]time.Duration),
	}
}

// Send records a message of the given encoded size sent by party p to
// `recipients` recipients during `round`.
func (r *Recorder) Send(p types.PartyID, round types.Round, recipients, size int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bytesSent[p] += int64(size) * int64(recipients)
	r.msgsSent[p] += int64(recipients)
	r.roundMsgs[round] += int64(recipients)
}

// Propose records the time the first proposal for a round was broadcast.
func (r *Recorder) Propose(round types.Round, at time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.proposeTime[round]; !ok || at < cur {
		r.proposeTime[round] = at
	}
}

// FinishRound records a party finishing a round (seeing a notarized
// block for it).
func (r *Recorder) FinishRound(round types.Round, at time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.roundDone[round]; !ok || at < cur {
		r.roundDone[round] = at
	}
}

// Commit records a block of the given payload size being committed
// (finalized chain extended) at the given time.
func (r *Recorder) Commit(round types.Round, payloadBytes int, at time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if cur, ok := r.commitTime[round]; !ok || at < cur {
		r.commitTime[round] = at
		r.committedBlocks++
		r.committedBytes += int64(payloadBytes)
	}
}

// Summary is an aggregate view of a run.
type Summary struct {
	Parties         int
	TotalBytes      int64
	TotalMsgs       int64
	MaxPartyBytes   int64 // the "communication bottleneck" measure of [35]
	MaxPartyMsgs    int64
	CommittedBlocks int64
	CommittedBytes  int64

	// MeanRoundMsgs is the paper's per-round message complexity averaged
	// over rounds; MaxRoundMsgs the worst round.
	MeanRoundMsgs float64
	MaxRoundMsgs  int64

	// MeanLatency is the mean proposal→commit latency (paper: 3δ for
	// ICC0); quantiles over committed rounds.
	MeanLatency time.Duration
	P50Latency  time.Duration
	P99Latency  time.Duration

	// MeanRoundTime is the mean gap between consecutive round
	// completions — the reciprocal throughput (paper: 2δ for ICC0).
	MeanRoundTime time.Duration
}

// RoundMsgs returns the message complexity of one round.
func (r *Recorder) RoundMsgs(round types.Round) int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.roundMsgs[round]
}

// Summarize aggregates everything recorded so far.
func (r *Recorder) Summarize() Summary {
	r.mu.Lock()
	defer r.mu.Unlock()
	s := Summary{Parties: r.n, CommittedBlocks: r.committedBlocks, CommittedBytes: r.committedBytes}
	for p := 0; p < r.n; p++ {
		s.TotalBytes += r.bytesSent[p]
		s.TotalMsgs += r.msgsSent[p]
		if r.bytesSent[p] > s.MaxPartyBytes {
			s.MaxPartyBytes = r.bytesSent[p]
		}
		if r.msgsSent[p] > s.MaxPartyMsgs {
			s.MaxPartyMsgs = r.msgsSent[p]
		}
	}
	if len(r.roundMsgs) > 0 {
		var total int64
		for _, c := range r.roundMsgs {
			total += c
			if c > s.MaxRoundMsgs {
				s.MaxRoundMsgs = c
			}
		}
		s.MeanRoundMsgs = float64(total) / float64(len(r.roundMsgs))
	}
	// Latencies.
	lats := make([]time.Duration, 0, len(r.commitTime))
	for round, c := range r.commitTime {
		if p, ok := r.proposeTime[round]; ok && c >= p {
			lats = append(lats, c-p)
		}
	}
	if len(lats) > 0 {
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		var total time.Duration
		for _, l := range lats {
			total += l
		}
		s.MeanLatency = total / time.Duration(len(lats))
		s.P50Latency = lats[len(lats)/2]
		s.P99Latency = lats[len(lats)*99/100]
	}
	// Reciprocal throughput: mean gap between consecutive round finishes.
	if len(r.roundDone) >= 2 {
		rounds := make([]types.Round, 0, len(r.roundDone))
		for k := range r.roundDone {
			rounds = append(rounds, k)
		}
		sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
		first := r.roundDone[rounds[0]]
		last := r.roundDone[rounds[len(rounds)-1]]
		if last > first {
			s.MeanRoundTime = (last - first) / time.Duration(len(rounds)-1)
		}
	}
	return s
}
