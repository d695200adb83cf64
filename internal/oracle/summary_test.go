package oracle

import (
	"sync"
	"testing"
	"time"

	"icc/internal/types"
)

func TestSendAccounting(t *testing.T) {
	l := NewLog(3)
	l.Send(0, 1, 2, 100, false) // party 0, round 1, 2 recipients of 100 bytes
	l.Send(1, 1, 1, 50, false)
	l.Send(0, 2, 2, 10, true) // a Status to two peers
	s := l.Summarize()
	if s.TotalBytes != 270 || s.TotalMsgs != 5 || s.RecoveryBytes != 20 {
		t.Fatalf("summary totals: %d bytes (%d recovery), %d msgs", s.TotalBytes, s.RecoveryBytes, s.TotalMsgs)
	}
	if s.MaxPartyBytes != 220 || s.MaxPartyMsgs != 4 {
		t.Fatalf("summary maxima: %d, %d", s.MaxPartyBytes, s.MaxPartyMsgs)
	}
	// Round 1 carried 3 messages and round 2 carried 2.
	if s.MaxRoundMsgs != 3 || s.MeanRoundMsgs != 2.5 {
		t.Fatalf("round stats: %d, %f", s.MaxRoundMsgs, s.MeanRoundMsgs)
	}
}

func TestLatencyTracking(t *testing.T) {
	l, blocks := NewLog(2), chainOf(1)
	blocks[1].Payload = make([]byte, 512)
	l.Propose(0, 1, 100*ms)
	l.Propose(1, 1, 90*ms) // the earlier proposal wins
	l.Commit(0, blocks[1], 150*ms)
	l.Commit(1, blocks[1], 200*ms) // the later commit is ignored
	s := l.Summarize()
	if s.CommittedBlocks != 1 || s.CommittedBytes != 512 {
		t.Fatalf("commit counters: %d, %d", s.CommittedBlocks, s.CommittedBytes)
	}
	if s.MeanLatency != 60*ms || s.P50Latency != 60*ms || s.P99Latency != 60*ms {
		t.Fatalf("latency summary: %v / %v / %v", s.MeanLatency, s.P50Latency, s.P99Latency)
	}
	if first := l.FirstCommits()[1]; first.At != 150*ms || first.Payload != 512 {
		t.Fatalf("round 1's first commit: %+v", first)
	}
}

func TestRoundTimeFromFinishes(t *testing.T) {
	l := NewLog(2)
	l.Notarized(0, 1, 100*ms)
	l.Notarized(1, 1, 105*ms) // a later finish of round 1 is not its first
	l.Notarized(0, 2, 120*ms)
	l.Notarized(0, 3, 140*ms)
	if s := l.Summarize(); s.MeanRoundTime != 20*ms {
		t.Fatalf("mean round time %v", s.MeanRoundTime)
	}
}

func TestConcurrentRecording(t *testing.T) {
	l := NewLog(4)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p types.PartyID) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				l.Send(p, types.Round(i%10), 3, 64, false)
				l.Notarized(p, types.Round(i%10), time.Duration(i)*ms)
			}
		}(types.PartyID(p))
	}
	wg.Wait()
	if s := l.Summarize(); s.TotalMsgs != 4*500*3 {
		t.Fatalf("lost sends: %d", s.TotalMsgs)
	}
}

func TestEmptySummary(t *testing.T) {
	s := NewLog(2).Summarize()
	if s != (Summary{Parties: 2}) {
		t.Fatalf("empty log produced %+v", s)
	}
}

func TestFewest(t *testing.T) {
	l, blocks := NewLog(3), chainOf(2)
	l.Commit(0, blocks[1], 10*ms)
	l.Commit(0, blocks[2], 20*ms)
	l.Commit(2, blocks[1], 10*ms)
	if got := l.Fewest(0, 2); got != 1 {
		t.Fatalf("fewest of parties 0 and 2 = %d, want 1", got)
	}
	if got := l.Fewest(); got != 0 {
		t.Fatalf("fewest of every party = %d, want 0", got)
	}
}
