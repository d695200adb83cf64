package metrics

import (
	"sync"
	"testing"
	"time"

	"icc/internal/types"
)

func TestSendAccounting(t *testing.T) {
	r := NewRecorder(3)
	r.Send(0, 1, 2, 100) // party 0, round 1, 2 recipients of 100 bytes
	r.Send(1, 1, 1, 50)
	r.Send(0, 2, 2, 10)
	if r.RoundMsgs(1) != 3 || r.RoundMsgs(2) != 2 {
		t.Fatalf("round msgs: %d, %d", r.RoundMsgs(1), r.RoundMsgs(2))
	}
	s := r.Summarize()
	if s.TotalBytes != 270 || s.TotalMsgs != 5 {
		t.Fatalf("summary totals: %d bytes, %d msgs", s.TotalBytes, s.TotalMsgs)
	}
	if s.MaxPartyBytes != 220 || s.MaxPartyMsgs != 4 {
		t.Fatalf("summary maxima: %d, %d", s.MaxPartyBytes, s.MaxPartyMsgs)
	}
	if s.MaxRoundMsgs != 3 || s.MeanRoundMsgs != 2.5 {
		t.Fatalf("round stats: %d, %f", s.MaxRoundMsgs, s.MeanRoundMsgs)
	}
}

func TestLatencyTracking(t *testing.T) {
	r := NewRecorder(2)
	r.Propose(1, 100*time.Millisecond)
	r.Propose(1, 90*time.Millisecond) // earlier propose wins
	r.Commit(1, 512, 150*time.Millisecond)
	r.Commit(1, 512, 200*time.Millisecond) // later commit ignored
	s := r.Summarize()
	if s.CommittedBlocks != 1 || s.CommittedBytes != 512 {
		t.Fatalf("commit counters: %d, %d", s.CommittedBlocks, s.CommittedBytes)
	}
	if s.MeanLatency != 60*time.Millisecond || s.P50Latency != 60*time.Millisecond {
		t.Fatalf("latency summary: %v / %v", s.MeanLatency, s.P50Latency)
	}
}

func TestRoundTimeFromFinishes(t *testing.T) {
	r := NewRecorder(1)
	r.FinishRound(1, 100*time.Millisecond)
	r.FinishRound(2, 120*time.Millisecond)
	r.FinishRound(3, 140*time.Millisecond)
	s := r.Summarize()
	if s.MeanRoundTime != 20*time.Millisecond {
		t.Fatalf("mean round time %v", s.MeanRoundTime)
	}
}

func TestConcurrentRecording(t *testing.T) {
	r := NewRecorder(4)
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		p := p
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				r.Send(types.PartyID(p), types.Round(i%10), 3, 64)
				r.FinishRound(types.Round(i%10), time.Duration(i)*time.Millisecond)
			}
		}()
	}
	wg.Wait()
	s := r.Summarize()
	if s.TotalMsgs != 4*500*3 {
		t.Fatalf("lost sends: %d", s.TotalMsgs)
	}
}

func TestEmptySummary(t *testing.T) {
	s := NewRecorder(2).Summarize()
	if s.TotalBytes != 0 || s.MeanLatency != 0 || s.MeanRoundTime != 0 {
		t.Fatal("empty recorder produced non-zero summary")
	}
}
