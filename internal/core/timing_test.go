package core

import (
	"testing"
	"time"

	"icc/internal/simnet"
)

// TestSteadyStateTiming checks the headline performance claims of the
// paper (§1): with an honest leader and network delay δ ≤ Δbnd, ICC0
// finishes a round every ≈2δ (reciprocal throughput) and commits a
// proposed block after ≈3δ (latency).
func TestSteadyStateTiming(t *testing.T) {
	const delta = 10 * time.Millisecond
	h := newHarness(t, harnessOptions{
		n:          7,
		seed:       3,
		delay:      simnet.Fixed{D: delta},
		deltaBound: 50 * time.Millisecond,
		simBeacon:  true, // timing shape, not crypto, is under test
	})
	h.net.Start()
	if !h.net.RunUntil(func() bool { return h.log.Len(0) >= 50 }, 60*time.Second) {
		t.Fatal("no progress")
	}
	s := h.log.Summarize()

	// Reciprocal throughput: expect ≈ 2δ. Allow [1.5δ, 3δ] to absorb
	// startup effects.
	if s.MeanRoundTime < delta*3/2 || s.MeanRoundTime > delta*3 {
		t.Errorf("mean round time %v, want ≈ 2δ = %v", s.MeanRoundTime, 2*delta)
	}
	// Latency: proposal → first commit, expect ≈ 3δ.
	if s.MeanLatency < delta*2 || s.MeanLatency > delta*4 {
		t.Errorf("mean latency %v, want ≈ 3δ = %v", s.MeanLatency, 3*delta)
	}
	t.Logf("round time %v (2δ=%v), latency %v (3δ=%v), round msgs mean %.0f",
		s.MeanRoundTime, 2*delta, s.MeanLatency, 3*delta, s.MeanRoundMsgs)
}

// TestOptimisticResponsiveness: the round time must track the actual
// network delay δ, not the pessimistic bound Δbnd (paper §1: ICC is
// optimistically responsive, unlike Tendermint).
func TestOptimisticResponsiveness(t *testing.T) {
	const delta = 5 * time.Millisecond
	h := newHarness(t, harnessOptions{
		n:          4,
		seed:       4,
		delay:      simnet.Fixed{D: delta},
		deltaBound: 2 * time.Second, // Δbnd 400x larger than δ
		simBeacon:  true,
	})
	h.net.Start()
	if !h.net.RunUntil(func() bool { return h.log.Len(0) >= 20 }, 120*time.Second) {
		t.Fatal("no progress")
	}
	s := h.log.Summarize()
	if s.MeanRoundTime > 10*delta {
		t.Errorf("round time %v is not responsive (δ=%v, Δbnd=2s)", s.MeanRoundTime, delta)
	}
	t.Logf("responsive round time %v with Δbnd=2s, δ=%v", s.MeanRoundTime, delta)
}

// TestMessageComplexitySynchronous: in synchronous rounds with honest
// parties the message complexity should be O(n²) — concretely here,
// bounded by a small constant times n², not n³ (paper §1).
func TestMessageComplexitySynchronous(t *testing.T) {
	const n = 13
	h := newHarness(t, harnessOptions{
		n:         n,
		seed:      5,
		delay:     simnet.Fixed{D: 10 * time.Millisecond},
		simBeacon: true,
	})
	h.net.Start()
	if !h.net.RunUntil(func() bool { return h.log.Len(0) >= 20 }, 60*time.Second) {
		t.Fatal("no progress")
	}
	s := h.log.Summarize()
	// Each round: n beacon shares + 1 proposal bundle + n notarization
	// shares + n notarizations + n finalization shares + n finalizations
	// ≈ 5n broadcasts ⇒ ≈ 5n(n−1) messages. Anything over, say, 8n²
	// would indicate the O(n³) path is being taken.
	limit := float64(8 * n * n)
	if s.MeanRoundMsgs > limit {
		t.Errorf("mean round messages %.0f exceeds O(n²) budget %.0f", s.MeanRoundMsgs, limit)
	}
	t.Logf("n=%d: mean round msgs %.0f (n²=%d)", n, s.MeanRoundMsgs, n*n)
}
