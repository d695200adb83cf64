package icc

import (
	"context"
	"fmt"
	"sync"
	"testing"
	"time"

	"icc/internal/oracle"
)

func TestLocalClusterCommitsCommands(t *testing.T) {
	// Wall-clock test: generous Δbnd and deadlines, because `go test
	// ./...` runs this alongside CPU-heavy crypto packages.
	c, err := NewLocalCluster(4, WithDeltaBound(50*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	events := 0
	c.OnCommit(func(CommitEvent) { mu.Lock(); events++; mu.Unlock() })
	c.Start()
	defer c.Stop()

	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	for i := uint64(1); i <= 10; i++ {
		if _, err := c.Client(0).Submit(ctx, Command{Client: 1, Seq: i, Op: OpSet, Key: fmt.Sprintf("k%d", i), Value: []byte("v")}); err != nil {
			t.Fatalf("submit %d rejected: %v", i, err)
		}
	}
	// Wait until every replica holds k10 AND all state hashes agree,
	// under one overall deadline.
	deadline := time.Now().Add(120 * time.Second)
	converged := false
	for time.Now().Before(deadline) && !converged {
		converged = true
		want := c.KV(0).StateHash()
		for p := 0; p < 4; p++ {
			if _, ok := c.KV(p).Get("k10"); !ok || c.KV(p).StateHash() != want {
				converged = false
				break
			}
		}
		if !converged {
			time.Sleep(20 * time.Millisecond)
		}
	}
	if !converged {
		for p := 0; p < 4; p++ {
			_, ok := c.KV(p).Get("k10")
			t.Logf("party %d: %d keys, k10=%v, state %s", p, c.KV(p).Len(), ok, c.KV(p).StateHash().Short())
		}
		t.Fatal("replicas did not converge on the submitted commands")
	}
	mu.Lock()
	defer mu.Unlock()
	if events == 0 {
		t.Fatal("OnCommit never fired")
	}
}

func TestLocalClusterModes(t *testing.T) {
	for _, mode := range []Mode{ICC0, ICC1, ICC2} {
		mode := mode
		t.Run(fmt.Sprintf("mode%d", mode), func(t *testing.T) {
			c, err := NewLocalCluster(4, WithMode(mode), WithDeltaBound(20*time.Millisecond))
			if err != nil {
				t.Fatal(err)
			}
			c.Start()
			defer c.Stop()
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
			defer cancel()
			if _, err := c.Client(0).Submit(ctx, Command{Client: 1, Seq: 1, Op: OpSet, Key: "x", Value: []byte("y")}); err != nil {
				t.Fatalf("submit rejected: %v", err)
			}
			if !c.WaitForCommits(3, 30*time.Second) {
				t.Fatalf("mode %d made no progress", mode)
			}
		})
	}
}

func TestLocalClusterWithCrash(t *testing.T) {
	c, err := NewLocalCluster(4, WithDeltaBound(20*time.Millisecond), WithBehavior(2, CrashFromBirth))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	if !c.WaitForCommits(3, 30*time.Second) {
		t.Fatal("no progress with one crashed party")
	}
	if c.CommittedBlocks(2) != 0 {
		t.Fatal("crashed party committed")
	}
}

func TestNewLocalClusterValidation(t *testing.T) {
	if _, err := NewLocalCluster(0); err == nil {
		t.Fatal("n=0 accepted")
	}
	// Gossip topology is validated, not clamped: a fanout the cluster
	// size cannot satisfy fails construction.
	if _, err := NewLocalCluster(4, WithMode(ICC1), WithGossipTopology(99, 7)); err == nil {
		t.Fatal("out-of-range gossip fanout accepted")
	}
}

func TestSimFacade(t *testing.T) {
	s, err := NewSim(SimOptions{N: 4, Seed: 1, SimBeacon: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Start()
	if !s.RunUntilCommitted(5, time.Minute) {
		t.Fatal("sim made no progress")
	}
	if err := s.Judge(oracle.Safety); err != nil {
		t.Fatal(err)
	}
}
