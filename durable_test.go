package icc

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"icc/internal/wal"
)

// lastRounds tracks the highest round each party reported through
// OnCommit, and the first.
type lastRounds struct {
	mu          sync.Mutex
	first, last []uint64
}

func trackRounds(c *LocalCluster, n int) *lastRounds {
	r := &lastRounds{first: make([]uint64, n), last: make([]uint64, n)}
	c.OnCommit(func(e CommitEvent) {
		r.mu.Lock()
		if r.first[e.Party] == 0 {
			r.first[e.Party] = e.Round
		}
		if e.Round > r.last[e.Party] {
			r.last[e.Party] = e.Round
		}
		r.mu.Unlock()
	})
	return r
}

// TestDurableClusterResumesOnSameDirectory is the facade's durability
// path end to end: a cluster run WithWALDir and WithCheckpointInterval,
// stopped, and rebuilt on the same directory comes back with every
// replica's state intact before any network traffic, continues from the
// round it stopped in rather than from round 1, and keeps committing.
func TestDurableClusterResumesOnSameDirectory(t *testing.T) {
	const n = 4
	dir := t.TempDir()
	build := func() *LocalCluster {
		c, err := NewLocalCluster(n, WithDeltaBound(20*time.Millisecond), WithWALDir(dir), WithCheckpointInterval(8))
		if err != nil {
			t.Fatal(err)
		}
		return c
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	write := func(c *LocalCluster, seq uint64) {
		t.Helper()
		for p := 0; p < n; p++ {
			r, err := c.Client(p).Submit(ctx, Command{Client: uint64(p + 1), Seq: seq, Op: OpSet,
				Key: fmt.Sprintf("k%d/%d", p, seq), Value: []byte("v")})
			if err != nil {
				t.Fatalf("submit via party %d: %v", p, err)
			}
			ack, err := r.Wait(ctx)
			if err != nil {
				t.Fatalf("party %d never acknowledged: %v", p, err)
			}
			// The token makes the write visible on every replica, so all
			// of them have applied it before the cluster stops.
			for q := 0; q < n; q++ {
				if _, err := c.Client(q).Read(ctx, fmt.Sprintf("k%d/%d", p, seq), ack.CommitIndex); err != nil {
					t.Fatalf("read on party %d: %v", q, err)
				}
			}
		}
	}

	c1 := build()
	before := trackRounds(c1, n)
	c1.Start()
	if !c1.WaitForCommits(20, 120*time.Second) {
		t.Fatal("first run made no progress")
	}
	write(c1, 1)
	c1.Stop()
	want := c1.KV(0).StateHash()

	c2 := build()
	defer c2.Stop()
	for p := 0; p < n; p++ {
		if got := c2.KV(p).StateHash(); got != want {
			t.Fatalf("party %d recovered state %s, stopped with %s", p, got.Short(), want.Short())
		}
	}
	after := trackRounds(c2, n)
	c2.Start()
	write(c2, 2)
	after.mu.Lock()
	defer after.mu.Unlock()
	for p := 0; p < n; p++ {
		if after.first[p] <= before.last[p] {
			t.Fatalf("party %d stopped after round %d and resumed by committing round %d", p, before.last[p], after.first[p])
		}
	}
}

// TestConstructionFailureReleasesEarlierParties makes party 2's
// durability directory a regular file. NewLocalCluster must fail, and
// what parties 0 and 1 already held — open WAL segments, checkpoint
// stores, verify and backfill workers, the hub — must be released.
func TestConstructionFailureReleasesEarlierParties(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "party-2"), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	if _, err := NewLocalCluster(4, WithWALDir(dir)); err == nil {
		t.Fatal("cluster built on a directory party 2 cannot use")
	}
	w, err := wal.Open(filepath.Join(dir, "party-0", "wal"), wal.Options{})
	if err != nil {
		t.Fatalf("party 0's WAL after the failed construction: %v", err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > base {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the failed construction, %d before", runtime.NumGoroutine(), base)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestBLSCertificatesCommit runs the facade on BLS12-381 aggregate
// certificates. The from-scratch pairing takes about a second, so one
// committed block is the whole test.
func TestBLSCertificatesCommit(t *testing.T) {
	if testing.Short() {
		t.Skip("BLS pairings are slow")
	}
	c, err := NewLocalCluster(4, WithCertScheme("bls"), WithDeltaBound(2*time.Second))
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	defer c.Stop()
	if !c.WaitForCommits(1, 5*time.Minute) {
		t.Fatal("no block committed under BLS certificates")
	}
}
