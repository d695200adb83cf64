package runtime

// Kill -9 and restart under -race: a live four-party cluster where one
// node is killed without warning (its WAL loses the unsynced tail, its
// process state evaporates), then restarted over the same directories.
// The restarted node must recover its durable frontier from checkpoint
// + WAL replay, rejoin over the real transport, and converge back to
// the live frontier with a state identical to its peers' — while a
// second node runs the whole time on a WAL whose fsync fails, proving
// an I/O-degraded log never blocks consensus. Wired by hand rather than
// through internal/node (whose TestKillRestartResumes covers the plain
// restart): the fsync fault goes in through wal.Options.Fault, a seam
// only a test wants.

import (
	"bytes"
	"crypto/rand"
	"errors"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"icc/internal/beacon"
	"icc/internal/checkpoint"
	"icc/internal/clock"
	"icc/internal/core"
	"icc/internal/crypto/keys"
	"icc/internal/pool"
	"icc/internal/transport"
	"icc/internal/types"
	"icc/internal/verify"
	"icc/internal/wal"
)

func TestKillNineRestartResumesFromDurableState(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-second live-cluster test")
	}
	const (
		n      = 4
		victim = 3
		faulty = 1 // this party's WAL loses its disk mid-run
		bound  = 20 * time.Millisecond
	)
	pub, privs, err := keys.Deal(rand.Reader, n)
	if err != nil {
		t.Fatal(err)
	}
	hub := transport.NewInproc(n)
	clk := clock.NewWall()
	base := t.TempDir()

	var mu sync.Mutex
	// stateAt[p][k]: concatenated block-hash state after committing k.
	stateAt := make([]map[types.Round][]byte, n)
	frontier := make([]types.Round, n)
	states := make([][]byte, n)
	for i := range stateAt {
		stateAt[i] = make(map[types.Round][]byte)
	}

	var syncCalls int
	wals := make([]*wal.Log, n)
	stores := make([]*checkpoint.Store, n)
	build := func(i int) *Runner {
		pid := types.PartyID(i)
		var fault wal.FaultHook
		if i == faulty {
			fault = func(op string) error {
				if op != "sync" {
					return nil
				}
				mu.Lock()
				syncCalls++
				c := syncCalls
				mu.Unlock()
				if c > 5 {
					return errors.New("injected: disk gone")
				}
				return nil
			}
		}
		w, err := wal.Open(filepath.Join(base, "party", string(rune('0'+i)), "wal"), wal.Options{Fault: fault})
		if err != nil {
			t.Fatal(err)
		}
		s, err := checkpoint.OpenStore(filepath.Join(base, "party", string(rune('0'+i)), "checkpoints"), checkpoint.StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		wals[i], stores[i] = w, s
		mu.Lock()
		states[i] = nil // restart resets in-memory state; disk decides
		mu.Unlock()
		eng := core.NewEngine(core.Config{
			Self:               pid,
			Keys:               pub,
			Priv:               privs[i],
			Beacon:             beacon.NewSimulated(n, pid, pub.GenesisSeed),
			DeltaBound:         bound,
			PruneDepth:         core.DefaultPruneDepth,
			WAL:                w,
			Checkpoints:        s,
			CheckpointInterval: 8,
			StateSnapshot: func() []byte {
				mu.Lock()
				defer mu.Unlock()
				return append([]byte(nil), states[i]...)
			},
			StateRestore: func(st []byte) error {
				mu.Lock()
				defer mu.Unlock()
				states[i] = append([]byte(nil), st...)
				return nil
			},
			// Production configuration: a verify pipeline per party with
			// the pool admitting pre-verified input — inline VerifyFull
			// under -race cannot keep the round cadence.
			Pool: pool.Options{Policy: pool.VerifyPreVerified},
			Hooks: core.Hooks{
				OnCommit: func(b *types.Block, _ time.Duration) {
					d := b.Hash()
					mu.Lock()
					states[i] = append(states[i], d[:]...)
					stateAt[i][b.Round] = append([]byte(nil), states[i]...)
					if b.Round > frontier[i] {
						frontier[i] = b.Round
					}
					mu.Unlock()
				},
			},
		})
		if _, err := eng.Recover(); err != nil {
			t.Fatalf("party %d: recover: %v", i, err)
		}
		r := NewRunner(eng, hub.Endpoint(pid), clk, n)
		r.SetVerifyPipeline(verify.New(pool.NewVerifier(pub, pool.VerifyFull), verify.Options{Workers: 2}))
		return r
	}

	runners := make([]*Runner, n)
	for i := 0; i < n; i++ {
		runners[i] = build(i)
	}
	t.Cleanup(func() {
		for _, r := range runners {
			r.Stop()
		}
		for _, w := range wals {
			_ = w.Close()
		}
		for _, s := range stores {
			s.Close()
		}
		hub.Close()
	})
	for _, r := range runners {
		r.Start()
	}

	// Phase 1: commit well past a checkpoint boundary.
	waitFor(t, 120*time.Second, "cluster made no progress", func() bool {
		mu.Lock()
		defer mu.Unlock()
		for i := 0; i < n; i++ {
			if frontier[i] < 20 {
				return false
			}
		}
		return true
	})
	if !wals[faulty].Degraded() {
		t.Fatal("fault-injected WAL never degraded — injection not exercised")
	}

	// Phase 2: kill -9 the victim. Stop delivers no courtesy flush; the
	// WAL then drops whatever the OS had not yet synced.
	runners[victim].Stop()
	wals[victim].Crash()
	stores[victim].Close()
	mu.Lock()
	killedAt := frontier[victim]
	mu.Unlock()

	// The survivors (exactly n−t) must keep committing.
	waitFor(t, 60*time.Second, "survivors stalled after the kill", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return frontier[0] >= killedAt+10
	})

	// Phase 3: restart over the same directories. The dead process's
	// inbox contents are gone.
	inbox := hub.Endpoint(types.PartyID(victim)).Inbox()
drain:
	for {
		select {
		case _, ok := <-inbox:
			if !ok {
				break drain
			}
		default:
			break drain
		}
	}
	mu.Lock()
	frontier[victim] = 0
	stateAt[victim] = make(map[types.Round][]byte)
	restartTarget := frontier[0]
	mu.Unlock()
	runners[victim] = build(victim)
	resumed := runners[victim].eng.(*core.Engine).FinalizedRound()
	if resumed == 0 {
		t.Fatal("restart recovered nothing: durable state was lost")
	}
	if resumed > killedAt {
		t.Fatalf("recovered frontier %d ahead of what the killed process committed (%d)", resumed, killedAt)
	}
	runners[victim].Start()

	// Phase 4: the restarted node converges past the frontier the
	// cluster had when it came back.
	waitFor(t, 120*time.Second, "restarted node did not converge", func() bool {
		mu.Lock()
		defer mu.Unlock()
		return frontier[victim] >= restartTarget
	})

	// Safety: at every round both the restarted node and a survivor
	// committed, their states agree byte for byte.
	mu.Lock()
	defer mu.Unlock()
	compared := 0
	for k, st := range stateAt[victim] {
		if want, ok := stateAt[0][k]; ok {
			if !bytes.Equal(st, want) {
				t.Fatalf("state divergence at round %d after restart", k)
			}
			compared++
		}
	}
	if compared == 0 {
		t.Fatal("no common committed rounds between restarted node and survivors")
	}
}

// waitFor polls cond until it holds or the timeout elapses.
func waitFor(t *testing.T, timeout time.Duration, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(20 * time.Millisecond)
	}
	t.Fatal(msg)
}
