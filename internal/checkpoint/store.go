package checkpoint

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"icc/internal/obs"
	"icc/internal/types"
)

// retain is the number of certified checkpoints a Store keeps on disk.
// Older files are garbage-collected at Save; the newest one is what peers
// and the local restart path actually use, the rest are operator
// headroom.
const retain = 2

// StoreOptions tunes a Store.
type StoreOptions struct {
	// Registry receives the icc_checkpoint_store_* instruments (nil → none).
	Registry *obs.Registry
}

// Store persists certified checkpoints with atomic-rename durability:
// a checkpoint is written to a temp file, fsynced, and renamed into
// place, so a crash mid-save leaves either the old set or the new one,
// never a torn file. Only call Save with checkpoints that carry a valid
// certificate — the Store trusts its caller (Verify runs on every load
// and on every checkpoint received from a peer, so even a corrupted
// store cannot poison anyone).
//
// All methods are safe for concurrent use (the engine saves while the
// backfill worker serves LatestEncoded) and nil-safe on a nil *Store.
type Store struct {
	dir string

	mu        sync.Mutex
	latest    *Checkpoint // cache, invalidated on Save
	latestRaw []byte

	saves    *obs.Counter
	latestG  *obs.Gauge
	sizeLast *obs.Gauge
}

// OpenStore creates or re-opens a checkpoint directory.
func OpenStore(dir string, opts StoreOptions) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("checkpoint: create dir: %w", err)
	}
	s := &Store{dir: dir}
	if reg := opts.Registry; reg != nil {
		s.saves = reg.Counter("icc_checkpoint_saves_total", "Certified checkpoints persisted to the local store.")
		s.latestG = reg.Gauge("icc_checkpoint_latest_round", "Round of the newest certified checkpoint in the local store.")
		s.sizeLast = reg.Gauge("icc_checkpoint_latest_bytes", "Encoded size of the newest certified checkpoint.")
	}
	if round, ok := s.newestOnDisk(); ok {
		s.latestG.SetMax(float64(round))
	}
	return s, nil
}

func (s *Store) path(round types.Round) string {
	return filepath.Join(s.dir, fmt.Sprintf("checkpoint-%012d.ckpt", round))
}

// files returns the checkpoint rounds present on disk, ascending.
func (s *Store) files() []types.Round {
	names, err := filepath.Glob(filepath.Join(s.dir, "checkpoint-*.ckpt"))
	if err != nil {
		return nil
	}
	rounds := make([]types.Round, 0, len(names))
	for _, name := range names {
		var r uint64
		if _, err := fmt.Sscanf(filepath.Base(name), "checkpoint-%d.ckpt", &r); err == nil {
			rounds = append(rounds, types.Round(r))
		}
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	return rounds
}

func (s *Store) newestOnDisk() (types.Round, bool) {
	rounds := s.files()
	if len(rounds) == 0 {
		return 0, false
	}
	return rounds[len(rounds)-1], true
}

// Save persists a certified checkpoint atomically and prunes old files
// beyond the retention bound. Saving a round at or below the newest on
// disk is a no-op (replay and peer races make that unexceptional).
func (s *Store) Save(c *Checkpoint) error {
	if s == nil || c == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if newest, ok := s.newestOnDisk(); ok && c.Round <= newest {
		return nil
	}
	raw := c.Encode()
	tmp, err := os.CreateTemp(s.dir, "checkpoint-*.tmp")
	if err != nil {
		return fmt.Errorf("checkpoint: temp file: %w", err)
	}
	tmpName := tmp.Name()
	if _, err := tmp.Write(raw); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: write: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: fsync: %w", err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: close: %w", err)
	}
	if err := os.Rename(tmpName, s.path(c.Round)); err != nil {
		os.Remove(tmpName)
		return fmt.Errorf("checkpoint: rename: %w", err)
	}
	s.latest = c
	s.latestRaw = raw
	s.saves.Inc()
	s.latestG.Set(float64(c.Round))
	s.sizeLast.Set(float64(len(raw)))
	rounds := s.files()
	for len(rounds) > retain {
		os.Remove(s.path(rounds[0]))
		rounds = rounds[1:]
	}
	return nil
}

// Latest loads the newest stored checkpoint, or (nil, nil) when the
// store is empty. The result is structurally decoded but NOT verified;
// callers that cannot trust the disk must run Verify.
func (s *Store) Latest() (*Checkpoint, error) {
	if s == nil {
		return nil, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, _, err := s.latestLocked()
	return c, err
}

// LatestEncoded returns the newest checkpoint's wire encoding and
// round, for serving to lagging peers without re-encoding per request.
// ok is false when the store is empty.
func (s *Store) LatestEncoded() (raw []byte, round types.Round, ok bool) {
	if s == nil {
		return nil, 0, false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	c, raw, err := s.latestLocked()
	if err != nil || c == nil {
		return nil, 0, false
	}
	return raw, c.Round, true
}

func (s *Store) latestLocked() (*Checkpoint, []byte, error) {
	newest, ok := s.newestOnDisk()
	if !ok {
		return nil, nil, nil
	}
	if s.latest != nil && s.latest.Round == newest {
		return s.latest, s.latestRaw, nil
	}
	raw, err := os.ReadFile(s.path(newest))
	if err != nil {
		return nil, nil, fmt.Errorf("checkpoint: read: %w", err)
	}
	c, err := Decode(raw)
	if err != nil {
		return nil, nil, err
	}
	s.latest = c
	s.latestRaw = raw
	return c, raw, nil
}

// LatestRound reports the newest stored round (0 when empty).
func (s *Store) LatestRound() types.Round {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	r, _ := s.newestOnDisk()
	return r
}

// Close zeroes the store's gauges (PR 5 convention). The store holds no
// file descriptors between calls, so there is nothing else to release.
func (s *Store) Close() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.latestG.Set(0)
	s.sizeLast.Set(0)
}
