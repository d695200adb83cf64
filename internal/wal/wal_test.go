package wal

import (
	"errors"
	"os"
	"path/filepath"
	"testing"

	"icc/internal/crypto/hash"
	"icc/internal/obs"
	"icc/internal/types"
)

func share(k types.Round, p types.PartyID) *types.BeaconShare {
	return &types.BeaconShare{Round: k, Signer: p, Share: []byte{byte(k), byte(p), 3, 4}}
}

func nshare(k types.Round) *types.NotarizationShare {
	return &types.NotarizationShare{Round: k, Proposer: 1, BlockHash: hash.SumUint64(hash.DomainBlock, uint64(k)), Signer: 0, Sig: []byte{9, 9}}
}

func replayAll(t *testing.T, l *Log) []types.Message {
	t.Helper()
	var got []types.Message
	if err := l.Replay(func(m types.Message) { got = append(got, m) }); err != nil {
		t.Fatalf("replay: %v", err)
	}
	return got
}

func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	want := []types.Message{share(1, 0), nshare(1), share(2, 1), &types.Finalization{Round: 1, Proposer: 2, Agg: []byte{1}}}
	for _, m := range want {
		l.Append(m)
	}
	if !l.Flush() {
		t.Fatal("flush failed")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("close: %v", err)
	}

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if string(types.Marshal(got[i])) != string(types.Marshal(want[i])) {
			t.Fatalf("record %d mismatch: %v vs %v", i, got[i], want[i])
		}
	}
}

func TestTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.Append(share(1, 0))
	l.Append(share(2, 0))
	l.Flush()
	l.Close()

	// Simulate a crash mid-append: garbage after the last good frame.
	path := segmentPath(dir, 1)
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatalf("open raw: %v", err)
	}
	if _, err := f.Write([]byte{0, 0, 0, 42, 0xde, 0xad}); err != nil {
		t.Fatalf("write garbage: %v", err)
	}
	f.Close()

	reg2 := obs.NewRegistry()
	l2, err := Open(dir, Options{Registry: reg2})
	if err != nil {
		t.Fatalf("reopen torn: %v", err)
	}
	defer l2.Close()
	if got := replayAll(t, l2); len(got) != 2 {
		t.Fatalf("replayed %d records after torn tail, want 2", len(got))
	}
	// The torn bytes must be physically gone so appends continue cleanly.
	l2.Append(share(3, 0))
	if !l2.Flush() {
		t.Fatal("flush after truncation failed")
	}
	l2.Close()
	l3, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("third open: %v", err)
	}
	defer l3.Close()
	if got := replayAll(t, l3); len(got) != 3 {
		t.Fatalf("replayed %d records, want 3", len(got))
	}
}

func TestCorruptMiddleDropsSuffix(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1}) // rotate after every flush
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	for k := types.Round(1); k <= 3; k++ {
		l.Append(share(k, 0))
		l.Flush()
	}
	if l.SegmentCount() < 3 {
		t.Fatalf("expected ≥3 segments, got %d", l.SegmentCount())
	}
	l.Close()

	// Corrupt the first segment's checksum byte.
	path := segmentPath(dir, 1)
	data, _ := os.ReadFile(path)
	data[5] ^= 0xff
	os.WriteFile(path, data, 0o644)

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	if got := replayAll(t, l2); len(got) != 0 {
		t.Fatalf("corrupt first record should leave no durable prefix, replayed %d", len(got))
	}
}

func TestGroupCommitBatching(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	for i := 0; i < 10; i++ {
		l.Append(share(types.Round(i+1), 0))
	}
	if n := l.PendingRecords(); n != 10 {
		t.Fatalf("pending = %d, want 10", n)
	}
	snap := reg.Snapshot()
	if snap["icc_wal_syncs_total"] != 0 {
		t.Fatal("no sync should have happened before Flush")
	}
	l.Flush()
	snap = reg.Snapshot()
	if got := snap["icc_wal_syncs_total"]; got != 1 {
		t.Fatalf("ten appends should group-commit in 1 sync, got %v", got)
	}
	if got := snap["icc_wal_appends_total"]; got != 10 {
		t.Fatalf("appends counter = %v, want 10", got)
	}
}

// TestSyncSecondsTimesEachGroupCommit: a flush with pending records
// times one write+fsync into icc_wal_sync_seconds, a flush with none adds
// no sample.
func TestSyncSecondsTimesEachGroupCommit(t *testing.T) {
	reg := obs.NewRegistry()
	l, err := Open(t.TempDir(), Options{Registry: reg})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	l.Flush()
	if got := reg.Snapshot()["icc_wal_sync_seconds_count"]; got != 0 {
		t.Fatalf("an empty flush recorded %v sync samples", got)
	}
	l.Append(share(1, 0))
	l.Append(share(2, 0))
	l.Flush()
	l.Flush()
	snap := reg.Snapshot()
	if got := snap["icc_wal_sync_seconds_count"]; got != 1 {
		t.Fatalf("one non-empty flush and one empty one recorded %v sync samples, want 1", got)
	}
	if snap["icc_wal_sync_seconds_sum"] <= 0 {
		t.Fatal("the recorded write+fsync took no time")
	}
}

func TestCrashLosesOnlyUnflushed(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.Append(share(1, 0))
	l.Flush()
	l.Append(share(2, 0)) // never flushed: must be lost
	l.Crash()

	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) != 1 {
		t.Fatalf("replayed %d records, want exactly the flushed one", len(got))
	}
	if got[0].(*types.BeaconShare).Round != 1 {
		t.Fatalf("wrong surviving record: %v", got[0])
	}
}

func TestPruneRemovesWholeColdSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir, Options{SegmentBytes: 1})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	defer l.Close()
	for k := types.Round(1); k <= 5; k++ {
		l.Append(share(k, 0))
		l.Flush() // each flush rotates (SegmentBytes: 1)
	}
	before := l.SegmentCount()
	if before < 5 {
		t.Fatalf("expected ≥5 segments, got %d", before)
	}
	l.Prune(4) // segments holding only rounds <4 go
	after := l.SegmentCount()
	if after >= before {
		t.Fatalf("prune removed nothing: %d → %d", before, after)
	}
	got := replayAll(t, l)
	for _, m := range got {
		if r := m.(*types.BeaconShare).Round; r < 4 {
			// Records below the watermark may survive only if they share a
			// segment with newer ones; with per-flush rotation they must not.
			t.Fatalf("round-%d record survived Prune(4)", r)
		}
	}
}

func TestFaultDegradesToMemoryOnly(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	boom := errors.New("injected")
	fail := false
	l, err := Open(dir, Options{
		Registry: reg,
		Fault: func(op string) error {
			if fail && op == "sync" {
				return boom
			}
			return nil
		},
	})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.Append(share(1, 0))
	if !l.Flush() {
		t.Fatal("healthy flush failed")
	}
	fail = true
	l.Append(share(2, 0))
	if l.Flush() {
		t.Fatal("flush should report failure under injected fsync fault")
	}
	if !l.Degraded() {
		t.Fatal("log should be degraded after sync failure")
	}
	// Degraded mode: appends and flushes become no-ops, never panics.
	l.Append(share(3, 0))
	if l.Flush() {
		t.Fatal("degraded flush must keep reporting failure")
	}
	if got := reg.Snapshot()["icc_wal_sync_errors_total"]; got != 1 {
		t.Fatalf("sync_errors = %v, want 1", got)
	}
	l.Close()

	// The pre-fault record is durable; the batch whose fsync failed may
	// or may not have reached the disk (the bytes were written before the
	// sync failed — exactly the real-world ambiguity). What must NOT
	// survive is anything appended after the log degraded.
	l2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer l2.Close()
	got := replayAll(t, l2)
	if len(got) == 0 {
		t.Fatal("pre-fault record lost")
	}
	for _, m := range got {
		if m.(*types.BeaconShare).Round == 3 {
			t.Fatal("record appended after degrade must not be durable")
		}
	}
}

func TestNilLogIsNoOp(t *testing.T) {
	var l *Log
	l.Append(share(1, 0))
	if !l.Flush() {
		t.Fatal("nil flush should succeed")
	}
	l.Prune(10)
	l.Crash()
	if err := l.Close(); err != nil {
		t.Fatalf("nil close: %v", err)
	}
	if err := l.Replay(func(types.Message) { t.Fatal("nil replay fed a record") }); err != nil {
		t.Fatalf("nil replay: %v", err)
	}
	if l.Degraded() || l.PendingRecords() != 0 || l.SegmentCount() != 0 {
		t.Fatal("nil accessors should be zero")
	}
}

func TestCloseZeroesGauges(t *testing.T) {
	dir := t.TempDir()
	reg := obs.NewRegistry()
	l, err := Open(dir, Options{Registry: reg})
	if err != nil {
		t.Fatalf("open: %v", err)
	}
	l.Append(share(1, 0))
	l.Close()
	snap := reg.Snapshot()
	if v := snap["icc_wal_segments"]; v != 0 {
		t.Fatalf("icc_wal_segments = %v after Close, want 0", v)
	}
	if v := snap["icc_wal_pending_bytes"]; v != 0 {
		t.Fatalf("icc_wal_pending_bytes = %v after Close, want 0", v)
	}
}

// FuzzWALReplay feeds arbitrary bytes to Open as a segment file: however
// mangled the tail is (crash mid-append, disk garbage), Open must
// truncate to a valid prefix without panicking, Replay must only yield
// records that decode, and the log must accept new appends afterwards.
func FuzzWALReplay(f *testing.F) {
	good := func() []byte {
		dir := f.TempDir()
		l, err := Open(dir, Options{})
		if err != nil {
			f.Fatal(err)
		}
		l.Append(share(1, 0))
		l.Append(nshare(2))
		l.Flush()
		l.Close()
		data, _ := os.ReadFile(segmentPath(dir, 1))
		return data
	}()
	f.Add(good)
	f.Add(good[:len(good)-3]) // torn mid-frame
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 4, 1, 2, 3, 4, 5, 6, 7, 8})
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "wal-00000001.seg"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("open on fuzzed segment: %v", err)
		}
		n := 0
		if err := l.Replay(func(m types.Message) {
			if m == nil {
				t.Fatal("replay yielded nil message")
			}
			n++
		}); err != nil {
			t.Fatalf("replay: %v", err)
		}
		// The log must remain writable after recovery.
		l.Append(share(9, 1))
		if !l.Flush() {
			t.Fatal("flush after fuzzed recovery failed")
		}
		l.Close()
		l2, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second open: %v", err)
		}
		defer l2.Close()
		n2 := 0
		if err := l2.Replay(func(types.Message) { n2++ }); err != nil {
			t.Fatalf("second replay: %v", err)
		}
		if n2 != n+1 {
			t.Fatalf("second replay saw %d records, want %d", n2, n+1)
		}
	})
}
