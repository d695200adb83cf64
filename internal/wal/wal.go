// Package wal implements the write-ahead log of the durability layer:
// an append-only, length-prefixed, CRC-checksummed segment log for the
// artifacts a party must not forget across a crash — pool artifacts it
// admitted, beacon shares it signed or received, and finalization
// aggregates.
//
// The central invariant the engine builds on top is sync-before-send:
// every artifact is appended at admission time but buffered in memory,
// and the engine calls Flush (group-commit: one write + one fsync for
// the whole batch) before any output leaves the process. A signature
// another party may have seen is therefore always on disk; shares that
// were lost in a crash were never sent, so a restarted party cannot be
// tricked into contradicting its pre-crash self.
//
// Crash anatomy, and why replay is safe:
//
//   - A record is framed as u32 length | u32 CRC-32 (IEEE) | payload.
//     A crash mid-write leaves a torn tail: a short frame or a CRC
//     mismatch. Open scans every segment, truncates the file at the
//     first bad frame, and deletes any later segments — replay then
//     sees exactly the durable prefix of the append order.
//   - Replay feeds each record back through the engine's ordinary
//     ingest path with output emission and share creation suppressed,
//     so recovery is idempotent: replaying twice (or replaying records
//     that also arrived from peers) only re-admits duplicates, which
//     every pool and beacon admission path already tolerates.
//
// A Log degrades instead of failing: if a write or fsync errors (disk
// full, injected fault), it stops persisting, counts the failure, and
// lets the node keep running memory-only — durability is a feature of
// this reproduction, not a safety precondition of the protocol.
//
// All methods are nil-safe no-ops on a nil *Log, so the engine wires
// the WAL unconditionally and configurations without one cost nothing.
package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"icc/internal/obs"
	"icc/internal/types"
)

// FaultHook injects I/O failures for chaos testing. It is consulted
// before each physical operation with op ∈ {"write", "sync"}; a non-nil
// return is treated exactly like the real syscall failing.
type FaultHook func(op string) error

// DefaultSegmentBytes is the rotation threshold for segment files.
const DefaultSegmentBytes = 4 << 20

// Options tunes a Log. The zero value selects defaults.
type Options struct {
	// SegmentBytes rotates to a fresh segment file once the current one
	// exceeds this size (0 → DefaultSegmentBytes). Rotation bounds how
	// much Prune can reclaim at once: only whole closed segments whose
	// every record is below the prune watermark are deleted.
	SegmentBytes int64
	// Registry receives the icc_wal_* instruments (nil → none).
	Registry *obs.Registry
	// Fault, when non-nil, is consulted before each write and sync.
	Fault FaultHook
}

// frameHeader is u32 payload length followed by u32 CRC-32 (IEEE).
const frameHeader = 8

// maxRecordBytes bounds a single record so a corrupt length prefix in a
// torn tail cannot trigger a huge allocation during Open. It matches
// the wire codec's own per-field cap.
const maxRecordBytes = 16 << 20

// segment is one on-disk log file plus the replay-derived facts Prune
// needs: the highest round any of its records mentions.
type segment struct {
	seq      uint64
	path     string
	size     int64
	maxRound types.Round
	records  int
}

// Log is a crash-consistent append-only message log. Create with Open;
// safe for concurrent use, though the engine drives it from one loop.
type Log struct {
	dir  string
	opts Options

	mu       sync.Mutex
	segs     []segment // closed segments, ascending seq
	cur      segment   // segment open for append
	f        *os.File
	pending  [][]byte // marshaled payloads awaiting group commit
	pendMax  types.Round
	degraded bool
	closed   bool

	appends     *obs.Counter
	appendBytes *obs.Counter
	syncs       *obs.Counter
	syncSeconds *obs.Histogram
	syncErrors  *obs.Counter
	replayed    *obs.Counter
	truncBytes  *obs.Counter
	segments    *obs.Gauge
	pendingG    *obs.Gauge
}

// Open creates or re-opens the log in dir, validating every segment and
// truncating the torn tail left by a crash: the file is cut at the
// first short or checksum-failing frame and any later segments are
// deleted, leaving exactly the durable prefix of the append order.
func Open(dir string, opts Options) (*Log, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	l := &Log{dir: dir, opts: opts}
	if reg := opts.Registry; reg != nil {
		l.appends = reg.Counter("icc_wal_appends_total", "Records appended to the write-ahead log.")
		l.appendBytes = reg.Counter("icc_wal_append_bytes_total", "Payload bytes appended to the write-ahead log.")
		l.syncs = reg.Counter("icc_wal_syncs_total", "Group-commit flushes (write+fsync batches) of the write-ahead log.")
		l.syncSeconds = reg.Histogram("icc_wal_sync_seconds", "Time to write and fsync one non-empty group commit of the write-ahead log.", nil)
		l.syncErrors = reg.Counter("icc_wal_sync_errors_total", "Failed WAL writes or fsyncs; each one degrades the log to memory-only.")
		l.replayed = reg.Counter("icc_wal_replayed_records_total", "Records replayed from the write-ahead log at recovery.")
		l.truncBytes = reg.Counter("icc_wal_truncated_bytes_total", "Torn-tail bytes truncated from the write-ahead log on open.")
		l.segments = reg.Gauge("icc_wal_segments", "Segment files currently comprising the write-ahead log.")
		l.pendingG = reg.Gauge("icc_wal_pending_bytes", "Appended bytes buffered in memory awaiting the next group commit.")
	}
	if err := l.scan(); err != nil {
		return nil, err
	}
	return l, nil
}

func segmentPath(dir string, seq uint64) string {
	return filepath.Join(dir, fmt.Sprintf("wal-%08d.seg", seq))
}

// scan discovers, validates, and truncates the on-disk segments, then
// opens the tail segment for append.
func (l *Log) scan() error {
	names, err := filepath.Glob(filepath.Join(l.dir, "wal-*.seg"))
	if err != nil {
		return fmt.Errorf("wal: scan dir: %w", err)
	}
	sort.Strings(names)
	var segs []segment
	for _, path := range names {
		var seq uint64
		if _, err := fmt.Sscanf(filepath.Base(path), "wal-%d.seg", &seq); err != nil {
			continue // foreign file; leave it alone
		}
		segs = append(segs, segment{seq: seq, path: path})
	}
	for i := range segs {
		good, maxRound, records, torn, err := validateSegment(segs[i].path)
		if err != nil {
			return err
		}
		segs[i].size = good
		segs[i].maxRound = maxRound
		segs[i].records = records
		if torn > 0 {
			if err := os.Truncate(segs[i].path, good); err != nil {
				return fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			l.truncBytes.Add(torn)
			// Everything after a torn segment is not a durable prefix of
			// the append order; drop it.
			for _, later := range segs[i+1:] {
				if fi, statErr := os.Stat(later.path); statErr == nil {
					l.truncBytes.Add(fi.Size())
				}
				if err := os.Remove(later.path); err != nil {
					return fmt.Errorf("wal: remove post-tear segment: %w", err)
				}
			}
			segs = segs[:i+1]
			break
		}
	}
	if len(segs) == 0 {
		segs = []segment{{seq: 1, path: segmentPath(l.dir, 1)}}
	}
	tail := segs[len(segs)-1]
	f, err := os.OpenFile(tail.path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("wal: open tail segment: %w", err)
	}
	l.f = f
	l.cur = tail
	l.segs = segs[:len(segs)-1]
	l.segments.Set(float64(len(l.segs)) + 1)
	return nil
}

// validateSegment walks a segment's frames and returns the byte offset
// of the last good frame boundary, the highest round mentioned, the
// record count, and how many torn bytes follow the good prefix.
func validateSegment(path string) (good int64, maxRound types.Round, records int, torn int64, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, 0, 0, fmt.Errorf("wal: read segment: %w", err)
	}
	off := 0
	for {
		if len(data)-off < frameHeader {
			break
		}
		n := binary.BigEndian.Uint32(data[off:])
		sum := binary.BigEndian.Uint32(data[off+4:])
		if n > maxRecordBytes || len(data)-off-frameHeader < int(n) {
			break
		}
		payload := data[off+frameHeader : off+frameHeader+int(n)]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		if m, derr := types.Unmarshal(payload); derr == nil {
			if r := roundOf(m); r > maxRound {
				maxRound = r
			}
		}
		records++
		off += frameHeader + int(n)
	}
	return int64(off), maxRound, records, int64(len(data) - off), nil
}

// roundOf extracts the protocol round a message belongs to, for
// segment retention decisions. Unknown kinds map to round 0 and pin
// their segment until it also holds nothing newer — conservative, never
// wrong.
func roundOf(m types.Message) types.Round {
	switch v := m.(type) {
	case *types.BlockMsg:
		if v.Block != nil {
			return v.Block.Round
		}
	case *types.Authenticator:
		return v.Round
	case *types.NotarizationShare:
		return v.Round
	case *types.Notarization:
		return v.Round
	case *types.FinalizationShare:
		return v.Round
	case *types.Finalization:
		return v.Round
	case *types.BeaconShare:
		return v.Round
	case *types.CheckpointShare:
		return v.Round
	}
	return 0
}

// Append buffers one record for the next group commit. It never blocks
// and never touches the disk; durability happens at Flush. No-op when
// the log is nil, closed, or degraded.
func (l *Log) Append(m types.Message) {
	if l == nil || m == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.degraded {
		return
	}
	payload := types.Marshal(m)
	l.pending = append(l.pending, payload)
	l.pendingG.Add(float64(len(payload)))
	if r := roundOf(m); r > l.pendMax {
		l.pendMax = r
	}
}

// Flush group-commits every pending record: one buffered write of all
// frames followed by one fsync, then segment rotation if the tail grew
// past SegmentBytes. On any failure the log degrades to memory-only
// (the node keeps running; icc_wal_sync_errors_total counts the event).
// Returns false if the log is degraded (now or before).
func (l *Log) Flush() bool {
	if l == nil {
		return true
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed || l.degraded {
		return !l.degraded
	}
	if len(l.pending) == 0 {
		return true
	}
	var buf []byte
	var payloadBytes int64
	for _, payload := range l.pending {
		var hdr [frameHeader]byte
		binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
		binary.BigEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		buf = append(buf, hdr[:]...)
		buf = append(buf, payload...)
		payloadBytes += int64(len(payload))
	}
	count := len(l.pending)
	l.pending = l.pending[:0]
	l.pendingG.Set(0)
	if l.pendMax > l.cur.maxRound {
		l.cur.maxRound = l.pendMax
	}
	l.pendMax = 0
	start := time.Now()
	if err := l.faultOr("write", func() error {
		_, werr := l.f.Write(buf)
		return werr
	}); err != nil {
		l.degrade()
		return false
	}
	if err := l.faultOr("sync", l.f.Sync); err != nil {
		l.degrade()
		return false
	}
	l.syncSeconds.Observe(time.Since(start).Seconds())
	l.cur.size += int64(len(buf))
	l.cur.records += count
	l.appends.Add(int64(count))
	l.appendBytes.Add(payloadBytes)
	l.syncs.Inc()
	if l.cur.size >= l.opts.SegmentBytes {
		l.rotate()
	}
	return true
}

func (l *Log) faultOr(op string, real func() error) error {
	if l.opts.Fault != nil {
		if err := l.opts.Fault(op); err != nil {
			return err
		}
	}
	return real()
}

// degrade flips the log to memory-only mode. Caller holds l.mu.
func (l *Log) degrade() {
	l.degraded = true
	l.syncErrors.Inc()
	l.pending = nil
	l.pendingG.Set(0)
	if l.f != nil {
		_ = l.f.Close()
		l.f = nil
	}
}

// rotate closes the current segment and starts the next. Caller holds
// l.mu; the current segment is already synced.
func (l *Log) rotate() {
	f, err := os.OpenFile(segmentPath(l.dir, l.cur.seq+1), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		l.degrade()
		return
	}
	_ = l.f.Close()
	l.segs = append(l.segs, l.cur)
	l.f = f
	l.cur = segment{seq: l.cur.seq + 1, path: segmentPath(l.dir, l.cur.seq+1)}
	l.segments.Set(float64(len(l.segs)) + 1)
}

// Replay streams every durable record, in append order, through fn.
// Call it once, after Open and before the first Append, feeding the
// engine's recovery ingest. Records that fail to decode (a kind from a
// future version, say) are skipped, not fatal.
func (l *Log) Replay(fn func(types.Message)) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	files := make([]string, 0, len(l.segs)+1)
	for _, s := range l.segs {
		files = append(files, s.path)
	}
	files = append(files, l.cur.path)
	l.mu.Unlock()
	for _, path := range files {
		data, err := os.ReadFile(path)
		if err != nil {
			if os.IsNotExist(err) {
				continue // fresh tail segment, never written
			}
			return fmt.Errorf("wal: replay read: %w", err)
		}
		off := 0
		for len(data)-off >= frameHeader {
			n := binary.BigEndian.Uint32(data[off:])
			if n > maxRecordBytes || len(data)-off-frameHeader < int(n) {
				break // scan already truncated; defensive
			}
			payload := data[off+frameHeader : off+frameHeader+int(n)]
			off += frameHeader + int(n)
			m, derr := types.Unmarshal(payload)
			if derr != nil {
				continue
			}
			l.replayed.Inc()
			fn(m)
		}
	}
	return nil
}

// Prune deletes closed segments every record of which is below the
// given round — called after a checkpoint makes the covered history
// redundant. The open tail segment is never deleted.
func (l *Log) Prune(before types.Round) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	keep := l.segs[:0]
	for _, s := range l.segs {
		if s.maxRound < before {
			_ = os.Remove(s.path)
			continue
		}
		keep = append(keep, s)
	}
	l.segs = keep
	l.segments.Set(float64(len(l.segs)) + 1)
}

// Degraded reports whether the log has stopped persisting after an I/O
// failure.
func (l *Log) Degraded() bool {
	if l == nil {
		return false
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.degraded
}

// PendingRecords reports records appended but not yet group-committed
// (for tests asserting the group-commit batching).
func (l *Log) PendingRecords() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.pending)
}

// SegmentCount reports the number of on-disk segment files.
func (l *Log) SegmentCount() int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.segs) + 1
}

// Crash simulates kill−9 for tests: the file descriptor is abandoned
// without flushing, so records appended since the last Flush are lost
// exactly as they would be in a real crash. The Log is unusable after.
func (l *Log) Crash() {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	l.pending = nil
	if l.f != nil {
		_ = l.f.Close() // Close without Sync: the OS may or may not have the bytes
		l.f = nil
	}
}

// Close flushes pending records and closes the log. Gauges are zeroed
// (the PR 5 convention: a closed component reports no standing state).
// Safe to call more than once.
func (l *Log) Close() error {
	if l == nil {
		return nil
	}
	l.Flush()
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	var err error
	if l.f != nil {
		err = l.f.Close()
		l.f = nil
	}
	l.segments.Set(0)
	l.pendingG.Set(0)
	return err
}
