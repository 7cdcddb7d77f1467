// Package wal implements the durability substrate of the serving layer: a
// segmented, CRC-checked, group-committed write-ahead log of raw wire
// lines. The paper's architecture assumes a fault-tolerant streaming
// substrate (Flink) underneath the in-situ/CER/store dataflow; this package
// provides the equivalent guarantee for the datacron-serve daemon — every
// acknowledged wire line is on disk before the client sees its ack, and a
// crashed daemon recovers by replaying the log (from the latest snapshot's
// resume offsets; see internal/core).
//
// On-disk format. The log is a directory of segment files named
// wal-<firstLSN, 20 digits>.seg. Each segment starts with a 16-byte header
// (8-byte magic "DCWAL001" + the little-endian LSN of its first record)
// followed by records:
//
//	uint32 LE payload length
//	uint32 LE CRC-32C (Castagnoli) of the payload
//	payload: int64 LE receiver timestamp (unix ms) + raw wire line bytes
//
// Records carry no explicit LSN: a record's LSN is the segment's first LSN
// plus its index, so the sequence is dense and replay can seek by LSN
// without an index file. A torn tail write (crash mid-record) is detected
// by the length/CRC check and truncated on the next Open; corruption
// earlier in the log stops replay at the last valid record (data after a
// corrupt record cannot be trusted to align).
//
// Durability. Append buffers a record and assigns its LSN without
// syncing; Commit group-commits everything appended so far: concurrent
// committers coalesce onto one fsync, so the cost per acked HTTP batch
// stays one (often shared) fsync regardless of line count.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

const (
	// magic identifies a segment file and its format version.
	magic = "DCWAL001"
	// headerSize is the segment header length (magic + first LSN).
	headerSize = 16
	// recordHeaderSize is the per-record framing (length + CRC).
	recordHeaderSize = 8
	// MaxRecordBytes bounds one record's payload; longer appends are
	// rejected and longer lengths on disk are treated as corruption. It
	// comfortably exceeds the serving layer's 1 MiB line limit.
	MaxRecordBytes = 2 << 20
	// DefaultSegmentBytes is the roll threshold when Options.SegmentBytes
	// is zero.
	DefaultSegmentBytes = 64 << 20
)

// castagnoli is the CRC-32C table (hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Options tunes a Log.
type Options struct {
	// SegmentBytes rolls to a new segment file once the current one
	// exceeds this size. Default 64 MiB.
	SegmentBytes int64
	// NoSync makes Commit flush to the OS without fsync. Appends then
	// survive a process crash but not a machine crash — the mode for
	// benchmarks and tests, not production.
	NoSync bool
}

// Log is an append-only write-ahead log. Safe for concurrent use.
type Log struct {
	dir  string
	opts Options

	// mu guards the current segment file, buffered writer and LSN
	// assignment.
	mu       sync.Mutex
	f        *os.File
	buf      []byte // write buffer for the current segment
	segStart uint64 // LSN of the current segment's first record
	segSize  int64  // bytes written to the current segment (incl. header)
	nextLSN  uint64 // LSN the next Append will receive
	closed   bool

	// syncMu serialises committers; durable is the highest LSN known to
	// be on disk (flushed, and fsynced unless NoSync).
	syncMu  sync.Mutex
	durable atomic.Uint64

	segments atomic.Int64 // segment file count, for metrics
}

// segmentName renders the file name for a segment starting at lsn.
func segmentName(lsn uint64) string {
	return fmt.Sprintf("wal-%020d.seg", lsn)
}

// segmentFirstLSN parses a segment file name; ok=false for foreign files.
func segmentFirstLSN(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".seg") {
		return 0, false
	}
	n, err := strconv.ParseUint(name[4:len(name)-4], 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// listSegments returns the segment first-LSNs in dir, ascending.
func listSegments(dir string) ([]uint64, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []uint64
	for _, e := range ents {
		if lsn, ok := segmentFirstLSN(e.Name()); ok {
			out = append(out, lsn)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// Open opens (creating if needed) the log in dir for appending. The tail
// segment is scanned for its last valid record; trailing garbage from a
// torn write is truncated so new appends extend a clean prefix.
func Open(dir string, opts Options) (*Log, error) {
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l := &Log{dir: dir, opts: opts}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: open: %w", err)
	}
	l.segments.Store(int64(len(segs)))
	if len(segs) == 0 {
		if err := l.newSegment(1); err != nil {
			return nil, err
		}
		l.nextLSN = 1
		l.durable.Store(0)
		return l, nil
	}
	// Scan the tail segment to find the next LSN and truncate torn writes.
	tail := segs[len(segs)-1]
	path := filepath.Join(dir, segmentName(tail))
	count, validLen, _, err := scanSegment(path, tail, 0, nil)
	switch {
	case errors.Is(err, errTorn):
		// Crash mid-write: the partial record was never acknowledged and
		// is truncated below so appends extend a clean prefix.
	case errors.Is(err, errCorrupt):
		// A CRC/length failure with the bytes present is disk damage, and
		// records after it may be real acknowledged data — truncating here
		// would destroy them. Refuse; the operator must repair or move the
		// segment (recovery Scan reports the same damage as
		// CorruptStopped).
		return nil, fmt.Errorf("wal: tail segment %s is corrupt (not a torn write); refusing to truncate possible acknowledged records — repair or move the segment", path)
	case err != nil:
		return nil, fmt.Errorf("wal: open tail %s: %w", path, err)
	}
	if validLen < headerSize {
		return nil, fmt.Errorf("wal: tail segment %s has a corrupt header; refusing to append", path)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("wal: open tail: %w", err)
	}
	if st, err := f.Stat(); err == nil && st.Size() > validLen {
		if err := f.Truncate(validLen); err != nil {
			f.Close()
			return nil, fmt.Errorf("wal: truncate torn tail: %w", err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return nil, fmt.Errorf("wal: seek tail: %w", err)
	}
	l.f = f
	l.segStart = tail
	l.segSize = validLen
	l.nextLSN = tail + uint64(count)
	l.durable.Store(l.nextLSN - 1)
	return l, nil
}

// newSegment creates and switches to a fresh segment whose first record
// will be firstLSN. Caller must hold mu (or be initialising).
func (l *Log) newSegment(firstLSN uint64) error {
	path := filepath.Join(l.dir, segmentName(firstLSN))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	var hdr [headerSize]byte
	copy(hdr[:8], magic)
	binary.LittleEndian.PutUint64(hdr[8:], firstLSN)
	if _, err := f.Write(hdr[:]); err != nil {
		f.Close()
		return fmt.Errorf("wal: write segment header: %w", err)
	}
	l.f = f
	l.segStart = firstLSN
	l.segSize = headerSize
	l.buf = l.buf[:0]
	l.segments.Add(1)
	return nil
}

// Append buffers one record and returns its LSN. The record is not
// durable until a Commit covering its LSN returns.
func (l *Log) Append(ts int64, line string) (uint64, error) {
	if len(line)+8 > MaxRecordBytes {
		return 0, fmt.Errorf("wal: record of %d bytes exceeds MaxRecordBytes", len(line))
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return 0, fmt.Errorf("wal: append on closed log")
	}
	if l.segSize >= l.opts.SegmentBytes {
		if err := l.rollLocked(); err != nil {
			return 0, err
		}
	}
	payloadLen := 8 + len(line)
	var scratch [recordHeaderSize + 8]byte
	binary.LittleEndian.PutUint32(scratch[0:], uint32(payloadLen))
	binary.LittleEndian.PutUint64(scratch[recordHeaderSize:], uint64(ts))
	start := len(l.buf)
	l.buf = append(l.buf, scratch[:]...)
	l.buf = append(l.buf, line...)
	// CRC over the in-place payload avoids a per-line []byte(line) copy.
	crc := crc32.Checksum(l.buf[start+recordHeaderSize:], castagnoli)
	binary.LittleEndian.PutUint32(l.buf[start+4:], crc)
	l.segSize += int64(recordHeaderSize + payloadLen)
	lsn := l.nextLSN
	l.nextLSN++
	return lsn, nil
}

// rollLocked flushes, syncs and closes the current segment and starts the
// next one. Rolls are rare (once per SegmentBytes), so the fsync under mu
// is acceptable; it also means Commit only ever needs to sync the current
// file.
func (l *Log) rollLocked() error {
	if err := l.flushLocked(); err != nil {
		return err
	}
	if !l.opts.NoSync {
		if err := l.f.Sync(); err != nil {
			return fmt.Errorf("wal: sync on roll: %w", err)
		}
	}
	l.advanceDurable(l.nextLSN - 1)
	if err := l.f.Close(); err != nil {
		return fmt.Errorf("wal: close segment: %w", err)
	}
	return l.newSegment(l.nextLSN)
}

// flushLocked writes the in-memory buffer to the current file.
func (l *Log) flushLocked() error {
	if len(l.buf) == 0 {
		return nil
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return fmt.Errorf("wal: write: %w", err)
	}
	l.buf = l.buf[:0]
	return nil
}

// advanceDurable raises the durable watermark monotonically.
func (l *Log) advanceDurable(lsn uint64) {
	for {
		cur := l.durable.Load()
		if lsn <= cur || l.durable.CompareAndSwap(cur, lsn) {
			return
		}
	}
}

// Commit makes every record appended before the call durable. Concurrent
// commits coalesce: while one fsync runs, later committers queue and
// usually find their records already covered when they get the turn.
func (l *Log) Commit() error {
	l.mu.Lock()
	target := l.nextLSN - 1
	l.mu.Unlock()
	for l.durable.Load() < target {
		l.syncMu.Lock()
		if l.durable.Load() >= target {
			l.syncMu.Unlock()
			return nil
		}
		l.mu.Lock()
		if l.closed {
			l.mu.Unlock()
			l.syncMu.Unlock()
			return fmt.Errorf("wal: commit on closed log")
		}
		if err := l.flushLocked(); err != nil {
			l.mu.Unlock()
			l.syncMu.Unlock()
			return err
		}
		cur := l.nextLSN - 1
		f := l.f
		l.mu.Unlock()
		if !l.opts.NoSync {
			if err := f.Sync(); err != nil {
				// The file may have been rolled (synced and closed) between
				// our flush and this sync; the durable watermark then already
				// covers its records — re-check before failing.
				l.syncMu.Unlock()
				if l.durable.Load() >= target {
					return nil
				}
				return fmt.Errorf("wal: sync: %w", err)
			}
		}
		l.advanceDurable(cur)
		l.syncMu.Unlock()
	}
	return nil
}

// Appended returns the highest LSN assigned so far (0 if none).
func (l *Log) Appended() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN - 1
}

// Durable returns the highest LSN known durable.
func (l *Log) Durable() uint64 { return l.durable.Load() }

// Segments returns the number of live segment files.
func (l *Log) Segments() int64 { return l.segments.Load() }

// Syncs reports whether Commit fsyncs (Options.NoSync off): whether the
// log's owner asked to survive a machine crash, which whatever is allowed to
// delete log segments must then survive too.
func (l *Log) Syncs() bool { return !l.opts.NoSync }

// Dir returns the log directory.
func (l *Log) Dir() string { return l.dir }

// RemoveSegmentsBefore deletes segment files every record of which has an
// LSN below keep. The active segment is never removed. Called after a
// snapshot to bound log growth: records below the snapshot's replay floor
// can never be needed again.
func (l *Log) RemoveSegmentsBefore(keep uint64) (removed int, err error) {
	l.mu.Lock()
	active := l.segStart
	l.mu.Unlock()
	segs, err := listSegments(l.dir)
	if err != nil {
		return 0, fmt.Errorf("wal: list segments: %w", err)
	}
	for i, first := range segs {
		if first == active || i == len(segs)-1 {
			break
		}
		// Segment i spans [first, segs[i+1]-1].
		if segs[i+1] > keep {
			break
		}
		if err := os.Remove(filepath.Join(l.dir, segmentName(first))); err != nil {
			return removed, fmt.Errorf("wal: remove segment: %w", err)
		}
		removed++
		l.segments.Add(-1)
	}
	return removed, nil
}

// Close flushes, syncs and closes the log.
func (l *Log) Close() error {
	if err := l.Commit(); err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	return l.f.Close()
}
