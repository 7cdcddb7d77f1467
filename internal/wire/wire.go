// Package wire implements the length-prefixed binary batch frame that
// POST /ingest accepts alongside the newline-delimited text format — the
// compact batch wire format the datAcron edge/cloud split presumes: edge
// agents (and the benchmark driver under bench/) frame many timestamped wire lines
// into one CRC-checked, varint-delta-coded blob, and the serving daemon
// decodes it without a single per-record allocation.
//
// # Frame layout (version 1)
//
//	offset  size  field
//	0       4     magic "DCBF"
//	4       1     version (0x01)
//	5       1     flags (must be 0 in version 1)
//	6       ~     record count   (uvarint)
//	~       ~     payload length (uvarint, byte length of the records section)
//	~       4     CRC-32C (Castagnoli) of the records section, little endian
//	~       ~     records section
//
// Each record is:
//
//	ts delta  (svarint: zig-zag delta from the previous record's unix-ms
//	           timestamp; the first record's delta is from 0, i.e. absolute)
//	length    (uvarint, byte length of the line)
//	line      (raw wire line bytes, no trailing newline)
//
// Frames are self-delimiting, so a request body may carry any number of
// them back to back.
//
// # Error surfaces
//
// Decoder.ResetText rejects a frame before any record is surfaced:
// ErrTruncated (header or records section runs past the buffer), ErrMagic,
// ErrVersion, ErrFlags, ErrChecksum, ErrCount (record count impossible for
// the payload length). A CRC-valid frame whose records section is malformed (varint
// overrun, record length past the section, line over MaxLineBytes) fails at
// the offending record: NextText returns ok=false and Err returns ErrRecord —
// records before it are good, which preserves the ingest resume-offset
// contract.
//
// # Request bodies
//
// ReadBody and EachRecord are the one way a POST /ingest body — binary
// frames or newline-separated text — is read and walked, shared by the
// serving daemon and the cluster coordinator.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Frame format constants.
const (
	Magic   = "DCBF"
	Version = 1

	// ContentType selects the binary frame decoder on POST /ingest.
	ContentType = "application/x-datacron-frame"

	// MaxLineBytes bounds one record's line, in either body format.
	MaxLineBytes = 1 << 20

	// MaxBodyBytes bounds one POST /ingest body (ReadBody answers 413 past
	// it). Bodies are held in memory whole; at typical wire-line sizes this
	// is on the order of a million lines, far beyond any worker queue.
	MaxBodyBytes = 64 << 20

	// minRecordBytes is the smallest possible record encoding (1-byte ts
	// delta + 1-byte zero length); ResetText uses it to reject impossible
	// record counts before decoding.
	minRecordBytes = 2
)

// Decode errors. ResetText and Err wrap these with positional detail;
// match with errors.Is.
var (
	ErrTruncated = errors.New("wire: truncated frame")
	ErrMagic     = errors.New("wire: bad magic")
	ErrVersion   = errors.New("wire: unsupported version")
	ErrFlags     = errors.New("wire: unsupported flags")
	ErrChecksum  = errors.New("wire: checksum mismatch")
	ErrCount     = errors.New("wire: impossible record count")
	ErrRecord    = errors.New("wire: malformed record")
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Encoder builds one frame. The zero value is ready; Reset recycles it.
type Encoder struct {
	recs   []byte
	count  int
	prevTS int64
}

// Reset drops any staged records, keeping the buffer.
func (e *Encoder) Reset() {
	e.recs = e.recs[:0]
	e.count = 0
	e.prevTS = 0
}

// Count returns the number of staged records.
func (e *Encoder) Count() int { return e.count }

// Add stages one timestamped wire line.
func (e *Encoder) Add(ts int64, line string) {
	delta := ts - e.prevTS
	e.prevTS = ts
	e.recs = binary.AppendVarint(e.recs, delta)
	e.recs = binary.AppendUvarint(e.recs, uint64(len(line)))
	e.recs = append(e.recs, line...)
	e.count++
}

// AppendFrame appends the complete frame (header + records) to dst and
// returns the extended slice.
func (e *Encoder) AppendFrame(dst []byte) []byte {
	dst = append(dst, Magic...)
	dst = append(dst, Version, 0)
	dst = binary.AppendUvarint(dst, uint64(e.count))
	dst = binary.AppendUvarint(dst, uint64(len(e.recs)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.Checksum(e.recs, castagnoli))
	return append(dst, e.recs...)
}

// Decoder iterates one frame's records: ResetText it onto a buffer and
// drain with NextText (string views into one private copy of the records
// section). A Decoder is reusable and performs no per-record allocations.
type Decoder struct {
	text   string // records section
	off    int
	left   int // records not yet surfaced
	count  int
	prevTS int64
	err    error
}

// ResetText validates one frame at the start of b — magic, version, flags,
// CRC-32C, structural bounds — and positions the decoder on its first
// record. It returns the total byte length of the frame, so callers decode
// back-to-back frames by re-invoking ResetText at b[consumed:]. On error
// the decoder is empty and consumed is 0.
//
// The records section is copied into a fresh string so NextText's line
// views stay valid after the frame buffer is recycled. That string is the
// single per-frame allocation of the decode path (amortised over every
// record in the frame).
func (d *Decoder) ResetText(b []byte) (consumed int, err error) {
	recs, consumed, count, err := parseHeader(b)
	if err != nil {
		*d = Decoder{err: err}
		return 0, err
	}
	*d = Decoder{text: string(recs), left: count, count: count}
	return consumed, nil
}

// parseHeader validates a frame header and returns the records section,
// the whole frame's length and the record count.
func parseHeader(b []byte) (recs []byte, consumed, count int, err error) {
	const fixed = len(Magic) + 2
	if len(b) < fixed {
		return nil, 0, 0, fmt.Errorf("%w: %d byte header", ErrTruncated, len(b))
	}
	if string(b[:4]) != Magic {
		return nil, 0, 0, fmt.Errorf("%w: % x", ErrMagic, b[:4])
	}
	if b[4] != Version {
		return nil, 0, 0, fmt.Errorf("%w: %d", ErrVersion, b[4])
	}
	if b[5] != 0 {
		return nil, 0, 0, fmt.Errorf("%w: 0x%02x", ErrFlags, b[5])
	}
	off := fixed
	n, w := binary.Uvarint(b[off:])
	if w <= 0 || n > uint64(len(b)) {
		return nil, 0, 0, fmt.Errorf("%w: record count varint", ErrTruncated)
	}
	off += w
	plen, w := binary.Uvarint(b[off:])
	if w <= 0 {
		return nil, 0, 0, fmt.Errorf("%w: payload length varint", ErrTruncated)
	}
	off += w
	if len(b)-off < 4 {
		return nil, 0, 0, fmt.Errorf("%w: checksum", ErrTruncated)
	}
	sum := binary.LittleEndian.Uint32(b[off:])
	off += 4
	if plen > uint64(len(b)-off) {
		return nil, 0, 0, fmt.Errorf("%w: %d byte payload, %d available", ErrTruncated, plen, len(b)-off)
	}
	if n > 0 && n*minRecordBytes > plen {
		return nil, 0, 0, fmt.Errorf("%w: %d records in %d bytes", ErrCount, n, plen)
	}
	recs = b[off : off+int(plen)]
	if got := crc32.Checksum(recs, castagnoli); got != sum {
		return nil, 0, 0, fmt.Errorf("%w: got %08x want %08x", ErrChecksum, got, sum)
	}
	return recs, off + int(plen), int(n), nil
}

// Count returns the frame's total record count.
func (d *Decoder) Count() int { return d.count }

// Err returns the first structural record error encountered by NextText,
// or the ResetText error. nil after a fully drained clean frame.
func (d *Decoder) Err() error { return d.err }

// NextText returns the next record; the line is an ordinary string, safe
// to retain. ok is false when the frame is drained or a malformed record
// was hit (check Err to distinguish).
func (d *Decoder) NextText() (ts int64, line string, ok bool) {
	if d.err != nil || d.left == 0 {
		return 0, "", false
	}
	s, n := d.text, len(d.text)
	delta, w := varintIn(s, d.off)
	if w <= 0 {
		d.fail("timestamp delta")
		return 0, "", false
	}
	d.off += w
	l, w := uvarintIn(s, d.off)
	if w <= 0 || l > MaxLineBytes {
		d.fail("line length")
		return 0, "", false
	}
	d.off += w
	if uint64(n-d.off) < l {
		d.fail("line bytes")
		return 0, "", false
	}
	start := d.off
	d.off += int(l)
	d.left--
	if d.left == 0 && d.off != n {
		// Trailing bytes after the last record would silently vanish.
		d.err = fmt.Errorf("%w: %d trailing bytes after record %d", ErrRecord, n-d.off, d.count)
		return 0, "", false
	}
	d.prevTS += delta
	return d.prevTS, s[start:d.off], true
}

// EachFrameText walks every back-to-back frame in body — the layout a
// multi-frame POST /ingest body or a coordinator's forwarded stream uses —
// and calls fn once per record with retainable string lines. It returns the
// number of cleanly decoded frames, and on a structural error (bad header,
// CRC mismatch, malformed record) the byte offset of the offending frame
// alongside the error; records surfaced before the fault have already been
// delivered to fn, matching the ingest paths' keep-the-valid-prefix
// contract. A non-nil error from fn stops the walk and is returned with the
// current frame's offset.
func EachFrameText(body []byte, fn func(ts int64, line string) error) (frames, badOffset int, err error) {
	var dec Decoder
	for off := 0; off < len(body); {
		n, err := dec.ResetText(body[off:])
		if err != nil {
			return frames, off, err
		}
		for {
			ts, line, ok := dec.NextText()
			if !ok {
				break
			}
			if err := fn(ts, line); err != nil {
				return frames, off, err
			}
		}
		if err := dec.Err(); err != nil {
			return frames, off, err
		}
		off += n
		frames++
	}
	return frames, 0, nil
}

func (d *Decoder) fail(what string) {
	d.err = fmt.Errorf("%w: %s at record %d, offset %d", ErrRecord, what, d.count-d.left, d.off)
}

// uvarintIn is binary.Uvarint over the string records section.
func uvarintIn(s string, off int) (uint64, int) {
	var v uint64
	var shift uint
	for i := 0; off+i < len(s); i++ {
		if i == binary.MaxVarintLen64 {
			return 0, -(i + 1)
		}
		b := s[off+i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				return 0, -(i + 1)
			}
			return v | uint64(b)<<shift, i + 1
		}
		v |= uint64(b&0x7f) << shift
		shift += 7
	}
	return 0, 0
}

func varintIn(s string, off int) (int64, int) {
	uv, w := uvarintIn(s, off)
	if w <= 0 {
		return 0, w
	}
	v := int64(uv >> 1)
	if uv&1 != 0 {
		v = ^v
	}
	return v, w
}
