package store

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"strings"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/rdf"
)

// The block is the unit of serialised store state, and this file is its
// only definition. One block carries one tier of one shard — a graph plus
// the slice of the spatiotemporal index anchored in it. A sealed segment
// file (seg-*.seg) is one block, a snapshot's shard-NNN.blk is one block
// (the mutable tiers), a cluster handoff stream is a sequence of blocks.
//
// DATACRON-SEG v2 is the magic followed by the records of blockLayout, in
// that order, all integers little-endian:
//
//	magic    "DATACRON-SEG v2\n"
//	header   one record: the block's id, its four section counts and the
//	         anchors' time range and bounding box
//	terms    every distinct term of the block once
//	triples  (s, p, o) as indexes into terms
//	anchors  in index order: (ts, lon, lat, alt, node as an index into terms)
//	preds    the predicate histogram (segment files only)
//	trailer  CRC-32C of every byte before it
//
// A block is dictionary-independent — a handoff peer and a recovering
// process have dictionaries of their own, so terms travel by value and the
// reader resolves each once against the live dictionary — and canonical:
// terms are sorted on (kind, value, datatype, lang), triples and the
// histogram on their index tuples, and floats travel as their bits, so equal
// tiers serialise to equal bytes whatever the insertion order, the
// dictionary state or the tier's in-memory form.
//
// v2 is the only format read: input with any other magic is not a block.

const (
	blockMagic = "DATACRON-SEG v2\n"
	// maxTermBytes bounds one string of a term.
	maxTermBytes = 4 << 20
)

// fieldKind is how one field of a record is laid out.
type fieldKind uint8

const (
	kU8  fieldKind = iota // 1 byte
	kU32                  // 4 bytes: a count or an index into the block's terms
	kU64                  // 8 bytes
	kI64                  // 8 bytes, two's complement
	kF64                  // 8 bytes, the IEEE 754 bit pattern
	kStr                  // uvarint byte length, then that many bytes
)

// fieldWidth is a kind's width in bytes; 0 for the variable-width kStr.
var fieldWidth = [...]int{kU8: 1, kU32: 4, kU64: 8, kI64: 8, kF64: 8, kStr: 0}

type field struct {
	name string
	kind fieldKind
}

// layout is the field sequence of one record kind. Both directions are
// driven from it: appendRecord writes a record's values in this order,
// blockReader.record reads them back. Fixed-width fields carry their value as
// a uint64 (an int64's two's complement, a float64's bits), kStr fields as
// bytes.
type layout struct {
	fields []field
	// width is the record's byte length when no field is a kStr, else 0.
	width int
}

func newLayout(fields ...field) layout {
	l := layout{fields: fields}
	for _, f := range fields {
		if f.kind == kStr {
			return layout{fields: fields}
		}
		l.width += fieldWidth[f.kind]
	}
	return l
}

// blockLayout is the v2 format: one record kind per section.
var blockLayout = struct{ header, term, triple, anchor, pred, trailer layout }{
	header: newLayout(
		field{"id", kU64},
		field{"terms", kU32}, field{"triples", kU32}, field{"anchors", kU32}, field{"preds", kU32},
		field{"minTS", kI64}, field{"maxTS", kI64},
		field{"minLon", kF64}, field{"minLat", kF64}, field{"maxLon", kF64}, field{"maxLat", kF64}),
	term:    newLayout(field{"kind", kU8}, field{"value", kStr}, field{"datatype", kStr}, field{"lang", kStr}),
	triple:  newLayout(field{"s", kU32}, field{"p", kU32}, field{"o", kU32}),
	anchor:  newLayout(field{"ts", kI64}, field{"lon", kF64}, field{"lat", kF64}, field{"alt", kF64}, field{"node", kU32}),
	pred:    newLayout(field{"pred", kU32}, field{"count", kU32}),
	trailer: newLayout(field{"crc32c", kU32}),
}

// maxRecordNums and maxRecordStrs are the most fixed-width and kStr fields
// any record has (the header's, a term's).
const (
	maxRecordNums = 11
	maxRecordStrs = 3
)

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// appendRecord appends one record laid out as l to dst: nums are its
// fixed-width fields in layout order, strs its kStr fields in theirs.
func appendRecord(dst []byte, l layout, nums []uint64, strs ...string) []byte {
	for _, f := range l.fields {
		switch f.kind {
		case kU8:
			dst = append(dst, uint8(nums[0]))
		case kU32:
			dst = binary.LittleEndian.AppendUint32(dst, uint32(nums[0]))
		case kU64, kI64, kF64:
			dst = binary.LittleEndian.AppendUint64(dst, nums[0])
		case kStr:
			dst = binary.AppendUvarint(dst, uint64(len(strs[0])))
			dst = append(dst, strs[0]...)
			strs = strs[1:]
			continue
		}
		nums = nums[1:]
	}
	return dst
}

// canonicalTerm returns the one spelling a block carries t in, which is also
// the one the N-Triples rendering distinguishes: stray datatype and language
// on a non-literal, a datatype beside a language, and xsd:string (the plain
// literal) are dropped, so two terms that render alike are one term of a
// block.
func canonicalTerm(t rdf.Term) rdf.Term {
	switch {
	case t.Kind != rdf.Literal:
		t.Datatype, t.Lang = "", ""
	case t.Lang != "" || t.Datatype == rdf.XSDString:
		t.Datatype = ""
	}
	return t
}

// termKey is a dictionary id beside the kind and value of its term, which a
// canonical spelling keeps and which nearly always decide the term-table
// order.
type termKey struct {
	id    rdf.ID
	kind  rdf.Kind
	value string
}

// cmpTerm orders the terms of a and b, ids of terms, on the (kind, value,
// datatype, lang) of their canonical spellings. Only a tie on kind and
// value reads the terms' datatypes and languages.
func cmpTerm(terms *rdf.TermTable, a, b termKey) int {
	if a.kind != b.kind {
		return int(a.kind) - int(b.kind)
	}
	if c := strings.Compare(a.value, b.value); c != 0 {
		return c
	}
	ca, cb := canonicalTerm(terms.At(a.id)), canonicalTerm(terms.At(b.id))
	if c := strings.Compare(ca.Datatype, cb.Datatype); c != 0 {
		return c
	}
	return strings.Compare(ca.Lang, cb.Lang)
}

func cmpTriple(a, b rdf.Triple) int {
	if a.S != b.S {
		return int(a.S) - int(b.S)
	}
	if a.P != b.P {
		return int(a.P) - int(b.P)
	}
	return int(a.O) - int(b.O)
}

// blockWriter writes blocks of one dictionary's graphs, reusing its scratch
// from block to block: a snapshot or a handoff writes one block per tier.
type blockWriter struct {
	dict *rdf.Dictionary
	// local maps a dictionary id to 1 + its index in the block's term table.
	// It is as long as the dictionary and all zero between blocks.
	local []uint32
	ids   []rdf.ID     // the block's distinct ids
	keys  []termKey    // the block's ids with their terms' sort keys, in term-table order
	tri   []rdf.Triple // the block's triples, renumbered to term-table indexes
	buf   []byte       // encoded bytes not yet handed to the writer
	crc   uint32
}

func newBlockWriter(dict *rdf.Dictionary) *blockWriter { return &blockWriter{dict: dict} }

// emit hands the encoded bytes to bw once they are worth a write. Write
// errors stick to bw and surface at its Flush.
func (w *blockWriter) emit(bw *bufio.Writer, force bool) {
	if force || len(w.buf) >= 32<<10 {
		w.crc = crc32.Update(w.crc, castagnoli, w.buf)
		bw.Write(w.buf)
		w.buf = w.buf[:0]
	}
}

// writeBlock writes one block for graph g and its anchors, straight from the
// graph's ids: no term is rendered and no line is built. id is the sealed
// segment's id, 0 for mutable tiers; histogram adds the per-predicate triple
// counts a segment file records.
func (w *blockWriter) writeBlock(bw *bufio.Writer, id uint64, g rdf.Graph, entries []anchor, histogram bool) error {
	terms := w.dict.Terms()
	if len(w.local) <= terms.Len() {
		w.local = make([]uint32, terms.Len()+1)
	}
	w.ids, w.tri = w.ids[:0], slices.Grow(w.tri[:0], g.Len())
	defer func() { // leave local all zero for the next block
		for _, id := range w.ids {
			w.local[id] = 0
		}
	}()
	missing := -1 // an id the dictionary does not hold, if the tier has one
	see := func(id rdf.ID) {
		if id == 0 || int(id) > terms.Len() {
			missing = int(id)
		} else if w.local[id] == 0 {
			w.local[id] = 1
			w.ids = append(w.ids, id)
		}
	}
	for t := range rdf.Match(g, rdf.Wildcard, rdf.Wildcard, rdf.Wildcard) {
		see(t.S)
		see(t.P)
		see(t.O)
		w.tri = append(w.tri, t)
	}
	for _, e := range entries {
		see(e.node)
	}
	if missing >= 0 {
		return fmt.Errorf("term id %d is not in the dictionary", missing)
	}

	// The term table: distinct canonical terms in order. Ids whose terms
	// have one canonical spelling share an index.
	w.keys = w.keys[:0]
	for _, id := range w.ids {
		t := terms.At(id)
		w.keys = append(w.keys, termKey{id, t.Kind, t.Value})
	}
	slices.SortFunc(w.keys, func(a, b termKey) int { return cmpTerm(&terms, a, b) })
	nTerms := uint32(0)
	for i := range w.keys {
		if i == 0 || cmpTerm(&terms, w.keys[i], w.keys[i-1]) != 0 {
			nTerms++
		}
		w.local[w.keys[i].id] = nTerms
	}
	for i, t := range w.tri {
		w.tri[i] = rdf.Triple{S: rdf.ID(w.local[t.S] - 1), P: rdf.ID(w.local[t.P] - 1), O: rdf.ID(w.local[t.O] - 1)}
	}
	slices.SortFunc(w.tri, cmpTriple)
	w.tri = slices.Compact(w.tri)
	var hist [][2]uint32 // (predicate's term index, triples), ascending
	if histogram {
		counts := make(map[rdf.ID]uint32)
		for _, t := range w.tri {
			counts[t.P]++
		}
		for p, n := range counts {
			hist = append(hist, [2]uint32{uint32(p), n})
		}
		slices.SortFunc(hist, func(a, b [2]uint32) int { return int(a[0]) - int(b[0]) })
	}

	minTS, maxTS, box := anchorStats(entries)
	if len(entries) == 0 {
		box = geo.BBox{} // an empty box is ±Inf; a reader of the header is better served by zeros
	}
	w.crc = 0
	w.buf = append(w.buf[:0], blockMagic...)
	w.buf = appendRecord(w.buf, blockLayout.header, []uint64{
		id, uint64(nTerms), uint64(len(w.tri)), uint64(len(entries)), uint64(len(hist)),
		uint64(minTS), uint64(maxTS),
		math.Float64bits(box.MinLon), math.Float64bits(box.MinLat), math.Float64bits(box.MaxLon), math.Float64bits(box.MaxLat),
	})
	for i, k := range w.keys {
		if i == 0 || w.local[k.id] != w.local[w.keys[i-1].id] {
			t := canonicalTerm(terms.At(k.id))
			w.buf = appendRecord(w.buf, blockLayout.term, []uint64{uint64(t.Kind)}, t.Value, t.Datatype, t.Lang)
			w.emit(bw, false)
		}
	}
	for _, t := range w.tri {
		w.buf = appendRecord(w.buf, blockLayout.triple, []uint64{uint64(t.S), uint64(t.P), uint64(t.O)})
		w.emit(bw, false)
	}
	for _, e := range entries {
		w.buf = appendRecord(w.buf, blockLayout.anchor, []uint64{
			uint64(e.ts), math.Float64bits(e.pt.Lon), math.Float64bits(e.pt.Lat), math.Float64bits(e.pt.Alt),
			uint64(w.local[e.node] - 1),
		})
		w.emit(bw, false)
	}
	for _, h := range hist {
		w.buf = appendRecord(w.buf, blockLayout.pred, []uint64{uint64(h[0]), uint64(h[1])})
	}
	w.emit(bw, true)
	w.buf = appendRecord(w.buf, blockLayout.trailer, []uint64{uint64(w.crc)})
	w.emit(bw, true)
	return nil
}

// blockSink receives one block's content in stream order. Terms are
// numbered 0, 1, … in arrival order, and each arrives before the first
// triple or anchor that refers to it: a consumer resolves a term once,
// however many triples use it.
type blockSink struct {
	term   func(t rdf.Term)
	triple func(s, p, o uint32)
	anchor func(ts int64, pt geo.Point, node uint32)
}

// errBlockChecksum reports a block whose bytes are not the ones written.
var errBlockChecksum = errors.New("checksum mismatch")

// blockReader reads a sequence of blocks off one input. The bytes come from
// disk or from a cluster peer and are not trusted: every index is checked
// against what has been read, nothing is allocated from a count or a length
// the input declares before that many bytes have arrived, and every error
// names the offset the input went wrong at.
type blockReader struct {
	r   *bufio.Reader
	off int64 // bytes consumed
	crc uint32
	// kinds is the current block's term table, reduced to what triples and
	// anchors are checked against.
	kinds []rdf.Kind
	buf   []byte // the strings of the record being read
	// interned holds the datatype and language strings seen, so that the
	// terms of a block share them as the terms of live ingest do.
	interned map[string]string
}

func newBlockReader(r io.Reader) *blockReader {
	return &blockReader{r: bufio.NewReaderSize(r, 64<<10), interned: make(map[string]string)}
}

func (br *blockReader) errorf(format string, args ...any) error {
	return fmt.Errorf("offset %d: "+format, append([]any{br.off}, args...)...)
}

// take consumes the next n bytes, n at most the buffer's size, and returns a
// view of them that holds until the next read.
func (br *blockReader) take(n int) ([]byte, error) {
	b, err := br.r.Peek(n)
	if err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, br.errorf("truncated block: %w", err)
	}
	br.r.Discard(n)
	br.off += int64(n)
	br.crc = crc32.Update(br.crc, castagnoli, b)
	return b, nil
}

// record reads one record laid out as l: its fixed-width fields into nums,
// its kStr fields into strs, as views that hold until the next record.
func (br *blockReader) record(l layout, nums []uint64, strs [][]byte) error {
	var rec []byte
	if l.width > 0 {
		var err error
		if rec, err = br.take(l.width); err != nil {
			return err
		}
	}
	br.buf = br.buf[:0]
	var ends [maxRecordStrs]int
	nStr := 0
	for _, f := range l.fields {
		if f.kind == kStr {
			if err := br.str(); err != nil {
				return err
			}
			ends[nStr] = len(br.buf)
			nStr++
			continue
		}
		b := rec
		if l.width > 0 {
			rec = rec[fieldWidth[f.kind]:]
		} else {
			var err error
			if b, err = br.take(fieldWidth[f.kind]); err != nil {
				return err
			}
		}
		switch f.kind {
		case kU8:
			nums[0] = uint64(b[0])
		case kU32:
			nums[0] = uint64(binary.LittleEndian.Uint32(b))
		default:
			nums[0] = binary.LittleEndian.Uint64(b)
		}
		nums = nums[1:]
	}
	for i, start := 0, 0; i < nStr; i++ {
		strs[i] = br.buf[start:ends[i]]
		start = ends[i]
	}
	return nil
}

// str appends the next kStr field's bytes to br.buf, a buffer's worth at a
// time: the scratch grows with the bytes that arrive, not with the length
// declared.
func (br *blockReader) str() error {
	// maxTermBytes fits in 22 bits, so a length is at most four bytes of
	// uvarint.
	var n uint64
	for shift := 0; ; shift += 7 {
		b, err := br.take(1)
		if err != nil {
			return err
		}
		n |= uint64(b[0]&0x7f) << shift
		if b[0] < 0x80 {
			break
		}
		if shift == 21 {
			n = maxTermBytes + 1
			break
		}
	}
	if n > maxTermBytes {
		return br.errorf("string longer than %d bytes", maxTermBytes)
	}
	for n > 0 {
		b, err := br.take(int(min(n, uint64(br.r.Size()))))
		if err != nil {
			return err
		}
		br.buf = append(br.buf, b...)
		n -= uint64(len(b))
	}
	return nil
}

func (br *blockReader) intern(b []byte) string {
	if s, ok := br.interned[string(b)]; ok || len(b) == 0 {
		return s
	}
	s := string(b)
	br.interned[s] = s
	return s
}

// readBlock reads one block, feeding its content to sink. It returns io.EOF
// (bare) when the input ends cleanly before a block starts. What sink has
// received of a block that then fails is to be discarded: the checksum is
// the last thing read.
func (br *blockReader) readBlock(sink blockSink) (id uint64, err error) {
	magic, err := br.r.Peek(len(blockMagic))
	switch {
	case len(magic) == 0 && err == io.EOF:
		return 0, io.EOF
	case string(magic) != blockMagic:
		return 0, br.errorf("not a block: starts %q", magic)
	}
	br.crc = 0
	br.take(len(blockMagic))

	var nums [maxRecordNums]uint64
	if err := br.record(blockLayout.header, nums[:], nil); err != nil {
		return 0, err
	}
	id = nums[0]
	nTerms, nTriples, nAnchors, nPreds := nums[1], nums[2], nums[3], nums[4]

	br.kinds = br.kinds[:0]
	var strs [maxRecordStrs][]byte
	for i := uint64(0); i < nTerms; i++ {
		if err := br.record(blockLayout.term, nums[:], strs[:]); err != nil {
			return 0, err
		}
		t := rdf.Term{Kind: rdf.Kind(nums[0]), Value: string(strs[0]), Datatype: br.intern(strs[1]), Lang: br.intern(strs[2])}
		if t.Kind > rdf.Blank || t != canonicalTerm(t) {
			return 0, br.errorf("term %d: not a canonical term: kind %d, datatype %q, language %q", i, nums[0], t.Datatype, t.Lang)
		}
		br.kinds = append(br.kinds, t.Kind)
		sink.term(t)
	}
	isTerm := func(i uint64) bool { return i < uint64(len(br.kinds)) }
	for i := uint64(0); i < nTriples; i++ {
		if err := br.record(blockLayout.triple, nums[:], nil); err != nil {
			return 0, err
		}
		s, p, o := nums[0], nums[1], nums[2]
		if !isTerm(s) || !isTerm(p) || !isTerm(o) {
			return 0, br.errorf("triple %d: (%d, %d, %d) of %d terms", i, s, p, o, len(br.kinds))
		}
		if br.kinds[s] == rdf.Literal || br.kinds[p] != rdf.IRI {
			return 0, br.errorf("triple %d: a literal subject or a predicate that is no IRI", i)
		}
		sink.triple(uint32(s), uint32(p), uint32(o))
	}
	for i := uint64(0); i < nAnchors; i++ {
		if err := br.record(blockLayout.anchor, nums[:], nil); err != nil {
			return 0, err
		}
		node := nums[4]
		if !isTerm(node) || br.kinds[node] != rdf.IRI {
			return 0, br.errorf("anchor %d: node %d is not an IRI among %d terms", i, node, len(br.kinds))
		}
		pt := geo.Point{Lon: math.Float64frombits(nums[1]), Lat: math.Float64frombits(nums[2]), Alt: math.Float64frombits(nums[3])}
		sink.anchor(int64(nums[0]), pt, uint32(node))
	}
	// The histogram is read for its bytes only: loaders recount.
	for i := uint64(0); i < nPreds; i++ {
		if err := br.record(blockLayout.pred, nums[:], nil); err != nil {
			return 0, err
		}
	}
	sum := br.crc
	if err := br.record(blockLayout.trailer, nums[:], nil); err != nil {
		return 0, err
	}
	if uint64(sum) != nums[0] {
		return 0, br.errorf("%w: block says %08x, its bytes sum to %08x", errBlockChecksum, nums[0], sum)
	}
	return id, nil
}
