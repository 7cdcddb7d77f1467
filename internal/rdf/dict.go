package rdf

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/maphash"
	"math"
	"strings"
	"sync"
	"unsafe"
)

// ID is a dictionary-encoded term identifier. 0 is reserved as the wildcard
// in patterns and never identifies a term.
type ID uint32

// Wildcard matches any term in Runs and Match patterns.
const Wildcard ID = 0

// maxID is the last id a dictionary mints. It is a variable only so that a
// test can reach the limit.
var maxID = ID(math.MaxUint32)

// ErrDictionaryFull reports a term that would need an id past the last one.
// The dictionary fails closed instead of wrapping onto ids already in use;
// it shrinks only on restart (recovery re-interns live terms only).
var ErrDictionaryFull = errors.New("rdf: term dictionary full: every id up to 2^32-1 is in use")

// Dictionary interns terms to dense IDs and back. It is safe for concurrent
// use: encoding takes a write lock only on first sight of a term.
//
// A term is stored once, as a record in append-only byte chunks:
//
//	kind     byte
//	flags    byte     recLang | recCoded | recInline
//	code     byte     if recCoded: the datatype's index in dts, plus one
//	datatype uvarint length, bytes, if recInline (no code was left)
//	value    uvarint length, bytes
//	lang     uvarint length, bytes, if recLang
//
// An empty datatype or language is absent, so every term has one record,
// and since a record delimits itself no record is a prefix of another. An
// id's record is found through at, a term's id through tables: open-addressed
// tables of ids hashed over the record bytes, the hash's top byte choosing
// the table. Each table grows on its own, so a doubling rehashes about
// 1/numTables of the ids while the write lock is held, not all of them.
// Nothing here holds a pointer per term, so the garbage collector scans none.
//
// The strings a decoded term carries alias the chunks (see view). That is
// safe because a chunk is made full length once, never reassigned, and never
// written below an offset a published id points into.
type Dictionary struct {
	mu     sync.RWMutex
	seed   maphash.Seed
	chunks [][]byte // record storage; only the last has room
	used   int      // bytes of the last chunk written
	at     []uint64 // at[id-1] = chunk<<32 | offset of id's record
	plain  []bool   // plain[id-1] = the term's PlainRendering, decided once, at interning
	tables [numTables]idTable
	dts    []string // dts[code-1] is the datatype of code
	dtCode map[string]byte
}

// numTables is how many id tables a dictionary splits its ids over; a
// record hash's top tableBits bits pick its table.
const (
	tableBits = 8
	numTables = 1 << tableBits
)

// idTable holds the ids of the records whose hash has one top byte.
type idTable struct {
	slots []uint32 // ids by record hash, 0 = empty; nil or a power of two long, at most 3/4 full
	n     int      // ids held
}

// Record flags.
const (
	recLang   = 1 << iota // a language tag follows the value
	recCoded              // a datatype code byte follows the flags
	recInline             // the datatype itself follows the flags
)

// Chunk sizes: a dictionary starts small (a query coordinator makes one per
// request) and doubles its chunks up to maxChunk; a longer record gets a
// chunk of its own length.
const (
	minChunk = 1 << 10
	maxChunk = 64 << 10
)

// maxCodes is how many datatypes get a one-byte code; later ones are
// spelled out in every record that carries them.
const maxCodes = math.MaxUint8

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{seed: maphash.MakeSeed(), dtCode: make(map[string]byte)}
}

// Encode interns t and returns its ID, or ErrDictionaryFull when t is new
// and no id is left.
func (d *Dictionary) Encode(t Term) (ID, error) {
	if id, ok := d.Lookup(t); ok {
		return id, nil
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if id := d.encodeLocked(t); id != Wildcard {
		return id, nil
	}
	return Wildcard, ErrDictionaryFull
}

// encodeLocked interns t under the caller-held write lock. It returns
// Wildcard, which no term has, when t is new and no id is left.
func (d *Dictionary) encodeLocked(t Term) ID {
	var scratch [128]byte
	rec, _ := d.record(scratch[:0], t, true)
	h := maphash.Bytes(d.seed, rec)
	id, slot := d.find(rec, h)
	if id != Wildcard {
		return id
	}
	if len(d.at) >= int(maxID) {
		return Wildcard
	}
	tb := &d.tables[h>>(64-tableBits)]
	if 4*(tb.n+1) > 3*len(tb.slots) {
		d.grow(tb)
		_, slot = d.find(rec, h)
	}
	d.at = append(d.at, d.store(rec))
	d.plain = append(d.plain, t.PlainRendering())
	id = ID(len(d.at))
	tb.slots[slot] = uint32(id)
	tb.n++
	return id
}

// record appends t's record to dst. A datatype without a code gets one when
// mint is set and codes are left; otherwise ok=false says no interned term
// can carry it.
func (d *Dictionary) record(dst []byte, t Term, mint bool) (rec []byte, ok bool) {
	var flags byte
	code, coded := byte(0), false
	if t.Datatype != "" {
		if code, coded = d.dtCode[t.Datatype]; !coded && len(d.dts) < maxCodes {
			if !mint {
				return dst, false
			}
			d.dts = append(d.dts, strings.Clone(t.Datatype))
			code, coded = byte(len(d.dts)), true
			d.dtCode[d.dts[code-1]] = code
		}
		flags = recInline
		if coded {
			flags = recCoded
		}
	}
	if t.Lang != "" {
		flags |= recLang
	}
	dst = append(dst, byte(t.Kind), flags)
	switch {
	case coded:
		dst = append(dst, code)
	case flags&recInline != 0:
		dst = appendField(dst, t.Datatype)
	}
	dst = appendField(dst, t.Value)
	if t.Lang != "" {
		dst = appendField(dst, t.Lang)
	}
	return dst, true
}

func appendField(dst []byte, s string) []byte {
	return append(binary.AppendUvarint(dst, uint64(len(s))), s...)
}

// find probes for the record rec, whose hash is h: its id, or Wildcard and
// the empty slot of its table that ends the probe (-1 in a table not yet
// made). Records are prefix-free, so a stored record that starts with rec is
// rec.
func (d *Dictionary) find(rec []byte, h uint64) (ID, int) {
	slots := d.tables[h>>(64-tableBits)].slots
	if len(slots) == 0 {
		return Wildcard, -1
	}
	mask := uint64(len(slots) - 1)
	for i := h & mask; ; i = (i + 1) & mask {
		id := slots[i]
		if id == 0 {
			return Wildcard, int(i)
		}
		loc := d.at[id-1]
		if bytes.HasPrefix(d.chunks[loc>>32][uint32(loc):], rec) {
			return ID(id), int(i)
		}
	}
}

// grow doubles tb, one of d's id tables, and rehashes its records into it.
// A record is rebuilt from its term by record, which gives back the stored
// bytes: a datatype's code never changes, and one spelled out stays so,
// since the codes, once used up, stay used up.
func (d *Dictionary) grow(tb *idTable) {
	slots := make([]uint32, max(16, 2*len(tb.slots)))
	mask := uint64(len(slots) - 1)
	tt := TermTable{chunks: d.chunks, at: d.at, dts: d.dts}
	var scratch [128]byte
	for _, id := range tb.slots {
		if id == 0 {
			continue
		}
		rec, _ := d.record(scratch[:0], tt.At(ID(id)), false)
		j := maphash.Bytes(d.seed, rec) & mask
		for slots[j] != 0 {
			j = (j + 1) & mask
		}
		slots[j] = id
	}
	tb.slots = slots
}

// store copies rec into the chunks and returns its location.
func (d *Dictionary) store(rec []byte) uint64 {
	last := len(d.chunks) - 1
	if last < 0 || len(d.chunks[last])-d.used < len(rec) {
		size := minChunk
		if last >= 0 {
			size = min(2*len(d.chunks[last]), maxChunk)
		}
		d.chunks = append(d.chunks, make([]byte, max(size, len(rec))))
		d.used, last = 0, last+1
	}
	off := d.used
	d.used += copy(d.chunks[last][off:], rec)
	return uint64(last)<<32 | uint64(off)
}

// EncodeBatch interns every term of triples under a single write lock —
// one lock acquisition per batch instead of three per triple — and appends
// the encoded triples to dst. Batched ingest flushes a worker's staged
// triples through here, so the dictionary lock is contended once per batch.
// On ErrDictionaryFull it returns dst unextended: the terms interned before
// the refusal stay, unused.
func (d *Dictionary) EncodeBatch(triples []TermTriple, dst []Triple) ([]Triple, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := len(dst)
	for _, t := range triples {
		tr := Triple{S: d.encodeLocked(t.S), P: d.encodeLocked(t.P), O: d.encodeLocked(t.O)}
		if tr.S == Wildcard || tr.P == Wildcard || tr.O == Wildcard {
			return dst[:n], ErrDictionaryFull
		}
		dst = append(dst, tr)
	}
	return dst, nil
}

// Full reports whether the dictionary has minted its last id: from then on
// every batch carrying a new term is refused.
func (d *Dictionary) Full() bool { return d.Len() >= int(maxID) }

// Lookup returns the ID of t without interning; ok=false if unseen.
func (d *Dictionary) Lookup(t Term) (ID, bool) {
	var scratch [128]byte
	d.mu.RLock()
	defer d.mu.RUnlock()
	rec, ok := d.record(scratch[:0], t, false)
	if !ok {
		return Wildcard, false
	}
	id, _ := d.find(rec, maphash.Bytes(d.seed, rec))
	return id, id != Wildcard
}

// Decode returns the term for id; ok=false for Wildcard or out-of-range ids.
func (d *Dictionary) Decode(id ID) (Term, bool) {
	tt := d.Terms()
	if id == 0 || int(id) > tt.Len() {
		return Term{}, false
	}
	return tt.At(id), true
}

// Terms returns a view of the terms interned so far. The dictionary only
// ever appends, so the view is stable and a reader indexes it without a
// lock — one RLock for a whole evaluation instead of one per Decode. It does
// not see terms interned after the call.
func (d *Dictionary) Terms() TermTable {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n, c, k := len(d.at), len(d.chunks), len(d.dts)
	return TermTable{chunks: d.chunks[:c:c], at: d.at[:n:n], plain: d.plain[:n:n], dts: d.dts[:k:k]}
}

// Len returns the number of interned terms.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.at)
}

// TermTable is a stable view of a dictionary's terms, ids 1 to Len(). Its
// methods take a pointer only to spare copying the view per call.
type TermTable struct {
	chunks [][]byte
	at     []uint64
	plain  []bool
	dts    []string
}

// Len returns the number of terms in the view.
func (tt *TermTable) Len() int { return len(tt.at) }

// At returns the term of id, which must be at most Len(); Wildcard gives
// the zero Term, an unbound cell's. Its strings alias the dictionary.
func (tt *TermTable) At(id ID) Term {
	if id == Wildcard {
		return Term{}
	}
	loc := tt.at[id-1]
	b := tt.chunks[loc>>32][uint32(loc):]
	flags, i := b[1], 2
	var dt, v, lang string
	switch {
	case flags&recCoded != 0:
		dt, i = tt.dts[b[2]-1], 3
	case flags&recInline != 0:
		dt, i = field(b, i)
	}
	v, i = field(b, i)
	if flags&recLang != 0 {
		lang, _ = field(b, i)
	}
	return Term{Kind: Kind(b[0]), Value: v, Datatype: dt, Lang: lang}
}

// Plain returns the PlainRendering of id's term, 1 ≤ id ≤ Len(), without
// reading the term.
func (tt *TermTable) Plain(id ID) bool { return tt.plain[id-1] }

// field reads the length-prefixed field at b[i:]: the field, as a view,
// and the index past it.
func field(b []byte, i int) (string, int) {
	n, k := uint64(b[i]), 1
	if n >= 0x80 {
		n, k = binary.Uvarint(b[i:])
	}
	i += k
	return view(b[i : i+int(n)]), i + int(n)
}

// view is the one place dictionary bytes become a string without a copy.
// The bytes belong to a record, and no record's bytes are written again.
func view(b []byte) string { return unsafe.String(unsafe.SliceData(b), len(b)) }

// Triple is a dictionary-encoded RDF statement.
type Triple struct{ S, P, O ID }

// TermTriple is a term-level RDF statement, the unit batch inserts take
// before dictionary encoding (the transformation layer's onto.TripleT is an
// alias of this type).
type TermTriple struct{ S, P, O Term }

// cmpID is a branch-light three-way compare on IDs (always in uint32 range,
// so the int subtraction cannot overflow).
func cmpID(a, b ID) int { return int(a) - int(b) }

// cmpSPO, cmpPOS and cmpOSP order triples for the three access paths.
func cmpSPO(a, b Triple) int {
	if c := cmpID(a.S, b.S); c != 0 {
		return c
	}
	if c := cmpID(a.P, b.P); c != 0 {
		return c
	}
	return cmpID(a.O, b.O)
}

func cmpPOS(a, b Triple) int {
	if c := cmpID(a.P, b.P); c != 0 {
		return c
	}
	if c := cmpID(a.O, b.O); c != 0 {
		return c
	}
	return cmpID(a.S, b.S)
}

func cmpOSP(a, b Triple) int {
	if c := cmpID(a.O, b.O); c != 0 {
		return c
	}
	if c := cmpID(a.S, b.S); c != 0 {
		return c
	}
	return cmpID(a.P, b.P)
}
