package rdf

import (
	"errors"
	"math"
	"sync"
)

// ID is a dictionary-encoded term identifier. 0 is reserved as the wildcard
// in patterns and never identifies a term.
type ID uint32

// Wildcard matches any term in FindID patterns.
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
type Dictionary struct {
	mu     sync.RWMutex
	byTerm map[Term]ID
	byID   []Term // byID[id-1]
	plain  []bool // plain[id-1] = byID[id-1].PlainRendering(), decided once, at interning
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byTerm: make(map[Term]ID)}
}

// Encode interns t and returns its ID, or ErrDictionaryFull when t is new
// and no id is left.
func (d *Dictionary) Encode(t Term) (ID, error) {
	d.mu.RLock()
	id, ok := d.byTerm[t]
	d.mu.RUnlock()
	if ok {
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
	if id, ok := d.byTerm[t]; ok {
		return id
	}
	if len(d.byID) >= int(maxID) {
		return Wildcard
	}
	d.byID = append(d.byID, t)
	d.plain = append(d.plain, t.PlainRendering())
	id := ID(len(d.byID))
	d.byTerm[t] = id
	return id
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
	d.mu.RLock()
	defer d.mu.RUnlock()
	id, ok := d.byTerm[t]
	return id, ok
}

// Decode returns the term for id; ok=false for Wildcard or out-of-range ids.
func (d *Dictionary) Decode(id ID) (Term, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	if id == 0 || int(id) > len(d.byID) {
		return Term{}, false
	}
	return d.byID[id-1], true
}

// Terms returns the interned terms in ID order — terms[id-1] is the term of
// id — and beside them each term's PlainRendering, so that a reader deduping
// ids need not load a whole Term per value. The dictionary only ever
// appends, so the slices are a stable view a reader can index without a lock
// — one RLock for a whole evaluation instead of one per Decode. They do not
// see terms interned after the call.
func (d *Dictionary) Terms() (terms []Term, plain []bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	n := len(d.byID)
	return d.byID[:n:n], d.plain[:n:n]
}

// Len returns the number of interned terms.
func (d *Dictionary) Len() int {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return len(d.byID)
}

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
