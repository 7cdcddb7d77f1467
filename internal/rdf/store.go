package rdf

import (
	"slices"
	"sort"
	"sync"
)

// ID is a dictionary-encoded term identifier. 0 is reserved as the wildcard
// in patterns and never identifies a term.
type ID uint32

// Wildcard matches any term in FindID patterns.
const Wildcard ID = 0

// Dictionary interns terms to dense IDs and back. It is safe for concurrent
// use: encoding takes a write lock only on first sight of a term.
type Dictionary struct {
	mu     sync.RWMutex
	byTerm map[Term]ID
	byID   []Term // byID[id-1]
}

// NewDictionary returns an empty dictionary.
func NewDictionary() *Dictionary {
	return &Dictionary{byTerm: make(map[Term]ID)}
}

// Encode interns t and returns its ID.
func (d *Dictionary) Encode(t Term) ID {
	d.mu.RLock()
	id, ok := d.byTerm[t]
	d.mu.RUnlock()
	if ok {
		return id
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.encodeLocked(t)
}

// encodeLocked interns t under the caller-held write lock.
func (d *Dictionary) encodeLocked(t Term) ID {
	if id, ok := d.byTerm[t]; ok {
		return id
	}
	d.byID = append(d.byID, t)
	id := ID(len(d.byID))
	d.byTerm[t] = id
	return id
}

// EncodeBatch interns every term of triples under a single write lock —
// one lock acquisition per batch instead of three per triple — and appends
// the encoded triples to dst. Batched ingest flushes a worker's staged
// triples through here, so the dictionary lock is contended once per batch.
func (d *Dictionary) EncodeBatch(triples []TermTriple, dst []Triple) []Triple {
	d.mu.Lock()
	for _, t := range triples {
		dst = append(dst, Triple{
			S: d.encodeLocked(t.S),
			P: d.encodeLocked(t.P),
			O: d.encodeLocked(t.O),
		})
	}
	d.mu.Unlock()
	return dst
}

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

// Terms returns the interned terms in ID order: Terms()[id-1] is the term of
// id. The dictionary only ever appends, so the slice is a stable view a
// reader can index without a lock — one RLock for a whole evaluation instead
// of one per Decode. It does not see terms interned after the call.
func (d *Dictionary) Terms() []Term {
	d.mu.RLock()
	defer d.mu.RUnlock()
	return d.byID[:len(d.byID):len(d.byID)]
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

// Store is an in-memory indexed triple store. It maintains SPO, POS and OSP
// indexes so that any bound-variable combination has an efficient access
// path. A Store is safe for concurrent reads; writes must be externally
// serialised (the sharded store gives each shard a single writer).
//
// In the tiered shard layout (store.Sharded) a Store is the mutable *head*
// tier; sealed history lives in immutable Segments and both are read
// through a View.
type Store struct {
	dict *Dictionary
	spo  map[ID]map[ID][]ID
	pos  map[ID]map[ID][]ID
	osp  map[ID]map[ID][]ID
	pred map[ID]int // predicate → triple count (planner statistics)
	n    int

	// AddBatch scratch, reused across batches. Writes are externally
	// serialised (see the Store contract), so plain fields suffice.
	batchTri  []Triple // encoded batch, sorted/deduped
	batchIns  []Triple // triples actually inserted (absent before the batch)
	batchVals []ID     // per-run new values for the index merges
}

// NewStore returns an empty store sharing the given dictionary (pass nil
// for a private one).
func NewStore(dict *Dictionary) *Store {
	if dict == nil {
		dict = NewDictionary()
	}
	return &Store{
		dict: dict,
		spo:  make(map[ID]map[ID][]ID),
		pos:  make(map[ID]map[ID][]ID),
		osp:  make(map[ID]map[ID][]ID),
		pred: make(map[ID]int),
	}
}

// Dict returns the store's dictionary.
func (st *Store) Dict() *Dictionary { return st.dict }

// Len returns the number of triples.
func (st *Store) Len() int { return st.n }

// PredCard returns the number of triples with predicate p, the planner's
// selectivity statistic. Implements Graph.
func (st *Store) PredCard(p ID) int { return st.pred[p] }

// Add encodes and inserts a triple; duplicates are ignored.
func (st *Store) Add(s, p, o Term) {
	st.AddID(st.dict.Encode(s), st.dict.Encode(p), st.dict.Encode(o))
}

// AddID inserts an already-encoded triple; duplicates are ignored.
func (st *Store) AddID(s, p, o ID) {
	if addIndex(st.spo, s, p, o) {
		addIndex(st.pos, p, o, s)
		addIndex(st.osp, o, s, p)
		st.pred[p]++
		st.n++
	}
}

// AddBatch encodes and inserts a batch of term triples; duplicates (within
// the batch or against the store) are ignored. It is the bulk counterpart
// of Add: all terms are interned under one dictionary lock, the batch is
// sorted once, and each index absorbs the new triples as run merges into
// its sorted posting lists instead of one binary-search insert per triple.
// The resulting store state is identical to adding the triples one by one.
func (st *Store) AddBatch(triples []TermTriple) {
	if len(triples) == 0 {
		return
	}
	tri := st.dict.EncodeBatch(triples, st.batchTri[:0])
	slices.SortFunc(tri, cmpSPO)
	// Collapse in-batch duplicates in place (sorted, so they are adjacent).
	w := 0
	for i, t := range tri {
		if i > 0 && t == tri[w-1] {
			continue
		}
		tri[w] = t
		w++
	}
	tri = tri[:w]

	// SPO: per-(S,P) run, drop triples already present and merge the rest.
	ins := st.batchIns[:0]
	for i := 0; i < len(tri); {
		s, p := tri[i].S, tri[i].P
		j := i
		for j < len(tri) && tri[j].S == s && tri[j].P == p {
			j++
		}
		m := st.spo[s]
		if m == nil {
			m = make(map[ID][]ID)
			st.spo[s] = m
		}
		list := m[p]
		vals := st.batchVals[:0]
		k := 0
		for _, t := range tri[i:j] {
			for k < len(list) && list[k] < t.O {
				k++
			}
			if k < len(list) && list[k] == t.O {
				continue // already stored
			}
			vals = append(vals, t.O)
			ins = append(ins, t)
		}
		m[p] = mergeSorted(list, vals)
		st.batchVals = vals[:0]
		i = j
	}
	if len(ins) == 0 {
		st.batchTri = tri[:0]
		st.batchIns = ins[:0]
		return
	}
	// Every inserted triple is new, so the POS and OSP merges need no
	// duplicate checks: re-sort the inserted set per index order and merge
	// each run wholesale.
	for _, t := range ins {
		st.pred[t.P]++
	}
	st.n += len(ins)
	slices.SortFunc(ins, cmpPOS)
	st.mergeRuns(st.pos, ins, func(t Triple) (ID, ID, ID) { return t.P, t.O, t.S })
	slices.SortFunc(ins, cmpOSP)
	st.mergeRuns(st.osp, ins, func(t Triple) (ID, ID, ID) { return t.O, t.S, t.P })
	st.batchTri = tri[:0]
	st.batchIns = ins[:0]
}

// cmpID is a branch-light three-way compare on IDs (always in uint32 range,
// so the int subtraction cannot overflow).
func cmpID(a, b ID) int { return int(a) - int(b) }

// cmpSPO/cmpPOS/cmpOSP are the slices.SortFunc counterparts of
// lessSPO/lessPOS/lessOSP (segment.go) — the batch insert path sorts with
// these so the comparator inlines.
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

// mergeRuns merges the triples — sorted by the index's (a, b, c) order and
// known absent from it — into idx, one sorted merge per (a, b) run.
func (st *Store) mergeRuns(idx map[ID]map[ID][]ID, tris []Triple, abc func(Triple) (ID, ID, ID)) {
	for i := 0; i < len(tris); {
		a, b, _ := abc(tris[i])
		vals := st.batchVals[:0]
		j := i
		for j < len(tris) {
			aj, bj, cj := abc(tris[j])
			if aj != a || bj != b {
				break
			}
			vals = append(vals, cj)
			j++
		}
		m := idx[a]
		if m == nil {
			m = make(map[ID][]ID)
			idx[a] = m
		}
		m[b] = mergeSorted(m[b], vals)
		st.batchVals = vals[:0]
		i = j
	}
}

// mergeSorted merges the sorted values — none already present — into the
// sorted list, back to front so every element moves at most once. The
// common append-at-tail case (IDs are assigned in first-sight order) costs
// one copy.
func mergeSorted(list, vals []ID) []ID {
	if len(vals) == 0 {
		return list
	}
	n := len(list)
	if n == 0 || list[n-1] < vals[0] {
		return append(list, vals...)
	}
	list = append(list, vals...)
	i, j := n-1, len(vals)-1
	for k := len(list) - 1; j >= 0; k-- {
		if i >= 0 && list[i] > vals[j] {
			list[k] = list[i]
			i--
		} else {
			list[k] = vals[j]
			j--
		}
	}
	return list
}

// HasID reports whether the triple is present.
func (st *Store) HasID(s, p, o ID) bool {
	list := st.spo[s][p]
	i := sort.Search(len(list), func(k int) bool { return list[k] >= o })
	return i < len(list) && list[i] == o
}

// addIndex inserts c into the sorted list under (a,b) unless already
// present; reports insertion. Lists are kept sorted so the duplicate check
// is a binary search instead of a linear scan — on high-degree keys (every
// subject of a popular predicate lands in one pos list) the old scan made
// ingest quadratic in list length. IDs are assigned in first-sight order,
// so the common case appends at the tail and moves nothing.
func addIndex(idx map[ID]map[ID][]ID, a, b, c ID) bool {
	m, ok := idx[a]
	if !ok {
		m = make(map[ID][]ID)
		idx[a] = m
	}
	list := m[b]
	i := sort.Search(len(list), func(k int) bool { return list[k] >= c })
	if i < len(list) && list[i] == c {
		return false
	}
	list = append(list, 0)
	copy(list[i+1:], list[i:])
	list[i] = c
	m[b] = list
	return true
}

// FindID streams triples matching the pattern (Wildcard = any) to fn; fn
// returning false stops iteration early.
func (st *Store) FindID(s, p, o ID, fn func(Triple) bool) {
	switch {
	case s != Wildcard:
		byP, ok := st.spo[s]
		if !ok {
			return
		}
		if p != Wildcard {
			for _, obj := range byP[p] {
				if o != Wildcard && obj != o {
					continue
				}
				if !fn(Triple{s, p, obj}) {
					return
				}
			}
			return
		}
		for pred, objs := range byP {
			for _, obj := range objs {
				if o != Wildcard && obj != o {
					continue
				}
				if !fn(Triple{s, pred, obj}) {
					return
				}
			}
		}
	case p != Wildcard:
		byO, ok := st.pos[p]
		if !ok {
			return
		}
		if o != Wildcard {
			for _, sub := range byO[o] {
				if !fn(Triple{sub, p, o}) {
					return
				}
			}
			return
		}
		for obj, subs := range byO {
			for _, sub := range subs {
				if !fn(Triple{sub, p, obj}) {
					return
				}
			}
		}
	case o != Wildcard:
		byS, ok := st.osp[o]
		if !ok {
			return
		}
		for sub, preds := range byS {
			for _, pred := range preds {
				if !fn(Triple{sub, pred, o}) {
					return
				}
			}
		}
	default:
		for sub, byP := range st.spo {
			for pred, objs := range byP {
				for _, obj := range objs {
					if !fn(Triple{sub, pred, obj}) {
						return
					}
				}
			}
		}
	}
}

// Find is the Term-level convenience over FindID; nil pattern slots match
// anything.
func (st *Store) Find(s, p, o *Term, fn func(s, p, o Term) bool) {
	findTerms(st, s, p, o, fn)
}

// Triples returns all triples, ordered by (S,P,O) id for deterministic
// output. Intended for serialisation and tests, not hot paths.
func (st *Store) Triples() []Triple {
	out := make([]Triple, 0, st.n)
	st.FindID(Wildcard, Wildcard, Wildcard, func(t Triple) bool {
		out = append(out, t)
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.S != b.S {
			return a.S < b.S
		}
		if a.P != b.P {
			return a.P < b.P
		}
		return a.O < b.O
	})
	return out
}
