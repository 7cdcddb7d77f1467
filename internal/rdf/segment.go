package rdf

import (
	"math"
	"sort"
)

// Segment is a sealed, immutable triple set: a single sorted triple array
// plus two permutation indexes, giving binary-search access paths for every
// bound-slot combination at a fraction of the head store's map-of-maps
// footprint (~20 bytes per triple vs several hundred). Segments are
// produced by sealing a shard's head and are never modified afterwards, so
// they can be read without locks, shared across snapshots, and dropped
// wholesale by retention.
//
// Matching triples are located block-at-a-time: a double binary search
// resolves the contiguous [lo, hi) run of the access path matching the
// bound slots, so iteration walks exactly the matching block instead of
// testing every triple from lo until the first mismatch. Predicates whose
// objects are numeric literals additionally get a value-sorted column at
// seal time (see NumericRange), turning spatiotemporal FILTER ranges into
// binary searches.
type Segment struct {
	dict *Dictionary
	tri  []Triple // sorted by (S, P, O), deduplicated
	pos  []uint32 // indexes into tri, sorted by (P, O, S)
	osp  []uint32 // indexes into tri, sorted by (O, S, P)
	pred map[ID]int
	num  map[ID][]numEntry // predicate → numeric column, sorted by (val, idx)
}

// numEntry is one row of a predicate's numeric column: the object's parsed
// value and the triple's index in the SPO array. ~12 bytes per triple whose
// object parses as a number — the price of answering range filters with a
// binary search instead of a full predicate scan.
type numEntry struct {
	val float64
	idx uint32
}

// NewSegment builds a segment from triples (copied; any order, duplicates
// collapsed).
func NewSegment(dict *Dictionary, triples []Triple) *Segment {
	tri := append([]Triple(nil), triples...)
	sort.Slice(tri, func(i, j int) bool { return lessSPO(tri[i], tri[j]) })
	// Collapse duplicates in place.
	w := 0
	for i, t := range tri {
		if i > 0 && t == tri[w-1] {
			continue
		}
		tri[w] = t
		w++
	}
	tri = tri[:w]

	seg := &Segment{
		dict: dict,
		tri:  tri,
		pos:  make([]uint32, len(tri)),
		osp:  make([]uint32, len(tri)),
		pred: make(map[ID]int),
	}
	for i := range tri {
		seg.pos[i] = uint32(i)
		seg.osp[i] = uint32(i)
		seg.pred[tri[i].P]++
	}
	sort.Slice(seg.pos, func(i, j int) bool { return lessPOS(tri[seg.pos[i]], tri[seg.pos[j]]) })
	sort.Slice(seg.osp, func(i, j int) bool { return lessOSP(tri[seg.osp[i]], tri[seg.osp[j]]) })
	seg.buildNumericColumns()
	return seg
}

// buildNumericColumns decodes each distinct object once and files every
// triple whose object parses as a finite number under its predicate's
// column. Runs at seal time (inside the ingest barrier), so the per-object
// parse cache matters: position fragments repeat timestamps and coordinates
// across their star of triples.
func (g *Segment) buildNumericColumns() {
	if g.dict == nil || len(g.tri) == 0 {
		return
	}
	vals := make(map[ID]float64)
	bad := make(map[ID]bool)
	for i, t := range g.tri {
		v, ok := vals[t.O]
		if !ok {
			if bad[t.O] {
				continue
			}
			term, okDec := g.dict.Decode(t.O)
			var okNum bool
			if okDec {
				v, okNum = term.Float()
			}
			if !okNum || math.IsNaN(v) {
				bad[t.O] = true
				continue
			}
			vals[t.O] = v
		}
		if g.num == nil {
			g.num = make(map[ID][]numEntry)
		}
		g.num[t.P] = append(g.num[t.P], numEntry{val: v, idx: uint32(i)})
	}
	for _, col := range g.num {
		sort.Slice(col, func(i, j int) bool {
			if col[i].val != col[j].val {
				return col[i].val < col[j].val
			}
			return col[i].idx < col[j].idx
		})
	}
}

func lessSPO(a, b Triple) bool {
	if a.S != b.S {
		return a.S < b.S
	}
	if a.P != b.P {
		return a.P < b.P
	}
	return a.O < b.O
}

func lessPOS(a, b Triple) bool {
	if a.P != b.P {
		return a.P < b.P
	}
	if a.O != b.O {
		return a.O < b.O
	}
	return a.S < b.S
}

func lessOSP(a, b Triple) bool {
	if a.O != b.O {
		return a.O < b.O
	}
	if a.S != b.S {
		return a.S < b.S
	}
	return a.P < b.P
}

// Dict implements Graph.
func (g *Segment) Dict() *Dictionary { return g.dict }

// Len implements Graph.
func (g *Segment) Len() int { return len(g.tri) }

// PredCard implements Graph.
func (g *Segment) PredCard(p ID) int { return g.pred[p] }

// NumericOnly reports whether every triple of predicate p in this segment
// carries an object that parses as a finite number — the seal-time proof
// that lets the query engine push plain comparison FILTER bounds into the
// predicate's numeric column: when it holds, no candidate binding can take
// the string-comparison fallback, so a numeric interval restriction is a
// sound superset (DESIGN.md §13). The statistic is exact: buildNumericColumns
// files every numeric-object triple and only those, so the column length
// equals the predicate cardinality exactly when no object failed to parse.
func (g *Segment) NumericOnly(p ID) bool { return len(g.num[p]) == g.pred[p] }

// Triples returns the segment's triples in (S,P,O) order. The returned
// slice is the segment's own storage: callers must not modify it.
func (g *Segment) Triples() []Triple { return g.tri }

// FindID implements Graph block-at-a-time: a double binary search on the
// access path matching the bound slots resolves the contiguous [lo, hi)
// run, and the loop walks exactly that block. The only per-triple predicate
// left is the residual O equality under a bound s with an unbound p, where
// O values sort discontiguously within the subject's run.
func (g *Segment) FindID(s, p, o ID, fn func(Triple) bool) {
	switch {
	case s != Wildcard:
		lo, hi, residualO := g.spoBounds(s, p, o)
		for _, t := range g.tri[lo:hi] {
			if residualO && t.O != o {
				continue
			}
			if !fn(t) {
				return
			}
		}
	case p != Wildcard:
		lo, hi := g.posBounds(p, o)
		for _, idx := range g.pos[lo:hi] {
			if !fn(g.tri[idx]) {
				return
			}
		}
	case o != Wildcard:
		lo, hi := g.ospBounds(o)
		for _, idx := range g.osp[lo:hi] {
			if !fn(g.tri[idx]) {
				return
			}
		}
	default:
		for _, t := range g.tri {
			if !fn(t) {
				return
			}
		}
	}
}

// spoBounds resolves the SPO run of the prefix (s[, p[, o]]). With p
// unbound, O is only sorted within each (S, P) group, so a bound o cannot
// tighten the run and is reported back as a residual per-triple filter.
func (g *Segment) spoBounds(s, p, o ID) (lo, hi int, residualO bool) {
	n := len(g.tri)
	lo = sort.Search(n, func(i int) bool { return !lessSPO(g.tri[i], Triple{s, p, o}) })
	switch {
	case p == Wildcard:
		hi = lo + sort.Search(n-lo, func(i int) bool { return g.tri[lo+i].S > s })
		residualO = o != Wildcard
	case o == Wildcard:
		hi = lo + sort.Search(n-lo, func(i int) bool {
			t := g.tri[lo+i]
			return t.S > s || t.P > p
		})
	default:
		// Fully bound: the dedup guarantees at most one match.
		hi = lo
		if lo < n && g.tri[lo] == (Triple{s, p, o}) {
			hi = lo + 1
		}
	}
	return lo, hi, residualO
}

// posBounds resolves the POS run of the prefix (p[, o]).
func (g *Segment) posBounds(p, o ID) (lo, hi int) {
	n := len(g.pos)
	lo = sort.Search(n, func(i int) bool { return !lessPOS(g.tri[g.pos[i]], Triple{Wildcard, p, o}) })
	if o == Wildcard {
		hi = lo + sort.Search(n-lo, func(i int) bool { return g.tri[g.pos[lo+i]].P > p })
	} else {
		hi = lo + sort.Search(n-lo, func(i int) bool {
			t := g.tri[g.pos[lo+i]]
			return t.P > p || t.O > o
		})
	}
	return lo, hi
}

// ospBounds resolves the OSP run of the prefix (o).
func (g *Segment) ospBounds(o ID) (lo, hi int) {
	n := len(g.osp)
	lo = sort.Search(n, func(i int) bool { return !lessOSP(g.tri[g.osp[i]], Triple{Wildcard, Wildcard, o}) })
	hi = lo + sort.Search(n-lo, func(i int) bool { return g.tri[g.osp[lo+i]].O > o })
	return lo, hi
}

// NumericRange streams the triples with predicate p whose object is a
// numeric literal with value in [lo, hi] to fn, in ascending value order
// (ties in SPO order); fn returning false stops early. The run is a binary
// search over the value-sorted column sealed with the segment.
//
// The column holds exactly the triples of p whose object parses as a finite
// number, so a caller substituting NumericRange for a full FindID(⋆, p, ⋆)
// scan silently drops non-numeric objects: only do so when every dropped
// row would be discarded anyway — i.e. when a numeric FILTER on the
// object's variable makes non-numeric bindings unsatisfiable (the query
// engine's bounds pushdown guarantees this).
func (g *Segment) NumericRange(p ID, lo, hi float64, fn func(Triple) bool) {
	col := g.num[p]
	i := sort.Search(len(col), func(k int) bool { return col[k].val >= lo })
	for ; i < len(col) && col[i].val <= hi; i++ {
		if !fn(g.tri[col[i].idx]) {
			return
		}
	}
}
