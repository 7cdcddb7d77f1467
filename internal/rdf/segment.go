package rdf

import (
	"cmp"
	"math"
	"slices"
	"sort"
)

// Segment is an immutable triple set: a single sorted triple array plus two
// permutation indexes, giving binary-search access paths for every
// bound-slot combination in about 20 bytes per triple. It is the one index
// shape of the store: a sealed tier is one Segment with numeric columns, and
// a Head (the mutable and global tiers) is a short list of Segments without
// them. Segments are never modified once built, so they can be read without
// locks, shared across snapshots, and dropped wholesale by retention.
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
	tri  []Triple          // sorted by (S, P, O), deduplicated
	pos  []uint32          // indexes into tri, sorted by (P, O, S)
	osp  []uint32          // indexes into tri, sorted by (O, S, P)
	num  map[ID][]numEntry // predicate → numeric column, sorted by (val, idx); sealed only
}

// numEntry is one row of a predicate's numeric column: the object's parsed
// value and the triple's index in the SPO array. ~12 bytes per triple whose
// object parses as a number — the price of answering range filters with a
// binary search instead of a full predicate scan.
type numEntry struct {
	val float64
	idx uint32
}

// NewSegment builds a sealed segment from triples (copied; any order,
// duplicates collapsed).
func NewSegment(dict *Dictionary, triples []Triple) *Segment {
	buf := getSortBufs(len(triples))
	defer sortPool.Put(buf)
	seg := newRun(dict, slices.Compact(buf.sortSPO(triples)), buf)
	seg.buildNumericColumns()
	return seg
}

// newRun indexes tri — sorted by (S, P, O), deduplicated and owned by the
// run from now on — without numeric columns; buf's keys are at least
// len(tri) long. Each permutation is a stable radix sort of the SPO order,
// which already orders the ties: POS by P<<32|O leaves each (P, O) run in S
// order, OSP by O alone each O run in (S, P) order.
func newRun(dict *Dictionary, tri []Triple, buf *sortBufs) *Segment {
	n := len(tri)
	perm := make([]uint32, 2*n)
	g := &Segment{dict: dict, tri: tri, pos: perm[:n:n], osp: perm[n:]}
	keys := buf.keys[:n]
	for i, t := range tri {
		keys[i], g.pos[i] = uint64(t.P)<<32|uint64(t.O), uint32(i)
	}
	RadixSort(keys, g.pos, 0)
	for i, t := range tri {
		keys[i], g.osp[i] = uint64(t.O), uint32(i)
	}
	RadixSort(keys, g.osp, 0)
	return g
}

// mergeRuns merges two runs holding no triple in common into one, in linear
// time: a merge of the SPO arrays that records where each triple lands, then
// a merge of each permutation index through those positions.
func mergeRuns(a, b *Segment) *Segment {
	na, n := len(a.tri), len(a.tri)+len(b.tri)
	at := make([]uint32, n) // at[i]: merged index of a.tri[i], at[na+j]: of b.tri[j]
	tri := make([]Triple, n)
	for i, j, k := 0, 0, 0; k < n; k++ {
		if j == len(b.tri) || i < na && cmpSPO(a.tri[i], b.tri[j]) < 0 {
			tri[k], at[i] = a.tri[i], uint32(k)
			i++
		} else {
			tri[k], at[na+j] = b.tri[j], uint32(k)
			j++
		}
	}
	perm := make([]uint32, 2*n)
	g := &Segment{dict: a.dict, tri: tri, pos: perm[:n:n], osp: perm[n:]}
	merge := func(dst, ia, ib []uint32, cmp func(x, y Triple) int) {
		for i, j, k := 0, 0, 0; k < n; k++ {
			if j == len(ib) || i < len(ia) && cmp(a.tri[ia[i]], b.tri[ib[j]]) < 0 {
				dst[k] = at[ia[i]]
				i++
			} else {
				dst[k] = at[na+int(ib[j])]
				j++
			}
		}
	}
	merge(g.pos, a.pos, b.pos, cmpPOS)
	merge(g.osp, a.osp, b.osp, cmpOSP)
	return g
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
		slices.SortFunc(col, func(a, b numEntry) int {
			return cmp.Or(cmp.Compare(a.val, b.val), cmp.Compare(a.idx, b.idx))
		})
	}
}

// Dict implements Graph.
func (g *Segment) Dict() *Dictionary { return g.dict }

// Len implements Graph.
func (g *Segment) Len() int { return len(g.tri) }

// PredCard implements Graph: the length of the (P[, O]) POS run.
func (g *Segment) PredCard(p, o ID) int {
	lo, hi := g.posBounds(p, o)
	return hi - lo
}

// Triples returns the segment's triples in (S,P,O) order. The returned
// slice is the segment's own storage: callers must not modify it.
func (g *Segment) Triples() []Triple { return g.tri }

// covers reports whether s lies within the run's subject range — whether
// a pattern with subject s can match here at all.
func (g *Segment) covers(s ID) bool {
	return len(g.tri) > 0 && g.tri[0].S <= s && s <= g.tri[len(g.tri)-1].S
}

// FindID implements Graph block-at-a-time: a double binary search on the
// access path matching the bound slots resolves the contiguous [lo, hi)
// run, and the loop walks exactly that block. The only per-triple predicate
// left is the residual O equality under a bound s with an unbound p, where
// O values sort discontiguously within the subject's run.
func (g *Segment) FindID(s, p, o ID, fn func(Triple) bool) { g.find(s, p, o, fn) }

// find is FindID reporting whether the walk ran to the end (fn never
// returned false), so a Head can stop across its runs. A bound subject
// outside the segment's subject range costs two comparisons: a join probe
// skips every segment sealed before or after its subject was minted.
func (g *Segment) find(s, p, o ID, fn func(Triple) bool) bool {
	switch {
	case s != Wildcard && !g.covers(s): // no triple here can match
	case s != Wildcard:
		lo, hi, residualO := g.spoBounds(s, p, o)
		for _, t := range g.tri[lo:hi] {
			if residualO && t.O != o {
				continue
			}
			if !fn(t) {
				return false
			}
		}
	case p != Wildcard:
		lo, hi := g.posBounds(p, o)
		for _, idx := range g.pos[lo:hi] {
			if !fn(g.tri[idx]) {
				return false
			}
		}
	case o != Wildcard:
		lo, hi := g.ospBounds(o)
		for _, idx := range g.osp[lo:hi] {
			if !fn(g.tri[idx]) {
				return false
			}
		}
	default:
		for _, t := range g.tri {
			if !fn(t) {
				return false
			}
		}
	}
	return true
}

// spoBounds resolves the SPO run of the prefix (s[, p[, o]]). With p
// unbound, O is only sorted within each (S, P) group, so a bound o cannot
// tighten the run and is reported back as a residual per-triple filter.
func (g *Segment) spoBounds(s, p, o ID) (lo, hi int, residualO bool) {
	n := len(g.tri)
	lo, found := slices.BinarySearchFunc(g.tri, Triple{s, p, o}, cmpSPO)
	switch {
	case p == Wildcard:
		hi = gallop(lo, n, func(i int) bool { return g.tri[i].S > s })
		residualO = o != Wildcard
	case o == Wildcard:
		hi = gallop(lo, n, func(i int) bool {
			t := g.tri[i]
			return t.S > s || t.P > p
		})
	case found: // fully bound: the dedup guarantees at most one match
		hi = lo + 1
	default:
		hi = lo
	}
	return lo, hi, residualO
}

// posBounds resolves the POS run of the prefix (p[, o]).
func (g *Segment) posBounds(p, o ID) (lo, hi int) {
	n := len(g.pos)
	lo = sort.Search(n, func(i int) bool { return cmpPOS(g.tri[g.pos[i]], Triple{Wildcard, p, o}) >= 0 })
	if o == Wildcard {
		// A predicate's block is a large share of the array, too long to
		// gallop over: search the rest.
		hi = lo + sort.Search(n-lo, func(i int) bool { return g.tri[g.pos[lo+i]].P > p })
	} else {
		hi = gallop(lo, n, func(i int) bool {
			t := g.tri[g.pos[i]]
			return t.P > p || t.O > o
		})
	}
	return lo, hi
}

// ospBounds resolves the OSP run of the prefix (o).
func (g *Segment) ospBounds(o ID) (lo, hi int) {
	n := len(g.osp)
	lo = sort.Search(n, func(i int) bool { return g.tri[g.osp[i]].O >= o })
	hi = gallop(lo, n, func(i int) bool { return g.tri[g.osp[i]].O > o })
	return lo, hi
}

// gallop returns the first i in [lo, n) with past(i), or n; past must be
// monotone there. It probes lo, lo+1, lo+3, lo+7, … and binary-searches the
// last step, so the end of a run of m entries costs O(log m) probes, not
// O(log n): a join probe's run is usually one triple.
func gallop(lo, n int, past func(i int) bool) int {
	hi := lo
	for step := 1; hi < n && !past(hi); step *= 2 {
		lo, hi = hi+1, hi+step
	}
	hi = min(hi, n)
	return lo + sort.Search(hi-lo, func(i int) bool { return past(lo + i) })
}

// NumericRange streams the triples with predicate p whose object is a
// numeric literal with value in [lo, hi] to fn, in ascending value order
// (ties in SPO order); fn returning false stops early. The run is a binary
// search over the value-sorted column sealed with the segment.
//
// The column holds exactly the triples of p whose object parses as a number
// other than NaN, so a caller substituting NumericRange for a full
// FindID(⋆, p, ⋆) scan silently drops the other objects: only do so when
// every dropped row would be discarded anyway — i.e. when a numeric FILTER
// on the object's variable rejects such bindings (the query engine's
// bounds pushdown guarantees this).
func (g *Segment) NumericRange(p ID, lo, hi float64, fn func(Triple) bool) {
	col, i, j := g.numericRun(p, lo, hi)
	for _, e := range col[i:j] {
		if !fn(g.tri[e.idx]) {
			return
		}
	}
}

// NumericCount returns how many triples NumericRange(p, lo, hi) streams, by
// two binary searches: the query planner's estimate of a pushed-down scan.
func (g *Segment) NumericCount(p ID, lo, hi float64) int {
	_, i, j := g.numericRun(p, lo, hi)
	return j - i
}

// numericRun resolves the [i, j) run of p's numeric column whose values lie
// in [lo, hi].
func (g *Segment) numericRun(p ID, lo, hi float64) (col []numEntry, i, j int) {
	col = g.num[p]
	i = sort.Search(len(col), func(k int) bool { return col[k].val >= lo })
	j = i + sort.Search(len(col)-i, func(k int) bool { return col[i+k].val > hi })
	return col, i, j
}
