package query

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"fmt"
	"slices"
	"strings"

	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/rdf"
)

// The one set-semantics row merge (DESIGN.md §16). The scan merges the id
// rows of a node's shards with it; a cluster coordinator interns the
// rendered rows of its nodes into a per-request dictionary and merges those
// ids with it. Per column each distinct value is rendered once and the
// values are ranked by Term.String(); rows become rank tuples, which sort and
// dedup as integers. The canonical order is exactly slices.Compare over the
// rows' rendered cells and two rows are one when their renderings are, and
// the merge is associative and commutative across the two levels: N nodes
// and one node holding the union hand the identical row set to the identical
// final operators — bit-identical answers.

// values is the value table of one query: a relation's cells index it.
// Indexes below len(ids) are dictionary terms, column by column; from
// len(ids) up they are aggregate results, kept as numbers until a surviving
// row needs the term.
type values struct {
	dict []rdf.Term // rdf.Dictionary.Terms layout: dict[id-1]
	ids  []rdf.ID   // 0 = unbound, the zero Term
	// ranked: each column's values are in Term.String() order and render
	// pairwise distinct, so two cells of one column compare as their
	// renderings do. (Cells of different columns are never compared.)
	ranked bool
	num    []parsed // Term.Float() per id, parsed on first use
	aggs   []aggValue
}

type parsed struct {
	f     float64
	state int8 // 0 = not parsed yet, 1 = numeric, -1 = not a number
}

// aggValue is an aggregate's result: a COUNT ('l', long), a SUM or AVG ('d',
// double), or a MIN/MAX that saw no input ('e', the empty literal).
type aggValue struct {
	kind byte
	n    int64
	f    float64
	str  string // its rendering once a comparison needed it ("" = not yet)
}

func (v *values) addAgg(a aggValue) uint32 {
	v.aggs = append(v.aggs, a)
	return uint32(len(v.ids) + len(v.aggs) - 1)
}

// termOf is Dictionary.Decode over the lock-free view; id 0 is the zero Term.
func termOf(dict []rdf.Term, id rdf.ID) rdf.Term {
	if id == 0 {
		return rdf.Term{}
	}
	return dict[id-1]
}

// term materialises the value behind a cell.
func (v *values) term(c uint32) rdf.Term {
	if int(c) < len(v.ids) {
		return termOf(v.dict, v.ids[c])
	}
	switch a := v.aggs[int(c)-len(v.ids)]; a.kind {
	case 'l':
		return rdf.NewLong(a.n)
	case 'd':
		return rdf.NewDouble(a.f)
	}
	return rdf.NewLiteral("")
}

// float is term(c).Float(): a dictionary value parses once per query, an
// aggregate is its own number (NewLong and NewDouble round-trip exactly).
func (v *values) float(c uint32) (float64, bool) {
	if int(c) >= len(v.ids) {
		a := v.aggs[int(c)-len(v.ids)]
		if a.kind == 'l' {
			return float64(a.n), true
		}
		return a.f, a.kind == 'd'
	}
	if v.num == nil {
		v.num = make([]parsed, len(v.ids))
	}
	p := &v.num[c]
	if p.state == 0 {
		p.state = -1
		if f, ok := v.term(c).Float(); ok {
			p.f, p.state = f, 1
		}
	}
	return p.f, p.state > 0
}

// cmpRendered is strings.Compare over two cells' (one column's) renderings.
func (v *values) cmpRendered(a, b uint32) int {
	if n := uint32(len(v.ids)); a < n && b < n && v.ranked {
		return cmp.Compare(a, b)
	}
	return strings.Compare(v.rendering(a), v.rendering(b))
}

// rendering is term(c).String(), kept for an aggregate: tied aggregates meet
// in many comparisons of one sort, and each renders once.
func (v *values) rendering(c uint32) string {
	if int(c) < len(v.ids) {
		return v.term(c).String()
	}
	a := &v.aggs[int(c)-len(v.ids)]
	if a.str == "" {
		a.str = v.term(c).String()
	}
	return a.str
}

// compare is the one total order on terms, behind ORDER BY and MIN/MAX:
// numbers (Term.Float parses) before everything else; two numbers by value
// (cmp.Compare: NaN first, -0 equal to +0), ties by rendering; two
// non-numbers by rendering.
func (v *values) compare(a, b uint32) int {
	af, aok := v.float(a)
	bf, bok := v.float(b)
	switch {
	case aok && bok:
		if c := cmp.Compare(af, bf); c != 0 {
			return c
		}
	case aok:
		return -1
	case bok:
		return 1
	}
	return v.cmpRendered(a, b)
}

// rankTerms puts one column's distinct ids in rendering order, collapsing
// those that render equally ("x" and "x"^^xsd:string: two ids, one cell),
// and returns each input id's position in the result. A radix sort orders
// the 8-byte windows cut just past the prefix the column shares; only a run
// of equal windows compares renderings, then ids.
func rankTerms(dict []rdf.Term, ids []rdf.ID) (sorted []rdf.ID, ranks []uint32) {
	buf := make([]byte, 0, 64*len(ids)) // every rendering, back to back: one buffer, no string per value
	end := make([]int, len(ids)+1)
	for i, id := range ids {
		buf = termOf(dict, id).AppendString(buf)
		end[i+1] = len(buf)
	}
	str := func(i uint32) []byte { return buf[end[i]:end[i+1]] }
	shared := end[1]
	for i := range ids {
		for s := str(uint32(i)); shared > len(s) || !bytes.Equal(s[:shared], buf[:shared]); {
			shared--
		}
	}
	keys, order := make([]uint64, len(ids)), make([]uint32, len(ids))
	for i := range ids {
		var k [8]byte
		copy(k[:], str(uint32(i))[shared:])
		keys[i], order[i] = binary.BigEndian.Uint64(k[:]), uint32(i)
	}
	rdf.RadixSort(keys, order, 0)
	for a, b := 0, 0; a < len(order); a = b {
		for b = a + 1; b < len(order) && keys[b] == keys[a]; b++ {
		}
		slices.SortFunc(order[a:b], func(x, y uint32) int { return cmp.Or(bytes.Compare(str(x), str(y)), cmp.Compare(ids[x], ids[y])) })
	}
	ranks, sorted = make([]uint32, len(ids)), make([]rdf.ID, 0, len(ids))
	for k, o := range order {
		if k == 0 || keys[k] != keys[k-1] || !bytes.Equal(str(o), str(order[k-1])) {
			sorted = append(sorted, ids[o])
		}
		ranks[o] = uint32(len(sorted) - 1)
	}
	return sorted, ranks
}

// sortRows puts the rows in the order a stable sort by order, a strict weak
// order, gives, or with limit > 0 at least the first limit of them: the row
// index breaks order's ties into a strict total order whose sorted sequence
// is exactly the stable sort's, whatever the algorithm, so the first limit
// rows are selected and sorted and the rest follow them unsorted.
func (r *relation) sortRows(order func(a, b []uint32) int, limit int) {
	perm := make([]int32, r.n)
	for i := range perm {
		perm[i] = int32(i)
	}
	byRow := func(a, b int32) int { return order(r.row(int(a)), r.row(int(b))) }
	if limit > 0 && limit < r.n {
		selectFirst(perm, limit, func(a, b int32) int { return cmp.Or(byRow(a, b), cmp.Compare(a, b)) })
	} else {
		slices.SortStableFunc(perm, byRow)
	}
	r.gather(perm, false)
}

// selectFirst moves the k first elements of perm under order, a strict total
// order, to its front in order: a max-heap of the k first so far, which a
// later element enters only by beating its last — O(n log k) comparisons,
// most of them one per element against the heap's root.
func selectFirst(perm []int32, k int, order func(a, b int32) int) {
	h := perm[:k]
	down := func(i int) {
		for c := 2*i + 1; c < k; i, c = c, 2*c+1 {
			if c+1 < k && order(h[c], h[c+1]) < 0 {
				c++
			}
			if order(h[i], h[c]) >= 0 {
				return
			}
			h[i], h[c] = h[c], h[i]
		}
	}
	for i := k/2 - 1; i >= 0; i-- {
		down(i)
	}
	for i := k; i < len(perm); i++ {
		if order(perm[i], h[0]) < 0 {
			perm[i], h[0] = h[0], perm[i]
			down(0)
		}
	}
	slices.SortFunc(h, order)
}

// gather rewrites the rows in perm's order, with dedup dropping repeats.
func (r *relation) gather(perm []int32, dedup bool) {
	w := len(r.cols)
	cells := make([]uint32, 0, len(r.cells))
	for _, p := range perm {
		row := r.row(int(p))
		if dedup && len(cells) > 0 && slices.Equal(row, cells[len(cells)-w:]) {
			continue
		}
		cells = append(cells, row...)
	}
	r.cells, r.n = cells, len(cells)/max(w, 1)
}

// sortedBy returns the row indexes stably sorted by the cells of cols, the
// first most significant: cells are dense indexes into the value table, so a
// counting sort per column, last column first — linear.
func (r *relation) sortedBy(cols []int) []int32 {
	perm := make([]int32, r.n)
	for i := range perm {
		perm[i] = int32(i)
	}
	if len(cols) == 0 {
		return perm
	}
	w := len(r.cols)
	next := make([]int32, r.n)
	start := make([]int32, len(r.vals.ids)+len(r.vals.aggs)+1)
	for k := len(cols) - 1; k >= 0; k-- {
		col := cols[k]
		clear(start)
		for _, p := range perm {
			start[r.cells[int(p)*w+col]+1]++
		}
		for i := 1; i < len(start); i++ {
			start[i] += start[i-1]
		}
		for _, p := range perm {
			c := r.cells[int(p)*w+col]
			next[start[c]] = p
			start[c]++
		}
		perm, next = next, perm
	}
	return perm
}

// mergeIDs turns n rows of dictionary ids over cols, with duplicates, into
// the distinct rows in canonical order, the ids interned in d. Per column
// one radix sort of the ids indexes the values: a run of one id is one
// value. With ordered false the consumer observes neither order nor ranks,
// and nothing is rendered as long as every value renders like no other (the
// plain flags of Dictionary.Terms): ids then dedup. One column's values are
// its distinct rows, so its sort keys carry no row and no cell is written
// until the rows are the values; more columns sort id<<32|row keys, index
// their cells cell by cell and drop duplicate rows.
func mergeIDs(cols []string, rows []rdf.ID, n int, d *rdf.Dictionary, ordered bool) relation {
	dict, plain := d.Terms()
	vals := &values{dict: dict, ids: make([]rdf.ID, 0, len(rows))}
	rel := relation{cols: cols, n: min(n, 1), vals: vals}
	w := len(cols)
	if w == 0 {
		return rel
	}
	if w > 1 {
		rel.cells = make([]uint32, len(rows))
	}
	keys, bases := make([]uint64, n), make([]int, w+1)
	for col := range cols {
		for i := range keys {
			keys[i] = uint64(rows[i*w+col]) << 32
			if w > 1 {
				keys[i] |= uint64(i)
			}
		}
		rdf.RadixSort(keys, nil, 4)
		for j, k := range keys {
			if id := rdf.ID(k >> 32); j == 0 || k>>32 != keys[j-1]>>32 {
				vals.ids = append(vals.ids, id)
				ordered = ordered || id == 0 || !plain[id-1]
			}
			if w > 1 {
				rel.cells[int(uint32(k))*w+col] = uint32(len(vals.ids) - 1)
			}
		}
		bases[col+1] = len(vals.ids)
	}
	if ordered && n > 0 {
		ranked := make([]rdf.ID, 0, len(vals.ids))
		for col := range cols {
			sorted, ranks := rankTerms(dict, vals.ids[bases[col]:bases[col+1]])
			for i := col; i < len(rel.cells); i += w {
				rel.cells[i] = uint32(len(ranked)) + ranks[int(rel.cells[i])-bases[col]]
			}
			ranked = append(ranked, sorted...)
		}
		vals.ids = ranked
	}
	vals.ranked = ordered
	if w == 1 {
		rel.n, rel.cells = len(vals.ids), make([]uint32, len(vals.ids))
		for i := range rel.cells {
			rel.cells[i] = uint32(i)
		}
		return rel
	}
	all := make([]int, w)
	for i := range all {
		all[i] = i
	}
	rel.n = n
	rel.gather(rel.sortedBy(all), true)
	return rel
}

// Finalize is the coordinator half of a distributed query. Every node ran
// q's partial form — StripFinal: grouping, aggregation, ordering and LIMIT
// removed, the projection widened to the aggregate inputs — and returned
// its distinct rows over vars as Term.String() cells. Finalize parses each
// distinct cell once into the request's own dictionary (Term.String and
// rdf.ParseTerm round-trip exactly), merges the id rows as a node merges its
// shards' and runs the same group/sort/limit chain: aggregation folds the
// identical row set in the identical order on both sides, which keeps even
// float sums bit-identical, and COUNT-before-LIMIT falls out.
func Finalize(q *Query, vars []string, partials ...[][]string) (*Result, error) {
	dict := rdf.NewDictionary()
	seen := map[string]rdf.ID{}
	var rows []rdf.ID
	n := 0
	for _, part := range partials {
		for _, row := range part {
			if len(row) != len(vars) {
				return nil, fmt.Errorf("query: finalize: partial row has %d cells, want %d", len(row), len(vars))
			}
			for _, cell := range row {
				id, ok := seen[cell]
				if !ok {
					t, err := rdf.ParseTerm(cell)
					if err != nil {
						return nil, fmt.Errorf("query: finalize: partial row cell %q: %w", cell, err)
					}
					if id, err = dict.Encode(t); err != nil {
						return nil, fmt.Errorf("query: finalize: %w", err)
					}
					seen[cell] = id
				}
				rows = append(rows, id)
			}
			n++
		}
	}
	steps, ordered := finalSteps(q)
	rel := mergeIDs(vars, rows, n, dict, ordered)
	if _, err := execSteps(&rel, steps, obs.PlanStage{}); err != nil {
		return nil, err
	}
	return &Result{Vars: rel.cols, Rows: rel.terms()}, nil
}
