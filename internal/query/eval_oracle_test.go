package query

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/rdf"
)

// This file is a frozen copy of the query evaluator as of PR 18: a partial
// match is a map from variable name to id, cloned per streamed triple;
// constants are looked up per binding; filters read terms through a closure
// built per row; every cell is decoded and rendered, rows dedup on their
// NUL-joined renderings and sort by comparing string slices; groupOp keys
// its buckets on renderings again and ORDER BY parses both operands of every
// comparison. The differential tests in eval_diff_test.go pin the slot
// compiled evaluator to it (DESIGN.md §16). Nothing here is reachable from
// non-test code.

// binding maps variable name to term id within one shard.
type binding map[string]rdf.ID

// oracleRun is Engine.Run of PR 18, one shard at a time so that the stage
// counters need no lock.
func oracleRun(e *Engine, q *Query) (*Result, error) {
	rel, visited, pruned := oracleScan(e, q)
	stages := []int{len(rel.rows)}
	out, stages, err := oracleFinalOps(q, rel, stages)
	if err != nil {
		return nil, err
	}
	return &Result{Vars: out.cols, Rows: out.rows, ShardsVisited: visited, SegmentsPruned: pruned,
		Plan: PlanFacts{Stages: oracleStages(stages)}}, nil
}

// oracleStages carries the per-stage row counts in the only field the
// differential compares.
func oracleStages(rows []int) []obs.PlanStage {
	out := make([]obs.PlanStage, len(rows))
	for i, n := range rows {
		out[i].Rows = n
	}
	return out
}

type oracleRelation struct {
	cols []string
	rows [][]rdf.Term
}

func oracleScan(e *Engine, q *Query) (rel oracleRelation, shardsVisited, segsPruned int) {
	vars := q.InputVars()
	candidates, vb := e.candidates(q)
	if len(candidates) == 0 {
		return oracleRelation{cols: vars}, 0, 0
	}
	var bounds map[string]numBound
	if !e.callbackScan {
		bounds = oracleNumericBounds(q.Filters)
	}
	var set rowSet
	e.st.EachShardView(candidates, 1, vb, func(i int, v *rdf.View, pruned int) {
		var plan []TriplePattern
		for _, pi := range compile(q, nil, v.Dict(), false).order(v) {
			plan = append(plan, q.Patterns[pi])
		}
		segsPruned += pruned
		for _, b := range oracleEvalShard(v, plan, q.Filters, bounds) {
			terms := make([]rdf.Term, len(vars))
			for j, vn := range vars {
				if id, ok := b[vn]; ok {
					terms[j], _ = v.Dict().Decode(id)
				}
			}
			r := renderRow(terms)
			set.add(r.key(), r)
		}
	})
	rel = oracleRelation{cols: vars}
	if rows := set.sorted(); len(rows) > 0 {
		rel.rows = make([][]rdf.Term, len(rows))
		for i, r := range rows {
			rel.rows[i] = r.terms
		}
	}
	return rel, len(candidates), segsPruned
}

// oracleNumericBounds is numericBounds of PR 18, keyed by variable name.
func oracleNumericBounds(filters []Filter) map[string]numBound {
	var out map[string]numBound
	bound := func(v string) *numBound {
		if out == nil {
			out = make(map[string]numBound)
		}
		b, ok := out[v]
		if !ok {
			b = numBound{
				Lo: math.Inf(-1), Hi: math.Inf(1),
				CLo: math.Inf(-1), CHi: math.Inf(1),
			}
		}
		out[v] = b
		return &b
	}
	clamp := func(v string, lo, hi float64) {
		b := bound(v)
		b.Lo = math.Max(b.Lo, lo)
		b.Hi = math.Min(b.Hi, hi)
		out[v] = *b
	}
	clampCond := func(v string, lo, hi float64) {
		b := bound(v)
		b.CLo = math.Max(b.CLo, lo)
		b.CHi = math.Min(b.CHi, hi)
		b.cond = true
		out[v] = *b
	}
	for _, f := range filters {
		switch ff := f.(type) {
		case DuringFilter:
			clamp(ff.TSVar,
				math.Nextafter(float64(ff.From), math.Inf(-1)),
				math.Nextafter(float64(ff.To), math.Inf(1)))
		case WithinFilter:
			clamp(ff.LonVar, ff.Box.MinLon, ff.Box.MaxLon)
			clamp(ff.LatVar, ff.Box.MinLat, ff.Box.MaxLat)
		case CmpFilter:
			v, ok := ff.Value.Float()
			if !ok || math.IsNaN(v) {
				continue
			}
			switch ff.Op {
			case OpLT, OpLE:
				clampCond(ff.Var, math.Inf(-1), v)
			case OpGT, OpGE:
				clampCond(ff.Var, v, math.Inf(1))
			case OpEQ:
				clampCond(ff.Var, v, v)
			}
		}
	}
	return out
}

// oracleScanPattern is scanPattern of PR 18, view dispatch included.
func oracleScanPattern(g rdf.Graph, s, p, o rdf.ID, ob *numBound, fn func(rdf.Triple) bool) {
	if ob == nil {
		g.FindID(s, p, o, fn)
		return
	}
	switch gg := g.(type) {
	case *rdf.View:
		stopped := false
		wrap := func(t rdf.Triple) bool {
			if !fn(t) {
				stopped = true
				return false
			}
			return true
		}
		for _, part := range gg.Parts() {
			oracleScanPattern(part, s, p, o, ob, wrap)
			if stopped {
				return
			}
		}
	case *rdf.Segment:
		if s == rdf.Wildcard && p != rdf.Wildcard {
			lo, hi := ob.Lo, ob.Hi
			if ob.cond && gg.NumericOnly(p) {
				lo = math.Max(lo, ob.CLo)
				hi = math.Min(hi, ob.CHi)
			}
			if !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
				gg.NumericRange(p, lo, hi, fn)
				return
			}
		}
		gg.FindID(s, p, o, fn)
	default:
		g.FindID(s, p, o, fn)
	}
}

func oracleEvalShard(st rdf.Graph, plan []TriplePattern, filters []Filter, bounds map[string]numBound) []binding {
	bindings := []binding{{}}
	applied := make([]bool, len(filters))
	boundVars := map[string]bool{}

	applyFilters := func(bs []binding) []binding {
		for fi, f := range filters {
			if applied[fi] {
				continue
			}
			ready := true
			for _, v := range f.Vars() {
				if !boundVars[v] {
					ready = false
					break
				}
			}
			if !ready {
				continue
			}
			applied[fi] = true
			var kept []binding
			for _, b := range bs {
				get := func(name string) (rdf.Term, bool) {
					id, ok := b[name]
					if !ok {
						return rdf.Term{}, false
					}
					return st.Dict().Decode(id)
				}
				if oracleEvalFilter(f, get) {
					kept = append(kept, b)
				}
			}
			bs = kept
		}
		return bs
	}

	for _, tp := range plan {
		if len(bindings) == 0 {
			return nil
		}
		var next []binding
		for _, b := range bindings {
			sid, sv, ok := resolve(st, tp.S, b)
			if !ok {
				continue
			}
			pid, pv, ok := resolve(st, tp.P, b)
			if !ok {
				continue
			}
			oid, ov, ok := resolve(st, tp.O, b)
			if !ok {
				continue
			}
			var ob *numBound
			if ov != "" && bounds != nil {
				if nb, okB := bounds[ov]; okB {
					ob = &nb
				}
			}
			oracleScanPattern(st, sid, pid, oid, ob, func(t rdf.Triple) bool {
				nb := cloneBinding(b)
				if sv != "" {
					if prev, exists := nb[sv]; exists && prev != t.S {
						return true
					}
					nb[sv] = t.S
				}
				if pv != "" {
					if prev, exists := nb[pv]; exists && prev != t.P {
						return true
					}
					nb[pv] = t.P
				}
				if ov != "" {
					if prev, exists := nb[ov]; exists && prev != t.O {
						return true
					}
					nb[ov] = t.O
				}
				next = append(next, nb)
				return true
			})
		}
		for _, v := range tp.vars() {
			boundVars[v] = true
		}
		bindings = applyFilters(next)
	}
	return bindings
}

func resolve(st rdf.Graph, pt PatternTerm, b binding) (rdf.ID, string, bool) {
	if !pt.IsVar {
		id, ok := st.Dict().Lookup(pt.Term)
		if !ok {
			return 0, "", false
		}
		return id, "", true
	}
	if id, ok := b[pt.Var]; ok {
		return id, "", true
	}
	return rdf.Wildcard, pt.Var, true
}

func cloneBinding(b binding) binding {
	nb := make(binding, len(b)+1)
	for k, v := range b {
		nb[k] = v
	}
	return nb
}

// oracleEvalFilter is the four Filter.Eval bodies of PR 18 over the
// name-keyed accessor.
func oracleEvalFilter(f Filter, get func(string) (rdf.Term, bool)) bool {
	getFloat := func(v string) (float64, bool) {
		t, ok := get(v)
		if !ok {
			return 0, false
		}
		return t.Float()
	}
	switch f := f.(type) {
	case CmpFilter:
		t, ok := get(f.Var)
		if !ok {
			return false
		}
		if a, okA := t.Float(); okA {
			if b, okB := f.Value.Float(); okB {
				return cmpOp(a, b, f.Op)
			}
		}
		return cmpOp(t.Value, f.Value.Value, f.Op)
	case WithinFilter:
		lon, ok1 := getFloat(f.LonVar)
		lat, ok2 := getFloat(f.LatVar)
		return ok1 && ok2 && f.Box.Contains(geo.Pt(lon, lat))
	case DuringFilter:
		t, ok := get(f.TSVar)
		if !ok {
			return false
		}
		v, ok := t.Int()
		return ok && v >= f.From && v <= f.To
	case DWithinFilter:
		lon, ok1 := getFloat(f.LonVar)
		lat, ok2 := getFloat(f.LatVar)
		return ok1 && ok2 && geo.Haversine(geo.Pt(lon, lat), f.Center) <= f.DistM
	}
	panic(fmt.Sprintf("oracle: unknown filter %T", f))
}

// renderedRow is a row with every cell rendered once: the renderings are
// the dedup key and the sort key.
type renderedRow struct {
	cells []string   // Term.String() per cell
	terms []rdf.Term // the cells as terms; nil on a coordinator until the row survives the merge
}

func renderRow(terms []rdf.Term) renderedRow {
	cells := make([]string, len(terms))
	for i, t := range terms {
		cells[i] = t.String()
	}
	return renderedRow{cells: cells, terms: terms}
}

func (r renderedRow) key() string { return strings.Join(r.cells, "\x00") }

func sortRendered(rows []renderedRow) {
	slices.SortFunc(rows, func(a, b renderedRow) int { return slices.Compare(a.cells, b.cells) })
}

// rowSet accumulates distinct rows.
type rowSet struct {
	seen map[string]struct{}
	rows []renderedRow
}

func (s *rowSet) add(key string, r renderedRow) {
	if _, dup := s.seen[key]; dup {
		return
	}
	if s.seen == nil {
		s.seen = make(map[string]struct{})
	}
	s.seen[key] = struct{}{}
	s.rows = append(s.rows, r)
}

func (s *rowSet) sorted() []renderedRow {
	sortRendered(s.rows)
	return s.rows
}

// oracleFinalize is Finalize of PR 18.
func oracleFinalize(q *Query, vars []string, partials ...[][]string) (*Result, error) {
	var set rowSet
	for _, part := range partials {
		for _, cells := range part {
			r := renderedRow{cells: cells}
			set.add(r.key(), r)
		}
	}
	rel := oracleRelation{cols: vars, rows: make([][]rdf.Term, 0, len(set.rows))}
	for _, r := range set.sorted() {
		terms := make([]rdf.Term, len(r.cells))
		for i, cell := range r.cells {
			t, err := rdf.ParseTerm(cell)
			if err != nil {
				return nil, fmt.Errorf("query: finalize: partial row cell %q: %w", cell, err)
			}
			terms[i] = t
		}
		rel.rows = append(rel.rows, terms)
	}
	out, _, err := oracleFinalOps(q, rel, nil)
	if err != nil {
		return nil, err
	}
	return &Result{Vars: out.cols, Rows: out.rows}, nil
}

// oracleFinalOps is finalizeOps + exec of PR 18: group, canonical or ORDER
// BY sort, limit; stages collects each operator's output cardinality.
func oracleFinalOps(q *Query, rel oracleRelation, stages []int) (oracleRelation, []int, error) {
	var err error
	if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
		outKeys := q.GroupBy
		if len(q.Vars) > 0 && len(q.GroupBy) > 0 {
			outKeys = q.Vars
		}
		if rel, err = oracleGroup(rel, q.GroupBy, outKeys, q.Aggs); err != nil {
			return rel, nil, err
		}
		stages = append(stages, len(rel.rows))
		if len(q.OrderBy) == 0 {
			rows := make([]renderedRow, len(rel.rows))
			for i, terms := range rel.rows {
				rows[i] = renderRow(terms)
			}
			sortRendered(rows)
			for i, r := range rows {
				rel.rows[i] = r.terms
			}
			stages = append(stages, len(rel.rows))
		}
	}
	if len(q.OrderBy) > 0 {
		if rel, err = oracleSort(rel, q.OrderBy); err != nil {
			return rel, nil, err
		}
		stages = append(stages, len(rel.rows))
	}
	if q.Limit > 0 {
		if len(rel.rows) > q.Limit {
			rel.rows = rel.rows[:q.Limit]
		}
		stages = append(stages, len(rel.rows))
	}
	return rel, stages, nil
}

func oracleGroup(in oracleRelation, keys, outKeys []string, aggs []Aggregate) (oracleRelation, error) {
	colIdx := map[string]int{}
	for i, c := range in.cols {
		colIdx[c] = i
	}
	var err error
	lookup := func(name string) (int, error) {
		i, ok := colIdx[name]
		if !ok {
			return 0, fmt.Errorf("query: group input lacks column %q", name)
		}
		return i, nil
	}
	keyIdx := make([]int, len(keys))
	for i, k := range keys {
		if keyIdx[i], err = lookup(k); err != nil {
			return oracleRelation{}, err
		}
	}
	outKeyIdx := make([]int, len(outKeys))
	for i, k := range outKeys {
		if outKeyIdx[i], err = lookup(k); err != nil {
			return oracleRelation{}, err
		}
	}
	argIdx := make([]int, len(aggs))
	for i, a := range aggs {
		argIdx[i] = -1
		if a.Var != "" {
			if argIdx[i], err = lookup(a.Var); err != nil {
				return oracleRelation{}, err
			}
		}
	}

	type bucket struct {
		out    []rdf.Term
		states []oracleAggState
	}
	buckets := map[string]*bucket{}
	var order []*bucket
	var kb strings.Builder
	for _, row := range in.rows {
		kb.Reset()
		for _, i := range keyIdx {
			kb.WriteString(row[i].String())
			kb.WriteByte('\x00')
		}
		k := kb.String()
		b := buckets[k]
		if b == nil {
			b = &bucket{states: make([]oracleAggState, len(aggs))}
			for _, i := range outKeyIdx {
				b.out = append(b.out, row[i])
			}
			buckets[k] = b
			order = append(order, b)
		}
		for ai, a := range aggs {
			var cell rdf.Term
			if argIdx[ai] >= 0 {
				cell = row[argIdx[ai]]
			}
			b.states[ai].add(a.Func, cell)
		}
	}
	if len(keys) == 0 && len(order) == 0 {
		order = append(order, &bucket{states: make([]oracleAggState, len(aggs))})
	}

	cols := make([]string, 0, len(outKeys)+len(aggs))
	cols = append(cols, outKeys...)
	for _, a := range aggs {
		cols = append(cols, a.OutName())
	}
	rows := make([][]rdf.Term, 0, len(order))
	for _, b := range order {
		row := make([]rdf.Term, 0, len(cols))
		row = append(row, b.out...)
		for ai, a := range aggs {
			row = append(row, b.states[ai].final(a.Func))
		}
		rows = append(rows, row)
	}
	return oracleRelation{cols: cols, rows: rows}, nil
}

type oracleAggState struct {
	n       int64
	sum     float64
	numN    int64
	best    rdf.Term
	hasBest bool
}

func (s *oracleAggState) add(fn AggFunc, cell rdf.Term) {
	switch fn {
	case AggCount:
		s.n++
	case AggSum, AggAvg:
		if f, ok := cell.Float(); ok {
			s.sum += f
			s.numN++
		}
	case AggMin:
		if !s.hasBest || compareTerms(cell, s.best) < 0 {
			s.best, s.hasBest = cell, true
		}
	case AggMax:
		if !s.hasBest || compareTerms(s.best, cell) < 0 {
			s.best, s.hasBest = cell, true
		}
	}
}

func (s *oracleAggState) final(fn AggFunc) rdf.Term {
	switch fn {
	case AggCount:
		return rdf.NewLong(s.n)
	case AggSum:
		return rdf.NewDouble(s.sum)
	case AggAvg:
		if s.numN == 0 {
			return rdf.NewDouble(0)
		}
		return rdf.NewDouble(s.sum / float64(s.numN))
	case AggMin, AggMax:
		if !s.hasBest {
			return rdf.NewLiteral("")
		}
		return s.best
	}
	return rdf.Term{}
}

// compareTerms orders terms numerically when both sides parse as numbers
// (ties and everything else fall back to the N-Triples serialisation): the
// comparator ORDER BY and MIN/MAX must keep.
func compareTerms(a, b rdf.Term) int {
	if af, aok := a.Float(); aok {
		if bf, bok := b.Float(); bok {
			if af < bf {
				return -1
			}
			if af > bf {
				return 1
			}
		}
	}
	return strings.Compare(a.String(), b.String())
}

func oracleSort(rel oracleRelation, keys []OrderKey) (oracleRelation, error) {
	colIdx := map[string]int{}
	for i, c := range rel.cols {
		colIdx[c] = i
	}
	idx := make([]int, len(keys))
	for i, k := range keys {
		j, ok := colIdx[k.Var]
		if !ok {
			return oracleRelation{}, fmt.Errorf("query: ORDER BY key ?%s missing from input", k.Var)
		}
		idx[i] = j
	}
	sort.SliceStable(rel.rows, func(i, j int) bool {
		for ki, k := range keys {
			c := compareTerms(rel.rows[i][idx[ki]], rel.rows[j][idx[ki]])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c < 0
			}
		}
		return false
	})
	return rel, nil
}
