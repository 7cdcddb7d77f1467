package query

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/rdf"
	"github.com/datacron-project/datacron/internal/store"
)

// Engine evaluates queries over a sharded store: each shard's plan orders
// patterns greedily by bound-slot count with per-shard predicate
// cardinalities as the tiebreak, shard candidates come from the spatial and
// temporal FILTER bounds via the partitioner, the same bounds prune whole
// sealed segments inside each candidate shard, every candidate shard is
// evaluated independently in parallel (global triples are replicated so the
// evaluation never crosses shards), and rows are merged with set semantics.
type Engine struct {
	st *store.Sharded
	// Parallelism bounds concurrent shard evaluations; 0 means the number
	// of candidate shards.
	Parallelism int
	// callbackScan makes sealed segments take the per-triple FindID callback
	// walk instead of the block path (numeric-column range scans driven by
	// FILTER bounds). Only tests set it: the walk is the oracle the block
	// path is differentially tested and benchmarked against.
	callbackScan bool
	// cache memoises parsed queries by canonicalized text (see plancache.go).
	cache *planCache
}

// NewEngine returns an engine over the given store.
func NewEngine(st *store.Sharded) *Engine {
	return &Engine{st: st, cache: newPlanCache(defaultPlanCacheSize)}
}

// PlanFacts describes how a query actually ran: the executed physical
// operator chain (execution order, with per-stage output cardinalities)
// and whether the plan came from the plan cache.
type PlanFacts struct {
	Stages   []obs.PlanStage
	CacheHit bool
}

// Result is a query answer.
type Result struct {
	Vars          []string
	Rows          [][]rdf.Term
	ShardsVisited int
	// SegmentsPruned counts sealed segments skipped across the visited
	// shards because their anchor time range or bounding box cannot
	// intersect the query's FILTER bounds.
	SegmentsPruned int
	Elapsed        time.Duration
	Plan           PlanFacts
}

// Execute parses (through the plan cache) and runs a query string.
func (e *Engine) Execute(src string) (*Result, error) {
	q, hit, err := e.ParseCached(src)
	if err != nil {
		return nil, err
	}
	return e.run(q, hit)
}

// Run evaluates a parsed query.
func (e *Engine) Run(q *Query) (*Result, error) { return e.run(q, false) }

// Explain lowers the query to its physical plan without executing it:
// the -explain rendering (per-stage Rows stays -1).
func (e *Engine) Explain(q *Query) []obs.PlanStage {
	return collectStages(finalizeOps(q, &scanOp{e: e, q: q}))
}

// run lowers the logical plan onto a physical operator chain — scan
// (patterns+filters+join over the tiered store) feeding group/aggregate,
// sort and limit — executes it, and reports the plan facts.
func (e *Engine) run(q *Query, cacheHit bool) (*Result, error) {
	start := time.Now()
	scan := &scanOp{e: e, q: q}
	root := finalizeOps(q, scan)
	rel, err := root.exec()
	if err != nil {
		return nil, err
	}
	return &Result{
		Vars:           rel.cols,
		Rows:           rel.rows,
		ShardsVisited:  scan.shardsVisited,
		SegmentsPruned: scan.segsPruned,
		Elapsed:        time.Since(start),
		Plan:           PlanFacts{Stages: collectStages(root), CacheHit: cacheHit},
	}, nil
}

// scanRelation is the scan operator's body: evaluate patterns and filters
// over every candidate shard in parallel and return the canonically sorted
// distinct rows of the query's input projection, plus shard/segment facts.
func (e *Engine) scanRelation(q *Query) (rel relation, shardsVisited, segsPruned int) {
	vars := q.InputVars()

	// Shard pruning from spatiotemporal filter bounds; the same bounds
	// prune sealed segments inside each shard.
	candidates := e.candidates(q)
	box, hasBox := q.SpatialBounds()
	from, to, hasTime := q.TimeBounds()
	vb := store.ViewBounds{Box: box, HasBox: hasBox, From: from, To: to, HasTime: hasTime}

	par := e.Parallelism
	if par <= 0 || par > len(candidates) {
		par = len(candidates)
	}
	if par == 0 {
		return relation{cols: vars}, 0, 0
	}

	// Numeric candidate bounds per variable, pushed into sealed-segment
	// scans by the block path.
	var bounds map[string]numBound
	if !e.callbackScan {
		bounds = numericBounds(q.Filters)
	}

	var mu sync.Mutex
	var set rowSet
	e.st.EachShardView(candidates, par, vb, func(i int, v *rdf.View, pruned int) {
		// Plan per shard: predicate cardinalities differ across shards and
		// change as segments seal and age out.
		plan := planPatterns(q.Patterns, v)
		local := evalShard(v, plan, q.Filters, bounds)
		// Decode, render and key rows outside the merge lock so parallel
		// shards only serialise on the dedup map itself.
		rows := make([]renderedRow, len(local))
		keys := make([]string, len(local))
		for k, b := range local {
			terms := make([]rdf.Term, len(vars))
			for j, vn := range vars {
				if id, ok := b[vn]; ok {
					terms[j], _ = v.Dict().Decode(id)
				}
			}
			rows[k] = renderRow(terms)
			keys[k] = rows[k].key()
		}
		mu.Lock()
		defer mu.Unlock()
		segsPruned += pruned
		for k, r := range rows {
			set.add(keys[k], r)
		}
	})

	// Canonical sort makes the scan's output deterministic, pins the fold
	// order of downstream float aggregates (reproducible sums), and is the
	// pre-LIMIT order — aggregates see every distinct row because LIMIT is
	// a separate operator that runs after group/sort, so
	// `SELECT COUNT ... LIMIT n` still measures, not echoes the limit.
	rel = relation{cols: vars}
	if rows := set.sorted(); len(rows) > 0 {
		rel.rows = make([][]rdf.Term, len(rows))
		for i, r := range rows {
			rel.rows[i] = r.terms
		}
	}
	return rel, len(candidates), segsPruned
}

// candidates returns the shard indexes to evaluate.
func (e *Engine) candidates(q *Query) []int {
	box, hasBox := q.SpatialBounds()
	from, to, hasTime := q.TimeBounds()
	if !hasBox && !hasTime {
		out := make([]int, e.st.NumShards())
		for i := range out {
			out[i] = i
		}
		return out
	}
	if !hasBox {
		box = geo.NewBBox(-180, -90, 180, 90)
	}
	return e.st.Partitioner().Candidates(box, from, to)
}

// binding maps variable name to term id within one shard.
type binding map[string]rdf.ID

// planPatterns orders patterns greedily: start from the most-bound pattern,
// then repeatedly pick the pattern with the most slots bound given already
// planned variables (preferring connected patterns avoids Cartesian
// blowup). Ties are broken by estimated cardinality from the graph's
// per-tier predicate statistics — with g == nil the planner falls back to
// the purely structural heuristic.
func planPatterns(patterns []TriplePattern, g rdf.Graph) []TriplePattern {
	remaining := append([]TriplePattern(nil), patterns...)
	bound := map[string]bool{}
	var plan []TriplePattern
	for len(remaining) > 0 {
		bestIdx := 0
		bestScore := -1
		bestCard := 0
		for i, tp := range remaining {
			score := tp.boundCount(bound) * 2
			// Prefer patterns connected to the bound set.
			for _, v := range tp.vars() {
				if bound[v] {
					score++
				}
			}
			card := estimateCard(tp, g)
			if score > bestScore || (score == bestScore && card < bestCard) {
				bestScore = score
				bestCard = card
				bestIdx = i
			}
		}
		chosen := remaining[bestIdx]
		plan = append(plan, chosen)
		for _, v := range chosen.vars() {
			bound[v] = true
		}
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return plan
}

// estimateCard estimates how many triples a pattern can match on g: the
// predicate cardinality when the predicate is a known constant (0 when the
// shard has never seen it — nothing can match, evaluate first and finish),
// the graph size otherwise.
func estimateCard(tp TriplePattern, g rdf.Graph) int {
	if g == nil {
		return 0
	}
	if !tp.P.IsVar {
		id, ok := g.Dict().Lookup(tp.P.Term)
		if !ok {
			return 0
		}
		return g.PredCard(id)
	}
	return g.Len()
}

// numBound is the closed numeric candidate interval for one variable.
// [Lo, Hi] is unconditional: derived from filters that reject non-numeric
// bindings outright, so it is sound on any graph. [CLo, CHi] is
// conditional: derived from plain comparison FILTERs, whose
// string-comparison fallback can accept non-numeric bindings — it may only
// be intersected in on segments whose seal-time statistics prove every
// object of the scanned predicate is numeric (Segment.NumericOnly; see
// DESIGN.md §13).
type numBound struct {
	Lo, Hi   float64
	CLo, CHi float64
	cond     bool // any conditional clamp present
}

// numericBounds derives per-variable candidate intervals from the query's
// filters. st:during and st:within reject any binding whose term does not
// parse as a number, so restricting a pattern's object candidates to
// numeric values inside the (conjoined) interval can only drop rows the
// filter would drop anyway — the exact filter still runs on every surviving
// row, so the interval only needs to be a superset. st:during bounds are
// int64; they are widened by one ulp after the float64 conversion so values
// that round across the boundary above 2^53 stay inside.
//
// Plain comparison FILTERs against a numeric constant clamp only the
// conditional pair: on a predicate proved all-numeric at seal time their
// Eval takes the float branch for every binding, so the interval is exact
// there — but on a mixed predicate the string fallback could keep a
// non-numeric row the numeric column cannot represent, so scanPattern
// applies the conditional pair only under Segment.NumericOnly. A NaN
// constant clamps nothing (no interval represents its comparisons).
func numericBounds(filters []Filter) map[string]numBound {
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

// scanPattern streams the triples matching (s, p, o) to fn. With no bound
// on the object variable it is exactly Graph.FindID. With a bound, views
// dispatch per part (early-stop propagates across parts, mirroring
// View.FindID) and sealed segments answer from their value-sorted numeric
// column — a binary-search range scan instead of a walk over every triple
// of the predicate. The mutable head store and the global store keep the
// callback path: their triples are few and carry no sealed columns.
func scanPattern(g rdf.Graph, s, p, o rdf.ID, ob *numBound, fn func(rdf.Triple) bool) {
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
			scanPattern(part, s, p, o, ob, wrap)
			if stopped {
				return
			}
		}
	case *rdf.Segment:
		if s == rdf.Wildcard && p != rdf.Wildcard {
			lo, hi := ob.Lo, ob.Hi
			if ob.cond && gg.NumericOnly(p) {
				// Comparison-filter bounds only intersect in when the
				// segment's seal-time stats prove the predicate all-numeric:
				// on a mixed predicate the filter's string fallback could
				// keep rows the numeric column does not carry.
				lo = math.Max(lo, ob.CLo)
				hi = math.Min(hi, ob.CHi)
			}
			if !math.IsInf(lo, -1) || !math.IsInf(hi, 1) {
				gg.NumericRange(p, lo, hi, fn)
				return
			}
			// Both sides unbounded (only conditional clamps existed and the
			// predicate is mixed): NumericRange would silently drop the
			// non-numeric rows, so take the plain scan.
		}
		gg.FindID(s, p, o, fn)
	default:
		g.FindID(s, p, o, fn)
	}
}

// evalShard evaluates the planned BGP + filters on one shard's merged
// tier view. bounds (nil = block path off) carries the numeric candidate
// intervals scanPattern pushes into sealed segments.
func evalShard(st rdf.Graph, plan []TriplePattern, filters []Filter, bounds map[string]numBound) []binding {
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
				if f.Eval(get) {
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
			// Push the object variable's numeric interval into the scan when
			// the slot is still unbound. A repeated variable inside the
			// pattern is unaffected: the equality guard below still runs on
			// every streamed triple.
			var ob *numBound
			if ov != "" && bounds != nil {
				if nb, okB := bounds[ov]; okB {
					ob = &nb
				}
			}
			scanPattern(st, sid, pid, oid, ob, func(t rdf.Triple) bool {
				// A variable repeated in one pattern must match itself: the
				// first occurrence binds, every later occurrence (S, P or O)
				// must equal the id already bound in this row, otherwise the
				// row is skipped. Without the guard on S and P a pattern like
				// `?x ?x ?o` silently rebound ?x and returned rows where the
				// two occurrences differ.
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

// resolve turns a pattern slot into (id, varName) under a binding. ok is
// false when the slot is a constant unknown to the shard's dictionary
// (no triple can match).
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

// allVars lists the variables of a pattern list in first-appearance order.
func allVars(patterns []TriplePattern) []string {
	var out []string
	seen := map[string]bool{}
	for _, tp := range patterns {
		for _, v := range tp.vars() {
			if !seen[v] {
				seen[v] = true
				out = append(out, v)
			}
		}
	}
	return out
}

// FormatTable renders a result as an aligned text table for the CLI.
func FormatTable(r *Result) string {
	var b strings.Builder
	b.WriteString(strings.Join(varHeaders(r.Vars), "\t"))
	b.WriteByte('\n')
	for _, row := range r.Rows {
		b.WriteString(strings.Join(renderRow(row).cells, "\t"))
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "-- %d rows, %d shards, %v\n", len(r.Rows), r.ShardsVisited, r.Elapsed)
	return b.String()
}

func varHeaders(vars []string) []string {
	out := make([]string, len(vars))
	for i, v := range vars {
		out[i] = "?" + v
	}
	return out
}
