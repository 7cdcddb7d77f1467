package query

import (
	"fmt"
	"math"
	"slices"
	"strings"
	"time"

	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/rdf"
	"github.com/datacron-project/datacron/internal/store"
)

// Engine evaluates queries over a sharded store: the query is compiled onto
// slots once (eval.go), each shard orders the patterns greedily by bound
// positions with its own cardinality estimates as the tiebreak, the spatial
// and temporal FILTER bounds pick candidate shards via the partitioner and
// narrow the scan of the pattern that binds the bounded variable (numeric
// pushdown), candidate shards are evaluated independently in parallel
// (global triples are replicated, so no evaluation crosses shards), and rows
// merge with set semantics (merge.go).
type Engine struct {
	st *store.Sharded
	// Parallelism bounds concurrent shard evaluations; 0 means the number
	// of candidate shards.
	Parallelism int
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
	Elapsed       time.Duration
	Plan          PlanFacts
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
	steps, _ := finalSteps(q)
	stages := []obs.PlanStage{e.scanStage(q, len(e.candidates(q)), -1, joins{}, time.Time{})}
	for _, st := range steps {
		stages = append(stages, st.PlanStage)
	}
	return stages
}

// run lowers the logical plan onto the physical operator chain — the scan
// feeding group/aggregate, sort and limit — executes it, and reports the
// plan facts.
func (e *Engine) run(q *Query, cacheHit bool) (*Result, error) {
	start := time.Now()
	steps, ordered := finalSteps(q)
	rel, visited, j := e.scan(q, ordered)
	stages, err := execSteps(&rel, steps, e.scanStage(q, visited, rel.n, j, start))
	if err != nil {
		return nil, err
	}
	return &Result{
		Vars:          rel.cols,
		Rows:          rel.terms(),
		ShardsVisited: visited,
		Elapsed:       time.Since(start),
		Plan:          PlanFacts{Stages: stages, CacheHit: cacheHit},
	}, nil
}

// candidates returns the shard indexes the spatiotemporal filter bounds leave
// to evaluate. Inside a shard every tier is read: the bounds narrow only the
// scan of the pattern that binds the bounded variable (scanRuns), since a
// join may reach from an in-bounds fragment into any tier.
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
	return e.st.Partitioner().Candidates(box, from, to) // the world box, or an open window, where unbounded
}

// numBound is the closed numeric candidate interval for one variable,
// derived from filters that reject every binding whose term is not a
// non-NaN number, so it is sound on any graph (DESIGN.md §13).
type numBound struct{ Lo, Hi float64 }

// numericBounds derives per-slot candidate intervals (nil = none) from the
// query's filters. st:during, st:within and a comparison other than !=
// against a number reject any binding whose term is not a non-NaN number:
// restricting a pattern's object candidates to numeric values inside the
// (conjoined) interval can only drop rows the filter would drop anyway —
// the exact filter still runs on every surviving row, so the interval only
// needs to be a superset. st:during bounds are int64; they are widened by
// one ulp after the float64 conversion so values that round across the
// boundary above 2^53 stay inside. A NaN constant clamps nothing (no
// interval represents its comparisons).
func numericBounds(filters []slotFilter, width int) []*numBound {
	out := make([]*numBound, width)
	clamp := func(slot int, lo, hi float64) {
		b := out[slot]
		if b == nil {
			b = &numBound{Lo: math.Inf(-1), Hi: math.Inf(1)}
			out[slot] = b
		}
		b.Lo, b.Hi = math.Max(b.Lo, lo), math.Min(b.Hi, hi)
	}
	for _, sf := range filters {
		if slices.Contains(sf.slots, -1) {
			continue // it names a variable no pattern binds: it never runs
		}
		switch ff := sf.f.(type) {
		case DuringFilter:
			clamp(sf.slots[0], math.Nextafter(float64(ff.From), math.Inf(-1)),
				math.Nextafter(float64(ff.To), math.Inf(1)))
		case WithinFilter:
			clamp(sf.slots[0], ff.Box.MinLon, ff.Box.MaxLon)
			clamp(sf.slots[1], ff.Box.MinLat, ff.Box.MaxLat)
		case CmpFilter:
			v, ok := ff.Value.Float()
			if !ok || math.IsNaN(v) {
				continue
			}
			switch ff.Op {
			case OpLT, OpLE:
				clamp(sf.slots[0], math.Inf(-1), v)
			case OpGT, OpGE:
				clamp(sf.slots[0], v, math.Inf(1))
			case OpEQ:
				clamp(sf.slots[0], v, v)
			}
		}
	}
	return out
}

// scanRuns appends the index runs of one tier of a shard matching (s, p, o)
// to dst. With no pushed-down interval (compiled.pushdown) they are exactly
// Graph.Runs. With one, a sealed segment answers with the run of its
// value-sorted numeric column — two binary searches instead of a walk over
// every triple of the predicate, which skips exactly the non-numeric and
// NaN objects the bound's filters reject. The mutable head and the global
// store keep their index runs: their triples are few and carry no sealed
// columns.
func scanRuns(g rdf.Graph, s, p, o rdf.ID, ob *numBound, dst []rdf.Run) []rdf.Run {
	if seg, ok := g.(*rdf.Segment); ok && ob != nil {
		return append(dst, seg.NumericRun(p, ob.Lo, ob.Hi))
	}
	return g.Runs(s, p, o, dst)
}

// allVars lists the variables of a pattern list in first-appearance order.
func allVars(patterns []TriplePattern) []string {
	var out []string
	for _, tp := range patterns {
		for _, pt := range [3]PatternTerm{tp.S, tp.P, tp.O} {
			if pt.IsVar && !slices.Contains(out, pt.Var) {
				out = append(out, pt.Var)
			}
		}
	}
	return out
}

// FormatTable renders a result as an aligned text table for the CLI.
func FormatTable(r *Result) string {
	var b strings.Builder
	line := func(n int, cell func(i int) string) {
		for i := 0; i < n; i++ {
			if i > 0 {
				b.WriteByte('\t')
			}
			b.WriteString(cell(i))
		}
		b.WriteByte('\n')
	}
	line(len(r.Vars), func(i int) string { return "?" + r.Vars[i] })
	for _, row := range r.Rows {
		line(len(row), func(i int) string { return row[i].String() })
	}
	fmt.Fprintf(&b, "-- %d rows, %d shards, %v\n", len(r.Rows), r.ShardsVisited, r.Elapsed)
	return b.String()
}
