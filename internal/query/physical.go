package query

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/rdf"
)

// This file is the physical layer of the two-stage query architecture: the
// parser produces a logical plan (*Query), finalSteps lowers its final
// clauses onto a chain of operators, and execSteps runs the chain over the
// source's relation: the scan — per-shard join and filter evaluation
// (eval.go) merged across shards (merge.go) — or, on a cluster coordinator,
// the merge of the nodes' partial rows (Finalize). The same chain over
// either keeps distributed aggregation bit-identical to a single node.

// relation is the tabular value flowing between operators: n rows of
// len(cols) cells in one flat array, each an index into the query's value
// table (merge.go). Terms exist only for the rows of the final result.
type relation struct {
	cols  []string
	n     int
	cells []uint32
	vals  *values
}

func (r *relation) row(i int) []uint32 {
	w := len(r.cols)
	return r.cells[i*w : (i+1)*w]
}

// terms materialises the relation as a result's rows.
func (r *relation) terms() [][]rdf.Term {
	if r.n == 0 {
		return nil
	}
	flat := make([]rdf.Term, len(r.cells))
	for i, c := range r.cells {
		flat[i] = r.vals.term(c)
	}
	rows := make([][]rdf.Term, r.n)
	for i, w := 0, len(r.cols); i < r.n; i++ {
		rows[i] = flat[i*w : (i+1)*w : (i+1)*w]
	}
	return rows
}

// columns resolves column names to their indexes in the relation.
func (r *relation) columns(what string, names ...string) ([]int, error) {
	idx := make([]int, len(names))
	for i, name := range names {
		if idx[i] = slices.Index(r.cols, name); idx[i] < 0 {
			return nil, fmt.Errorf("query: %s input lacks column %q", what, name)
		}
	}
	return idx, nil
}

// step is one physical operator: its plan facts for the slow-query log and
// -explain (Rows -1 until executed) and its body, rewriting the relation.
type step struct {
	obs.PlanStage
	run func(*relation) error
}

// finalSteps lowers the final clauses of a query — grouping/aggregation,
// ordering, limit — onto operators over the source's relation. Grouped
// queries without an ORDER BY get a canonical sort so their output order is
// deterministic; plain scans take the source's canonical order. ordered:
// the chain observes that order — a plain scan whose ORDER BY, if any,
// leaves ties — so the source ranks its columns; otherwise each operator
// ranks only what it observes.
func finalSteps(q *Query) (steps []step, ordered bool) {
	grouped := len(q.Aggs) > 0 || len(q.GroupBy) > 0
	ordered = !grouped && !orderCovers(q.OrderBy, q.InputVars())
	add := func(op, detail string, run func(*relation) error) {
		steps = append(steps, step{PlanStage: obs.PlanStage{Op: op, Detail: detail, Rows: -1}, run: run})
	}
	if grouped {
		names := make([]string, len(q.Aggs))
		for i, a := range q.Aggs {
			names[i] = a.OutName()
		}
		// The bucket order shows only through an ORDER BY's ties: one naming
		// every key tells distinct buckets apart (compare ties only equal
		// renderings), and without one the canonical sort below ranks whole
		// output rows, which tie only when they render alike.
		byKey := len(q.OrderBy) > 0 && !orderCovers(q.OrderBy, q.GroupBy)
		add("group", fmt.Sprintf("keys=%s aggs=%s", joinOrDash(q.GroupBy), joinOrDash(names)),
			func(rel *relation) error { return rel.group(q.GroupBy, q.groupCols(), q.Aggs, byKey) })
		if len(q.OrderBy) == 0 {
			add("sort", "canonical", func(rel *relation) error {
				rel.sortRows(func(a, b []uint32) int { return slices.CompareFunc(a, b, rel.vals.cmpRendered) }, q.Limit)
				return nil
			})
		}
	}
	if len(q.OrderBy) > 0 {
		parts := make([]string, len(q.OrderBy))
		for i, k := range q.OrderBy {
			parts[i] = "?" + k.Var
			if k.Desc {
				parts[i] += " DESC"
			}
		}
		add("sort", strings.Join(parts, ","), func(rel *relation) error { return rel.orderBy(q.OrderBy, q.Limit) })
	}
	if q.Limit > 0 {
		add("limit", fmt.Sprintf("n=%d", q.Limit), func(rel *relation) error {
			if rel.n > q.Limit {
				rel.n, rel.cells = q.Limit, rel.cells[:q.Limit*len(rel.cols)]
			}
			return nil
		})
	}
	return steps, ordered
}

// execSteps runs the chain over rel and returns the executed plan: source,
// then each operator with its output cardinality and self time.
func execSteps(rel *relation, steps []step, source obs.PlanStage) ([]obs.PlanStage, error) {
	stages := []obs.PlanStage{source}
	for _, st := range steps {
		start := time.Now()
		if err := st.run(rel); err != nil {
			return nil, err
		}
		st.Rows, st.US = rel.n, time.Since(start).Microseconds()
		stages = append(stages, st.PlanStage)
	}
	return stages, nil
}

// orderCovers reports whether keys name every one of vars: then two rows
// differing in vars never tie under them.
func orderCovers(keys []OrderKey, vars []string) bool {
	return !slices.ContainsFunc(vars, func(v string) bool {
		return !slices.ContainsFunc(keys, func(k OrderKey) bool { return k.Var == v })
	})
}

func joinOrDash(ss []string) string {
	if len(ss) == 0 {
		return "-"
	}
	return strings.Join(ss, ",")
}

// scanStage renders the scan's plan facts; rows < 0 is the unexecuted form,
// which names no join counts.
func (e *Engine) scanStage(q *Query, visited, rows int, j joins, start time.Time) obs.PlanStage {
	st := obs.PlanStage{Op: "scan", Rows: rows, Detail: fmt.Sprintf("patterns=%d filters=%d shards=%d/%d",
		len(q.Patterns), len(q.Filters), visited, e.st.NumShards())}
	if rows >= 0 {
		st.Detail += fmt.Sprintf(" joins=merge:%d,probe:%d", j.merge, j.probe)
		st.US = time.Since(start).Microseconds()
	}
	return st
}

// scan evaluates the pattern+filter part of the query over the sharded
// store: shard pruning, one compile, per-shard pattern order, block scans
// with numeric pushdown, parallel evaluation and the set-semantics merge.
// It reports the shards visited and the join steps, summed over them.
func (e *Engine) scan(q *Query, ordered bool) (rel relation, shardsVisited int, j joins) {
	cols := q.InputVars()
	candidates := e.candidates(q)
	c := compile(q, cols, e.st.Dict())
	var mu sync.Mutex
	var parts [][]rdf.ID
	n := 0
	e.st.EachShardView(candidates, cmp.Or(e.Parallelism, len(candidates)), func(i int, v *rdf.View) {
		// One lock per shard evaluation, none per decoded cell.
		local, matches, shard := c.evalShard(v.Parts(), v.Dict().Terms())
		mu.Lock()
		defer mu.Unlock()
		parts = append(parts, local)
		n += matches
		j.merge, j.probe = j.merge+shard.merge, j.probe+shard.probe
	})
	rows := slices.Concat(parts...) // one buffer, sized once
	// The merge yields the distinct rows; each operator after it ranks the
	// order it observes (DESIGN.md §16, "Rank only what an order can see").
	// Aggregates see every distinct row: LIMIT is a separate operator after
	// group/sort, so `SELECT COUNT ... LIMIT n` still measures, not echoes
	// the limit.
	return mergeIDs(cols, rows, n, e.st.Dict(), ordered), len(candidates), j
}

// group groups the relation on keys (no keys = one global group, which
// exists even on empty input, preserving COUNT's count=0 row) and folds the
// aggregates, leaving outKeys (⊆ keys) and one column per aggregate, as the
// specification does in the canonical order, ranking only what shows.
// InputVars puts the keys first, so a bucket is a run of equal key cells
// in the merge's order, and canonically buckets come in their keys'
// rendering order: byKey asks for it where an order can see it. Only a
// float SUM or AVG of three or more rows sees the fold order (IEEE-754
// addition commutes but does not associate; COUNT, MIN and MAX are
// order-blind under compare): only such a bucket sorts by rendering.
func (r *relation) group(keys, outKeys []string, aggs []Aggregate, byKey bool) error {
	keyIdx, err := r.columns("group", keys...)
	if err != nil {
		return err
	}
	outKeyIdx, err := r.columns("group", outKeys...)
	if err != nil {
		return err
	}
	if slices.ContainsFunc(keyIdx, func(k int) bool { return k >= len(keyIdx) }) {
		return fmt.Errorf("query: group keys %v do not lead its input %v", keys, r.cols)
	}
	argIdx := make([]int, len(aggs))
	for i, a := range aggs {
		// Only the legacy bare COUNT has no argument column.
		if argIdx[i] = slices.Index(r.cols, a.Var); argIdx[i] < 0 && (a.Var != "" || a.Func != AggCount) {
			return fmt.Errorf("query: group input lacks column %q", a.Var)
		}
	}

	if len(keys) == 0 && !slices.ContainsFunc(aggs, func(a Aggregate) bool { return a.Func != AggCount }) {
		// Every COUNT adds one per row whatever the cell, and the merge made
		// the rows distinct: each counts the rows.
		r.cols, r.cells = nil, nil
		for _, a := range aggs {
			r.cols = append(r.cols, a.OutName())
			r.cells = append(r.cells, r.vals.addAgg(aggValue{kind: 'l', n: int64(r.n)}))
		}
		r.n = 1
		return nil
	}

	// Bucket b holds rows perm[start[b]:start[b+1]]: one run of equal keys.
	w, nk := len(r.cols), len(keyIdx)
	start := make([]int32, 1, r.n+1)
	for i := 1; i < r.n; i++ {
		for k := i * w; k < i*w+nk; k++ {
			if r.cells[k] != r.cells[k-w] {
				start = append(start, int32(i))
				break
			}
		}
	}
	if r.n > 0 || len(keys) == 0 {
		start = append(start, int32(r.n)) // one global group even on empty input
	}
	buckets := len(start) - 1
	order := seq[int32](buckets)
	if byKey && nk > 0 {
		slices.SortFunc(order, func(a, b int32) int {
			return slices.CompareFunc(r.row(int(start[a]))[:nk], r.row(int(start[b]))[:nk], r.vals.cmpRendered)
		})
	}
	// The rows, each bucket's in rendering order where its fold can tell:
	// the key cells stay most significant, so the runs stay where they are.
	perm := seq[int32](r.n)
	if slices.ContainsFunc(aggs, func(a Aggregate) bool { return a.Func == AggSum || a.Func == AggAvg }) &&
		slices.ContainsFunc(order, func(b int32) bool { return start[b+1]-start[b] >= 3 }) {
		perm = r.sortedBy(seq[int](w), nk)
	}

	stride := len(outKeyIdx) + len(aggs)
	cells := make([]uint32, buckets*stride)
	for j, b := range order {
		for i, k := range outKeyIdx {
			cells[j*stride+i] = r.cells[int(start[b])*w+k]
		}
	}
	r.vals.aggs = slices.Grow(r.vals.aggs, buckets*len(aggs))
	rows := func(j int) []int32 { return perm[start[order[j]]:start[order[j]+1]] }
	for i, a := range aggs {
		r.fold(a.Func, argIdx[i], buckets, rows, cells, len(outKeyIdx)+i, stride)
	}
	r.cols = slices.Clone(outKeys)
	for _, a := range aggs {
		r.cols = append(r.cols, a.OutName())
	}
	r.n, r.cells = buckets, cells
	return nil
}

// fold folds one aggregate over column arg (-1: none, the bare COUNT) of
// each of the buckets' rows, in their order, and writes bucket j's result
// cell to out[j*stride+at].
func (r *relation) fold(fn AggFunc, arg, buckets int, rows func(j int) []int32, out []uint32, at, stride int) {
	w := len(r.cols)
	var nums []parsed // SUM and AVG: the argument's numbers, parsed once
	var from uint32
	if (fn == AggSum || fn == AggAvg) && r.n > 0 {
		col := r.vals.column(r.cells[arg])
		nums, from = r.vals.numbers(col), uint32(col.from)
	}
	for j := range buckets {
		rows := rows(j)
		switch {
		case fn == AggCount:
			out[j*stride+at] = r.vals.addAgg(aggValue{kind: 'l', n: int64(len(rows))})
		case fn == AggSum || fn == AggAvg:
			sum, n := 0.0, 0
			for _, i := range rows {
				// Non-numeric inputs are skipped rather than poisoning the sum.
				if p := nums[r.cells[int(i)*w+arg]-from]; p.ok {
					sum, n = sum+p.f, n+1
				}
			}
			if fn == AggAvg && n > 0 { // an AVG of nothing stays the zero sum
				sum /= float64(n)
			}
			out[j*stride+at] = r.vals.addAgg(aggValue{kind: 'd', f: sum})
		case len(rows) == 0:
			out[j*stride+at] = r.vals.addAgg(aggValue{kind: 'e'}) // a MIN or MAX of nothing
		default:
			best := r.cells[int(rows[0])*w+arg]
			for _, i := range rows[1:] {
				c := r.cells[int(i)*w+arg]
				if cmpr := r.vals.compare(c, best); fn == AggMin && cmpr < 0 || fn == AggMax && cmpr > 0 {
					best = c
				}
			}
			out[j*stride+at] = best
		}
	}
}

// orderBy sorts the rows by the ORDER BY keys, stably, so equal keys keep
// the input's deterministic order; with a limit only the first limit rows
// need their places (sortRows). Keys compare through the value table: no
// comparison parses a float or renders a ranked term.
func (r *relation) orderBy(keys []OrderKey, limit int) error {
	names := make([]string, len(keys))
	for i, k := range keys {
		names[i] = k.Var
	}
	idx, err := r.columns("ORDER BY", names...)
	if err != nil {
		return err
	}
	r.sortRows(func(a, b []uint32) int {
		for ki, k := range keys {
			c := r.vals.compare(a[idx[ki]], b[idx[ki]])
			if k.Desc {
				c = -c
			}
			if c != 0 {
				return c
			}
		}
		return 0
	}, limit)
	return nil
}
