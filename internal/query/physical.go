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
// deterministic; plain scans leave the source canonically sorted already.
// ordered false: the chain observes neither the order of the source's rows
// nor of their values, so the source may skip ranking.
func finalSteps(q *Query) (steps []step, ordered bool) {
	ordered = true
	add := func(op, detail string, run func(*relation) error) {
		steps = append(steps, step{PlanStage: obs.PlanStage{Op: op, Detail: detail, Rows: -1}, run: run})
	}
	if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
		names := make([]string, len(q.Aggs))
		// Only one global group whose aggregates count or take a minimum or
		// maximum is blind to its input's order: under a total order a
		// minimum is one value whatever the fold order. Bucket order depends
		// on first appearance, float sums on the fold order.
		ordered = len(q.GroupBy) > 0
		for i, a := range q.Aggs {
			names[i] = a.OutName()
			ordered = ordered || a.Func == AggSum || a.Func == AggAvg
		}
		add("group", fmt.Sprintf("keys=%s aggs=%s", joinOrDash(q.GroupBy), joinOrDash(names)),
			func(rel *relation) error { return rel.group(q.GroupBy, q.groupCols(), q.Aggs) })
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
	var rows []rdf.ID
	n := 0
	e.st.EachShardView(candidates, cmp.Or(e.Parallelism, len(candidates)), func(i int, v *rdf.View) {
		dict, _ := v.Dict().Terms() // one lock per shard evaluation, none per decoded cell
		local, matches, shard := c.evalShard(v.Parts(), dict)
		mu.Lock()
		defer mu.Unlock()
		rows = append(rows, local...)
		n += matches
		j.merge, j.probe = j.merge+shard.merge, j.probe+shard.probe
	})
	// The canonical order makes the output deterministic and pins the fold
	// order of float aggregates (reproducible sums). Aggregates see every
	// distinct row: LIMIT is a separate operator after group/sort, so
	// `SELECT COUNT ... LIMIT n` still measures, not echoes the limit.
	return mergeIDs(cols, rows, n, e.st.Dict(), ordered), len(candidates), j
}

// group groups the relation on keys (no keys = one global group, which
// exists even on empty input, preserving COUNT's count=0 row) and folds the
// aggregates, leaving outKeys (⊆ keys) and one column per aggregate. Input
// rows are the DISTINCT canonically sorted projection of the aggregate
// inputs and states fold in that order, so float sums are reproducible
// across runs and across node vs coordinator. Buckets key on the rows' cells
// (ranks: equal cells are equal renderings), in first-appearance order: a
// stable counting sort on the key cells makes equal keys adjacent, and a
// pass in input order numbers each run of them when its first row appears.
func (r *relation) group(keys, outKeys []string, aggs []Aggregate) error {
	keyIdx, err := r.columns("group", keys...)
	if err != nil {
		return err
	}
	outKeyIdx, err := r.columns("group", outKeys...)
	if err != nil {
		return err
	}
	argIdx := make([]int, len(aggs))
	for i, a := range aggs {
		// Only the legacy bare COUNT has no argument column.
		if argIdx[i] = slices.Index(r.cols, a.Var); argIdx[i] < 0 && (a.Var != "" || a.Func != AggCount) {
			return fmt.Errorf("query: group input lacks column %q", a.Var)
		}
	}

	w := len(r.cols)
	// group runs first, on the merge's canonical order: when the keys are
	// the leading columns, rows with equal keys are adjacent already.
	sortKeys := keyIdx
	if !slices.ContainsFunc(keyIdx, func(k int) bool { return k >= len(keyIdx) }) {
		sortKeys = nil
	}
	perm := r.sortedBy(sortKeys)
	run := make([]int32, r.n) // per row, its run of equal keys in perm
	buckets := 0
	for j, p := range perm {
		keyChanged := j == 0 || slices.ContainsFunc(keyIdx, func(k int) bool {
			return r.cells[int(p)*w+k] != r.cells[int(perm[j-1])*w+k]
		})
		if keyChanged {
			buckets++
		}
		run[p] = int32(buckets - 1)
	}
	if len(keys) == 0 {
		buckets = 1 // even on empty input
	}

	// Bucket b's states are states[b*na:(b+1)*na], its projected key cells
	// outCells[b*nk:(b+1)*nk].
	na, nk := len(aggs), len(outKeyIdx)
	states := make([]aggState, buckets*na)
	outCells := make([]uint32, buckets*nk)
	bucketOf := slices.Repeat([]int{-1}, buckets) // per run
	next := 0
	for i := 0; i < r.n; i++ {
		row := r.row(i)
		b := bucketOf[run[i]]
		if b < 0 {
			b, bucketOf[run[i]] = next, next
			next++
			for j, k := range outKeyIdx {
				outCells[b*nk+j] = row[k]
			}
		}
		for ai, a := range aggs {
			var cell uint32
			if argIdx[ai] >= 0 {
				cell = row[argIdx[ai]]
			}
			states[b*na+ai].add(a.Func, cell, r.vals)
		}
	}

	r.cols = slices.Clone(outKeys)
	for _, a := range aggs {
		r.cols = append(r.cols, a.OutName())
	}
	r.n, r.cells = buckets, make([]uint32, 0, buckets*(nk+na))
	r.vals.aggs = slices.Grow(r.vals.aggs, buckets*na)
	for b := 0; b < buckets; b++ {
		r.cells = append(r.cells, outCells[b*nk:(b+1)*nk]...)
		for ai, a := range aggs {
			r.cells = append(r.cells, states[b*na+ai].final(a.Func, r.vals))
		}
	}
	return nil
}

// aggState is one aggregate's fold state within a group.
type aggState struct {
	n       int64   // COUNT
	sum     float64 // SUM / AVG numerator
	numN    int64   // SUM / AVG numeric-input count
	best    uint32  // MIN / MAX
	hasBest bool
}

func (s *aggState) add(fn AggFunc, cell uint32, vals *values) {
	switch fn {
	case AggCount:
		s.n++
	case AggSum, AggAvg:
		// Non-numeric inputs are skipped rather than poisoning the sum.
		if f, ok := vals.float(cell); ok {
			s.sum += f
			s.numN++
		}
	case AggMin:
		if !s.hasBest || vals.compare(cell, s.best) < 0 {
			s.best, s.hasBest = cell, true
		}
	case AggMax:
		if !s.hasBest || vals.compare(s.best, cell) < 0 {
			s.best, s.hasBest = cell, true
		}
	}
}

func (s *aggState) final(fn AggFunc, vals *values) uint32 {
	out := aggValue{kind: 'd', f: s.sum}
	switch fn {
	case AggCount:
		out = aggValue{kind: 'l', n: s.n}
	case AggAvg:
		if s.numN > 0 { // an AVG of nothing stays the zero sum
			out.f /= float64(s.numN)
		}
	case AggMin, AggMax:
		if s.hasBest {
			return s.best
		}
		out.kind = 'e'
	}
	return vals.addAgg(out)
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
