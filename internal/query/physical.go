package query

import (
	"fmt"
	"sort"
	"strings"

	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/rdf"
)

// This file is the physical layer of the two-stage query architecture: the
// parser produces a logical plan (*Query), finalizeOps lowers its final
// clauses onto a chain of physical operators, and exec pulls the chain.
// The scan operator fuses pattern matching, join and filter evaluation per
// shard (the tiered block-scan / numeric-pushdown paths live inside it —
// see engine.go); group/aggregate, sort and limit run once over its output.
// The same finalize chain runs on a cluster coordinator over merged partial
// rows (Finalize in merge.go), which is what keeps distributed aggregation
// bit-identical to a single node.

// relation is the tabular value flowing between physical operators.
type relation struct {
	cols []string
	rows [][]rdf.Term
}

// physOp is one physical operator. exec pulls the child (if any) and
// produces the operator's output; stage reports plan facts for the
// slow-query log and -explain (Rows is -1 until executed).
type physOp interface {
	exec() (relation, error)
	stage() obs.PlanStage
	child() physOp
}

// collectStages returns the chain's plan facts in execution order (leaf
// first), matching obs.FormatPlanStages.
func collectStages(root physOp) []obs.PlanStage {
	var rev []physOp
	for op := root; op != nil; op = op.child() {
		rev = append(rev, op)
	}
	out := make([]obs.PlanStage, 0, len(rev))
	for i := len(rev) - 1; i >= 0; i-- {
		out = append(out, rev[i].stage())
	}
	return out
}

// finalizeOps lowers the final clauses of a query — grouping/aggregation,
// ordering, limit — onto src. Grouped queries without an ORDER BY get a
// canonical sort so their output order is deterministic; plain scans are
// already canonically sorted by the scan operator.
func finalizeOps(q *Query, src physOp) physOp {
	op := src
	if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
		outKeys := q.GroupBy
		if len(q.Vars) > 0 && len(q.GroupBy) > 0 {
			outKeys = q.Vars
		}
		op = &groupOp{src: op, keys: q.GroupBy, outKeys: outKeys, aggs: q.Aggs}
		if len(q.OrderBy) == 0 {
			op = &sortOp{src: op, canonical: true}
		}
	}
	if len(q.OrderBy) > 0 {
		op = &sortOp{src: op, keys: q.OrderBy}
	}
	if q.Limit > 0 {
		op = &limitOp{src: op, n: q.Limit}
	}
	return op
}

// scanOp evaluates the pattern+filter part of the query over the sharded
// store: shard pruning, per-shard greedy planning, block scans with
// numeric pushdown, parallel evaluation, set-semantics dedup and canonical
// sort — the whole pre-refactor engine behind one operator.
type scanOp struct {
	e *Engine
	q *Query

	executed      bool
	shardsVisited int
	segsPruned    int
	rowsOut       int
}

func (s *scanOp) exec() (relation, error) {
	rel, visited, pruned := s.e.scanRelation(s.q)
	s.executed = true
	s.shardsVisited = visited
	s.segsPruned = pruned
	s.rowsOut = len(rel.rows)
	return rel, nil
}

func (s *scanOp) stage() obs.PlanStage {
	visited := s.shardsVisited
	if !s.executed {
		visited = len(s.e.candidates(s.q))
	}
	detail := fmt.Sprintf("patterns=%d filters=%d shards=%d/%d",
		len(s.q.Patterns), len(s.q.Filters), visited, s.e.st.NumShards())
	rows := -1
	if s.executed {
		detail += fmt.Sprintf(" segments_pruned=%d", s.segsPruned)
		rows = s.rowsOut
	}
	return obs.PlanStage{Op: "scan", Detail: detail, Rows: rows}
}

func (s *scanOp) child() physOp { return nil }

// constOp wraps an already-materialised relation: the coordinator-side
// source when finalizing merged partial rows.
type constOp struct{ rel relation }

func (c *constOp) exec() (relation, error) { return c.rel, nil }
func (c *constOp) stage() obs.PlanStage {
	return obs.PlanStage{Op: "merge", Detail: fmt.Sprintf("cols=%d", len(c.rel.cols)), Rows: len(c.rel.rows)}
}
func (c *constOp) child() physOp { return nil }

// groupOp hash-groups its input on keys (no keys = one global group, which
// exists even on empty input, preserving COUNT's count=0 row) and folds the
// aggregates. Input rows are the DISTINCT canonically-sorted projection of
// the aggregate inputs, and states fold in that order, so float sums are
// reproducible across runs and across single-node vs coordinator execution.
type groupOp struct {
	src     physOp
	keys    []string // grouping columns
	outKeys []string // projected group columns (⊆ keys)
	aggs    []Aggregate

	executed bool
	rowsOut  int
}

func (g *groupOp) exec() (relation, error) {
	in, err := g.src.exec()
	if err != nil {
		return relation{}, err
	}
	colIdx := map[string]int{}
	for i, c := range in.cols {
		colIdx[c] = i
	}
	lookup := func(name string) (int, error) {
		i, ok := colIdx[name]
		if !ok {
			return 0, fmt.Errorf("query: group input lacks column %q", name)
		}
		return i, nil
	}
	keyIdx := make([]int, len(g.keys))
	for i, k := range g.keys {
		if keyIdx[i], err = lookup(k); err != nil {
			return relation{}, err
		}
	}
	outKeyIdx := make([]int, len(g.outKeys))
	for i, k := range g.outKeys {
		if outKeyIdx[i], err = lookup(k); err != nil {
			return relation{}, err
		}
	}
	argIdx := make([]int, len(g.aggs))
	for i, a := range g.aggs {
		argIdx[i] = -1
		if a.Var != "" {
			if argIdx[i], err = lookup(a.Var); err != nil {
				return relation{}, err
			}
		}
	}

	type bucket struct {
		out    []rdf.Term
		states []aggState
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
			b = &bucket{states: make([]aggState, len(g.aggs))}
			for _, i := range outKeyIdx {
				b.out = append(b.out, row[i])
			}
			buckets[k] = b
			order = append(order, b)
		}
		for ai, a := range g.aggs {
			var cell rdf.Term
			if argIdx[ai] >= 0 {
				cell = row[argIdx[ai]]
			}
			b.states[ai].add(a.Func, cell)
		}
	}
	if len(g.keys) == 0 && len(order) == 0 {
		order = append(order, &bucket{states: make([]aggState, len(g.aggs))})
	}

	cols := make([]string, 0, len(g.outKeys)+len(g.aggs))
	cols = append(cols, g.outKeys...)
	for _, a := range g.aggs {
		cols = append(cols, a.OutName())
	}
	rows := make([][]rdf.Term, 0, len(order))
	for _, b := range order {
		row := make([]rdf.Term, 0, len(cols))
		row = append(row, b.out...)
		for ai, a := range g.aggs {
			row = append(row, b.states[ai].final(a.Func))
		}
		rows = append(rows, row)
	}
	g.executed = true
	g.rowsOut = len(rows)
	return relation{cols: cols, rows: rows}, nil
}

func (g *groupOp) stage() obs.PlanStage {
	names := make([]string, len(g.aggs))
	for i, a := range g.aggs {
		names[i] = a.OutName()
	}
	detail := fmt.Sprintf("keys=%s aggs=%s",
		joinOrDash(g.keys), joinOrDash(names))
	rows := -1
	if g.executed {
		rows = g.rowsOut
	}
	return obs.PlanStage{Op: "group", Detail: detail, Rows: rows}
}

func (g *groupOp) child() physOp { return g.src }

func joinOrDash(ss []string) string {
	if len(ss) == 0 {
		return "-"
	}
	return strings.Join(ss, ",")
}

// aggState is one aggregate's fold state within a group.
type aggState struct {
	n       int64    // COUNT
	sum     float64  // SUM / AVG numerator
	numN    int64    // SUM / AVG numeric-input count
	best    rdf.Term // MIN / MAX
	hasBest bool
}

func (s *aggState) add(fn AggFunc, cell rdf.Term) {
	switch fn {
	case AggCount:
		s.n++
	case AggSum, AggAvg:
		// Non-numeric inputs are skipped rather than poisoning the sum.
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

func (s *aggState) final(fn AggFunc) rdf.Term {
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
// (ties and everything else fall back to the N-Triples serialisation), the
// comparator behind ORDER BY and MIN/MAX.
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

// sortOp orders its input: by ORDER BY keys (stable, so equal keys keep
// the child's deterministic order) or canonically (the grouped-no-ORDER-BY
// default).
type sortOp struct {
	src       physOp
	keys      []OrderKey
	canonical bool

	executed bool
	rowsOut  int
}

func (s *sortOp) exec() (relation, error) {
	rel, err := s.src.exec()
	if err != nil {
		return relation{}, err
	}
	if s.canonical {
		rows := make([]renderedRow, len(rel.rows))
		for i, terms := range rel.rows {
			rows[i] = renderRow(terms)
		}
		sortRendered(rows)
		for i, r := range rows {
			rel.rows[i] = r.terms
		}
	} else {
		colIdx := map[string]int{}
		for i, c := range rel.cols {
			colIdx[c] = i
		}
		idx := make([]int, len(s.keys))
		for i, k := range s.keys {
			j, ok := colIdx[k.Var]
			if !ok {
				return relation{}, fmt.Errorf("query: ORDER BY key ?%s missing from input", k.Var)
			}
			idx[i] = j
		}
		sort.SliceStable(rel.rows, func(i, j int) bool {
			for ki, k := range s.keys {
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
	}
	s.executed = true
	s.rowsOut = len(rel.rows)
	return rel, nil
}

func (s *sortOp) stage() obs.PlanStage {
	detail := "canonical"
	if !s.canonical {
		parts := make([]string, len(s.keys))
		for i, k := range s.keys {
			parts[i] = "?" + k.Var
			if k.Desc {
				parts[i] += " DESC"
			}
		}
		detail = strings.Join(parts, ",")
	}
	rows := -1
	if s.executed {
		rows = s.rowsOut
	}
	return obs.PlanStage{Op: "sort", Detail: detail, Rows: rows}
}

func (s *sortOp) child() physOp { return s.src }

// limitOp truncates its input to n rows.
type limitOp struct {
	src physOp
	n   int

	executed bool
	rowsOut  int
}

func (l *limitOp) exec() (relation, error) {
	rel, err := l.src.exec()
	if err != nil {
		return relation{}, err
	}
	if len(rel.rows) > l.n {
		rel.rows = rel.rows[:l.n]
	}
	l.executed = true
	l.rowsOut = len(rel.rows)
	return rel, nil
}

func (l *limitOp) stage() obs.PlanStage {
	rows := -1
	if l.executed {
		rows = l.rowsOut
	}
	return obs.PlanStage{Op: "limit", Detail: fmt.Sprintf("n=%d", l.n), Rows: rows}
}

func (l *limitOp) child() physOp { return l.src }
