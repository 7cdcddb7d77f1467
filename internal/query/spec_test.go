package query

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"

	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/rdf"
)

// The specification the evaluator is held to (DESIGN.md §16): a naive
// evaluator over terms, to be read rather than to be fast. Over the full view
// of each candidate shard (shard pruning is the engine's, §16) it joins in
// written order, filters once variables are bound, keeps the distinct rows by
// rendering in canonical order, groups, stable-sorts under compareTerms and
// truncates.

// compareTerms is the one total order on terms: numbers (Term.Float parses)
// first, by value (NaN first, -0 equal to +0), and every tie by rendering.
func compareTerms(a, b rdf.Term) int {
	af, aNum := a.Float() // 0 when not a number
	bf, bNum := b.Float()
	if aNum != bNum {
		if aNum {
			return -1
		}
		return 1
	}
	return cmp.Or(cmp.Compare(af, bf), strings.Compare(a.String(), b.String()))
}

// specRun answers q by the specification; Result carries the shards visited
// and each stage's row count.
func specRun(e *Engine, q *Query) (*Result, error) {
	cols := q.InputVars()
	vars := append(slices.Clone(cols), q.patternVars()...) // a binding starts with its row
	candidates := e.candidates(q)
	set := rowSet{}
	e.st.EachShardView(candidates, 1, func(_ int, v *rdf.View) {
		for _, b := range specJoin(v, q, vars) {
			r := renderRow(b[:len(cols)])
			set.add(r.key(), r)
		}
	})
	return specFinal(q, cols, set, Result{ShardsVisited: len(candidates)})
}

// specJoin is the nested-loop join of q.Patterns in written order over
// every triple of v. A binding holds a term per slot of vars (a variable's
// slot is its first), the zero term while unbound.
func specJoin(v *rdf.View, q *Query, vars []string) [][]rdf.Term {
	var triples [][3]rdf.Term
	dict := v.Dict().Terms()
	for t := range rdf.Match(v, rdf.Wildcard, rdf.Wildcard, rdf.Wildcard) {
		triples = append(triples, [3]rdf.Term{dict.At(t.S), dict.At(t.P), dict.At(t.O)})
	}
	bindings := [][]rdf.Term{make([]rdf.Term, len(vars))}
	for i, tp := range q.Patterns {
		slot := [3]int{slices.Index(vars, tp.S.Var), slices.Index(vars, tp.P.Var), slices.Index(vars, tp.O.Var)}
		admitted := slices.DeleteFunc(slices.Clone(triples), func(t [3]rdf.Term) bool { // what the constants (slot -1) admit
			return slot[0] < 0 && tp.S.Term != t[0] || slot[1] < 0 && tp.P.Term != t[1] || slot[2] < 0 && tp.O.Term != t[2]
		})
		var next [][]rdf.Term
		row := make([]rdf.Term, len(vars))
		for _, b := range bindings {
			for _, t := range admitted {
				copy(row, b)
				match := true
				for j, k := range slot {
					if k >= 0 && row[k] == (rdf.Term{}) {
						row[k] = t[j] // the variable's first binding
					} else if k >= 0 {
						match = match && row[k] == t[j]
					}
				}
				if match {
					next = append(next, slices.Clone(row))
				}
			}
		}
		for _, f := range q.Filters { // a filter is pure: running it again changes nothing
			if slices.ContainsFunc(f.Vars(), func(v string) bool { return !slices.Contains(allVars(q.Patterns[:i+1]), v) }) {
				continue // a variable not bound yet — or by no pattern: then it never runs
			}
			args := make([]rdf.Term, len(f.Vars()))
			next = slices.DeleteFunc(next, func(b []rdf.Term) bool {
				for k, v := range f.Vars() {
					args[k] = b[slices.Index(vars, v)]
				}
				return !f.Eval(args)
			})
		}
		bindings = next
	}
	return bindings
}

// specFinalize is Finalize by the specification: the distinct partial rows,
// each cell parsed back into its term.
func specFinalize(q *Query, vars []string, partials ...[][]string) (*Result, error) {
	var set rowSet
	for _, cells := range slices.Concat(partials...) {
		row := make([]rdf.Term, len(cells))
		for i, cell := range cells {
			var err error
			if row[i], err = rdf.ParseTerm(cell); err != nil {
				return nil, fmt.Errorf("query: finalize: partial row cell %q: %w", cell, err)
			}
		}
		set.add(strings.Join(cells, "\x00"), renderedRow{cells, row})
	}
	return specFinal(q, vars, set, Result{})
}

// specFinal completes res: group, a canonical sort when grouped without
// ORDER BY, ORDER BY and LIMIT over the set's rows in canonical order,
// reporting the rows after each as the engine does. Grouping reads only
// InputVars.
func specFinal(q *Query, cols []string, set rowSet, res Result) (*Result, error) {
	var rows [][]rdf.Term
	for _, r := range set.sorted() {
		rows = append(rows, r.terms)
	}
	at := func(row []rdf.Term, name string) rdf.Term { return row[slices.Index(cols, name)] }
	stages := []obs.PlanStage{{Rows: len(rows)}} // the source
	stage := func() { stages = append(stages, obs.PlanStage{Rows: len(rows)}) }
	if len(q.Aggs) > 0 || len(q.GroupBy) > 0 {
		var order []string // bucket keys in first-appearance order
		buckets := map[string][][]rdf.Term{}
		for _, row := range rows {
			key := ""
			for _, k := range q.GroupBy {
				key += at(row, k).String() + "\x00"
			}
			if _, ok := buckets[key]; !ok {
				order = append(order, key)
			}
			buckets[key] = append(buckets[key], row)
		}
		if len(q.GroupBy) == 0 && len(order) == 0 {
			order = []string{""} // one global group, even on empty input
		}
		var grouped [][]rdf.Term
		for _, key := range order {
			var out []rdf.Term
			for _, k := range q.groupCols() {
				out = append(out, at(buckets[key][0], k))
			}
			for _, a := range q.Aggs {
				out = append(out, specAggregate(a, slices.Index(cols, a.Var), buckets[key]))
			}
			grouped = append(grouped, out)
		}
		rows, cols = grouped, q.OutputVars()
		stage()
		if len(q.OrderBy) == 0 {
			slices.SortStableFunc(rows, func(a, b []rdf.Term) int { return slices.Compare(renderRow(a).cells, renderRow(b).cells) })
			stage()
		}
	}
	if len(q.OrderBy) > 0 {
		if i := slices.IndexFunc(q.OrderBy, func(k OrderKey) bool { return !slices.Contains(cols, k.Var) }); i >= 0 {
			return nil, fmt.Errorf("query: ORDER BY input lacks column %q", q.OrderBy[i].Var)
		}
		slices.SortStableFunc(rows, func(a, b []rdf.Term) int {
			for _, k := range q.OrderBy {
				c := compareTerms(at(a, k.Var), at(b, k.Var))
				if k.Desc {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		})
		stage()
	}
	if q.Limit > 0 {
		rows = rows[:min(q.Limit, len(rows))]
		stage()
	}
	res.Vars, res.Rows, res.Plan = cols, rows, PlanFacts{Stages: stages}
	return &res, nil
}

// specAggregate folds an aggregate over a bucket's rows, its argument in
// column arg (-1 for the bare COUNT): SUM and AVG add the numbers in order,
// MIN and MAX keep the first least or greatest cell, or the empty literal.
func specAggregate(a Aggregate, arg int, rows [][]rdf.Term) rdf.Term {
	byArg := func(x, y []rdf.Term) int { return compareTerms(x[arg], y[arg]) }
	switch {
	case a.Func == AggCount:
		return rdf.NewLong(int64(len(rows)))
	case (a.Func == AggMin || a.Func == AggMax) && len(rows) == 0:
		return rdf.NewLiteral("")
	case a.Func == AggMin:
		return slices.MinFunc(rows, byArg)[arg]
	case a.Func == AggMax:
		return slices.MaxFunc(rows, byArg)[arg]
	}
	sum, nums := 0.0, 0
	for _, row := range rows {
		if f, ok := row[arg].Float(); ok {
			sum, nums = sum+f, nums+1
		}
	}
	if a.Func == AggAvg && nums > 0 {
		sum /= float64(nums)
	}
	return rdf.NewDouble(sum)
}

// renderedRow is a row with every cell rendered: the renderings are the
// dedup key and the sort key.
type renderedRow struct {
	cells []string   // Term.String() per cell
	terms []rdf.Term // the cells as terms
}

func renderRow(terms []rdf.Term) renderedRow {
	cells := make([]string, len(terms))
	for i, t := range terms {
		cells[i] = t.String()
	}
	return renderedRow{cells, terms}
}

func (r renderedRow) key() string { return strings.Join(r.cells, "\x00") }

// rowSet keeps the first row of each key; sorted returns them in canonical
// order, slices.Compare over the rendered cells.
type rowSet map[string]renderedRow

func (s *rowSet) add(key string, r renderedRow) {
	if *s == nil {
		*s = rowSet{}
	}
	if _, dup := (*s)[key]; !dup {
		(*s)[key] = r
	}
}

func (s *rowSet) sorted() []renderedRow {
	return slices.SortedFunc(maps.Values(*s), func(a, b renderedRow) int { return slices.Compare(a.cells, b.cells) })
}
