package query

import (
	"fmt"
	"slices"
	"strings"

	"github.com/datacron-project/datacron/internal/rdf"
)

// The one set-semantics row merge (DESIGN.md §16). The scan operator merges
// the rows of a node's shards with it, and a cluster coordinator merges the
// rows of its nodes with it: both dedup on a row's NUL-joined Term.String()
// cells and sort cell-wise on the same strings, so the merge is associative
// and commutative across the two levels. A cluster of N nodes and a single
// node holding the union therefore hand the identical canonical row set to
// the identical final operators — bit-identical answers.

// renderedRow is a row with every cell rendered once: the renderings are
// the dedup key and the sort key, so no comparison renders a term again.
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

// key is the row's identity under set semantics.
func (r renderedRow) key() string { return strings.Join(r.cells, "\x00") }

// sortRendered puts rows in canonical order: lexicographic cell by cell on
// the renderings, shorter row first on a tie.
func sortRendered(rows []renderedRow) {
	slices.SortFunc(rows, func(a, b renderedRow) int { return slices.Compare(a.cells, b.cells) })
}

// rowSet accumulates distinct rows.
type rowSet struct {
	seen map[string]struct{}
	rows []renderedRow
}

// add keeps r unless a row with the same key is already held. The caller
// passes r.key() so that concurrent producers build keys outside the lock
// that serialises add.
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

// sorted returns the distinct rows in canonical order.
func (s *rowSet) sorted() []renderedRow {
	sortRendered(s.rows)
	return s.rows
}

// Finalize is the coordinator half of a distributed query. Every node ran
// q's partial form — StripFinal: grouping, aggregation, ordering and LIMIT
// removed, the projection widened to the aggregate inputs — and returned
// its distinct rows over vars as Term.String() cells. Finalize merges them
// through rowSet, parses the surviving cells back into terms (Term.String
// and rdf.ParseTerm round-trip exactly) and runs the engine's own
// group/sort/limit chain over them. Aggregation therefore folds the
// identical canonically sorted row set in the identical order on both
// sides, which keeps even float sums bit-identical, and COUNT-before-LIMIT
// falls out: LIMIT is the last operator. Empty partials contribute nothing.
func Finalize(q *Query, vars []string, partials ...[][]string) (*Result, error) {
	var set rowSet
	for _, part := range partials {
		for _, cells := range part {
			r := renderedRow{cells: cells}
			set.add(r.key(), r)
		}
	}
	rel := relation{cols: vars, rows: make([][]rdf.Term, 0, len(set.rows))}
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
	out, err := finalizeOps(q, &constOp{rel: rel}).exec()
	if err != nil {
		return nil, err
	}
	return &Result{Vars: out.cols, Rows: out.rows}, nil
}
