package query

import (
	"reflect"
	"testing"

	"github.com/datacron-project/datacron/internal/rdf"
)

// TestRowSet pins the one set-semantics merge the scan operator and the
// coordinator share: dedup on the NUL-joined cells, canonical cell-wise
// order, shorter row first on a tie.
func TestRowSet(t *testing.T) {
	cases := []struct {
		name     string
		partials [][][]string
		want     [][]string
	}{
		{
			name:     "no partials",
			partials: nil,
			want:     nil,
		},
		{
			name:     "all empty partials",
			partials: [][][]string{{}, nil, {}},
			want:     nil,
		},
		{
			name: "disjoint partials union sorted",
			partials: [][][]string{
				{{"c"}, {"a"}},
				{{"b"}},
			},
			want: [][]string{{"a"}, {"b"}, {"c"}},
		},
		{
			name: "replicated rows deduplicate",
			partials: [][][]string{
				{{"x", "1"}, {"y", "2"}},
				{{"x", "1"}, {"z", "3"}},
				{{"y", "2"}},
			},
			want: [][]string{{"x", "1"}, {"y", "2"}, {"z", "3"}},
		},
		{
			name: "one empty partial among full ones",
			partials: [][][]string{
				{{"b"}},
				{},
				{{"a"}},
			},
			want: [][]string{{"a"}, {"b"}},
		},
		{
			name: "shorter row sorts first on shared prefix",
			partials: [][][]string{
				{{"a", "b"}},
				{{"a"}},
			},
			want: [][]string{{"a"}, {"a", "b"}},
		},
		{
			name: "cells differing beyond first column",
			partials: [][][]string{
				{{"a", "2"}},
				{{"a", "1"}},
			},
			want: [][]string{{"a", "1"}, {"a", "2"}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var set rowSet
			for _, part := range tc.partials {
				for _, cells := range part {
					r := renderedRow{cells: cells}
					set.add(r.key(), r)
				}
			}
			var got [][]string
			for _, r := range set.sorted() {
				got = append(got, r.cells)
			}
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("merged rows = %v, want %v", got, tc.want)
			}
		})
	}
}

// TestFinalize pins the coordinator-side finalize: the merged distinct
// partial rows run through the same group/sort/limit operators a single
// node executes.
func TestFinalize(t *testing.T) {
	// Input rows are stringified terms exactly as nodes return them; every
	// case receives them as three partials — out of order, one empty, two
	// sharing a row.
	iri := func(s string) string { return rdf.NewIRI(s).String() }
	long := func(n int64) string { return rdf.NewLong(n).String() }
	dbl := func(f float64) string { return rdf.NewDouble(f).String() }
	vars := []string{"n", "s"}
	rows := [][]string{
		{iri("a"), long(1)},
		{iri("a"), long(2)},
		{iri("b"), long(3)},
	}
	where := " WHERE { ?n dat:speed ?s . }"
	cases := []struct {
		name     string
		query    string
		wantVars []string
		wantRows [][]string
	}{
		{"plain passthrough", "SELECT ?n ?s" + where, vars, rows},
		{"limit truncates", "SELECT ?n ?s" + where + " LIMIT 2", vars, rows[:2]},
		// COUNT measures the distinct set BEFORE any limit truncation —
		// LIMIT is the last operator, after aggregation, the same
		// independent-of-LIMIT contract the engine pins in its count tables.
		{"count ignores limit", "SELECT COUNT" + where + " LIMIT 2",
			[]string{"count"}, [][]string{{long(3)}}},
		{"count without limit", "SELECT COUNT" + where,
			[]string{"count"}, [][]string{{long(3)}}},
		{"group by with aggregates", "SELECT ?n COUNT(?s) SUM(?s)" + where + " GROUP BY ?n",
			[]string{"n", "count_s", "sum_s"},
			[][]string{{iri("a"), long(2), dbl(3)}, {iri("b"), long(1), dbl(3)}}},
		{"order by desc with limit", "SELECT ?n SUM(?s)" + where + " GROUP BY ?n ORDER BY ?sum_s DESC LIMIT 1",
			[]string{"n", "sum_s"},
			[][]string{{iri("a"), dbl(3)}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res, err := Finalize(MustParse(tc.query), vars, [][]string{rows[2], rows[0]}, nil, rows[:2])
			if err != nil {
				t.Fatalf("Finalize: %v", err)
			}
			if gotRows := cellsOf(res); !reflect.DeepEqual(res.Vars, tc.wantVars) || !reflect.DeepEqual(gotRows, tc.wantRows) {
				t.Fatalf("Finalize(%q) = %v %v, want %v %v",
					tc.query, res.Vars, gotRows, tc.wantVars, tc.wantRows)
			}
		})
	}

	// Zero rows: COUNT is a "0"^^long row, not an empty result.
	q := MustParse("SELECT COUNT" + where + " LIMIT 5")
	res, err := Finalize(q, vars)
	if err != nil {
		t.Fatalf("Finalize: %v", err)
	}
	if gotRows := cellsOf(res); res.Vars[0] != "count" || len(gotRows) != 1 || gotRows[0][0] != long(0) {
		t.Fatalf("empty COUNT = %v %v", res.Vars, gotRows)
	}

	// A malformed cell (not a term serialisation) is an error, not a panic.
	if _, err := Finalize(MustParse("SELECT COUNT"+where), vars, [][]string{{"not a term", "x"}}); err == nil {
		t.Fatal("Finalize accepted a malformed cell")
	}
}

// cellsOf renders a result's rows the way the wire does.
func cellsOf(res *Result) [][]string {
	out := make([][]string, len(res.Rows))
	for i, row := range res.Rows {
		out[i] = renderRow(row).cells
	}
	return out
}
