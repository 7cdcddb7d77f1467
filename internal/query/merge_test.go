package query

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
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

// rankInput builds one column's dictionary and distinct ids from fuzz bytes,
// three to a term and one more per value byte: a kind (IRI, blank node, plain,
// xsd:string, xsd:double, tagged, tagged with a datatype — each literal
// kind rendering like another for some value), a prefix of 0 to 22 bytes that
// ends before, inside or past the 8-byte window rankTerms keys on, and up to
// eleven bytes from an alphabet of quotes, backslashes, newlines, NUL and
// bytes that end a rendering. The ids are the terms in an order drawn from
// the rest, now and then with 0, the unbound cell; a term drawn twice is
// one id. Up to 96 terms: a column under 48 values takes rdf.RadixSort's
// insertion sort, a longer one its passes.
func rankInput(data []byte) (dict rdf.TermTable, ids []rdf.ID) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	prefixes := []string{"", "x", "abcdefg", "abcdefgh", "abcdefghi", "http://example.org/shared/", `a"b\c`}
	const alphabet = "ab\"\\\n\x00@^<>x\xff"
	d := rdf.NewDictionary()
	for len(data) > 0 && d.Len() < 96 {
		kind, prefix, size := next(), next(), next()
		var value strings.Builder
		value.WriteString(prefixes[prefix%len(prefixes)])
		for k := 0; k < size%12; k++ {
			value.WriteByte(alphabet[next()%len(alphabet)])
		}
		v := value.String()
		id, _ := d.Encode([]rdf.Term{
			rdf.NewIRI(v), rdf.NewBlank(v), rdf.NewLiteral(v), rdf.NewTyped(v, rdf.XSDString), rdf.NewTyped(v, rdf.XSDDouble),
			{Kind: rdf.Literal, Value: v, Lang: "en"}, {Kind: rdf.Literal, Value: v, Lang: "en", Datatype: rdf.XSDLong},
		}[kind%7])
		if int(id) > len(ids) {
			ids = append(ids, id)
		}
	}
	for i := len(ids) - 1; i > 0; i-- {
		j := next() % (i + 1)
		ids[i], ids[j] = ids[j], ids[i]
	}
	if next()%5 == 1 {
		ids = append(ids, 0)
	}
	return d.Terms(), ids
}

// FuzzRankTerms holds rankTerms — a radix sort of 8-byte windows past the
// column's shared prefix, full renderings compared only within runs of equal
// windows — to a comparison sort by Term.String() with an id tiebreak: the
// same distinct values, the smallest id of each rendering, the same ranks.
func FuzzRankTerms(f *testing.F) {
	for _, seed := range []string{
		"\x02\x00\x01a\x03\x00\x01a",                               // "x" beside "x"^^xsd:string
		"\x00\x05\x02ab\x00\x05\x02ba\x01\x05\x00\x02\x05\x01b",    // a 26-byte shared prefix
		"\x02\x03\x00\x02\x04\x00\x02\x02\x01\x03",                 // renderings ending inside, at and past the window
		"\x05\x01\x00\x06\x01\x00\x05\x00\x01\x01\x04\x00\x02",     // tagged literals with and without a datatype
		"\x02\x06\x02\x02\x02\x06\x02\x03\x02\x00\x03\x04\x05\x06", // escapes, NUL and equal windows
		"\x02\x00\x00\x01", // one value and the unbound cell
		strings.Repeat("\x02\x03\x02ab\x03\x04\x01b", 40), // 80 values: the radix passes, equal windows among them
		"", // an empty column, as a lazily ranked column can be: nothing to rank
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dict, ids := rankInput(data)
		sorted, ranks := rankTerms(dict, ids)
		order := make([]int, len(ids))
		for i := range order {
			order[i] = i
		}
		render := func(i int) string { return dict.At(ids[i]).String() }
		slices.SortFunc(order, func(a, b int) int { return cmp.Or(strings.Compare(render(a), render(b)), cmp.Compare(ids[a], ids[b])) })
		var wantSorted []rdf.ID
		wantRanks := make([]uint32, len(ids))
		for k, o := range order {
			if k == 0 || render(o) != render(order[k-1]) {
				wantSorted = append(wantSorted, ids[o])
			}
			wantRanks[o] = uint32(len(wantSorted) - 1)
		}
		if !slices.Equal(sorted, wantSorted) || !slices.Equal(ranks, wantRanks) {
			t.Fatalf("rankTerms over %q:\n got %v %v\nwant %v %v", data, sorted, ranks, wantSorted, wantRanks)
		}
	})
}
