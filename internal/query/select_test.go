package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"github.com/datacron-project/datacron/internal/rdf"
)

// selectionColumns are the kinds of column a sort key can read: numbers,
// IRIs, NaN among strings, tied aggregates, numbers mixed with strings, NaN
// among numbers and NaN among aggregates. compare is a total order on every
// one of them. A column draws either dictionary terms or aggregate results.
var selectionColumns = []struct {
	name string
	term func(*rand.Rand) rdf.Term
	agg  func(*rand.Rand) aggValue
}{
	{name: "numeric", term: func(rng *rand.Rand) rdf.Term {
		return pick(rng, rdf.NewLong(5), rdf.NewDouble(5), rdf.NewTyped("5.0", rdf.XSDDouble), rdf.NewLong(-3),
			rdf.NewDouble(math.Copysign(0, -1)), rdf.NewDouble(0), rdf.NewLong(0), rdf.NewDouble(2.5), rdf.NewLong(10))
	}},
	{name: "iri", term: func(rng *rand.Rand) rdf.Term { return rdf.NewIRI(fmt.Sprintf("http://ex/v%d", rng.Intn(8))) }},
	{name: "nan-and-strings", term: func(rng *rand.Rand) rdf.Term {
		return pick(rng, rdf.NewDouble(math.NaN()), rdf.NewLiteral("alpha"), rdf.NewLiteral("1z"), rdf.NewBlank("b"))
	}},
	{name: "equal-aggregates", agg: func(rng *rand.Rand) aggValue {
		return pick(rng, aggValue{kind: 'd'}, aggValue{kind: 'd', f: math.Copysign(0, -1)}, aggValue{kind: 'd', f: 7.5},
			aggValue{kind: 'd', f: 7.5}, aggValue{kind: 'd', f: -1})
	}},
	{name: "mixed", term: func(rng *rand.Rand) rdf.Term {
		return pick(rng, rdf.NewLong(10), rdf.NewLong(9), rdf.NewLiteral("1z"), rdf.NewLiteral("alpha"), rdf.NewDouble(0.5))
	}},
	{name: "nan-and-numbers", term: func(rng *rand.Rand) rdf.Term {
		return pick(rng, rdf.NewDouble(math.NaN()), rdf.NewLong(1), rdf.NewDouble(-2), rdf.NewLong(300))
	}},
	{name: "nan-aggregates", agg: func(rng *rand.Rand) aggValue {
		return pick(rng, aggValue{kind: 'd', f: math.NaN()}, aggValue{kind: 'd', f: 3}, aggValue{kind: 'l', n: 20}, aggValue{kind: 'e'})
	}},
}

func pick[T any](rng *rand.Rand, xs ...T) T { return xs[rng.Intn(len(xs))] }

// randomRelation builds n rows over the given column kinds the way the
// engine does: dictionary columns through mergeIDs (ranked, distinct,
// canonical), aggregate columns appended after, as group leaves them.
func randomRelation(rng *rand.Rand, kinds []int, n int) relation {
	dict := rdf.NewDictionary()
	var dictCols, aggCols []int
	for c, k := range kinds {
		if selectionColumns[k].agg != nil {
			aggCols = append(aggCols, c)
		} else {
			dictCols = append(dictCols, c)
		}
	}
	names := make([]string, len(kinds))
	for c := range names {
		names[c] = fmt.Sprintf("c%d", c)
	}
	var ids []rdf.ID
	for i := 0; i < n; i++ {
		for _, c := range dictCols {
			ids = append(ids, must(dict.Encode(selectionColumns[kinds[c]].term(rng))))
		}
		// A distinct last cell keeps rows from collapsing in the merge.
		ids = append(ids, must(dict.Encode(rdf.NewLong(int64(i)))))
	}
	inner := mergeIDs(append(pickNames(names, dictCols), "row"), ids, n, dict, true)
	rel := relation{cols: names, n: inner.n, vals: inner.vals}
	for i := 0; i < inner.n; i++ {
		row := make([]uint32, len(kinds))
		for j, c := range dictCols {
			row[c] = inner.row(i)[j]
		}
		for _, c := range aggCols {
			row[c] = rel.vals.addAgg(selectionColumns[kinds[c]].agg(rng))
		}
		rel.cells = append(rel.cells, row...)
	}
	// Shuffle: the selection must not lean on the canonical input order.
	rng.Shuffle(rel.n, func(i, j int) {
		a, b := rel.row(i), rel.row(j)
		for c := range a {
			a[c], b[c] = b[c], a[c]
		}
	})
	return rel
}

func pickNames(names []string, cols []int) []string {
	out := make([]string, len(cols))
	for i, c := range cols {
		out[i] = names[c]
	}
	return out
}

func must(id rdf.ID, err error) rdf.ID {
	if err != nil {
		panic(err)
	}
	return id
}

// cloneRelation copies the cells; the value table is shared (read-only but
// for memoised parses and renderings).
func cloneRelation(r relation) relation {
	r.cells = slices.Clone(r.cells)
	return r
}

// TestSelectionMatchesStableSort is the differential behind ORDER BY …
// LIMIT k's selection: over random relations whose key columns are numeric
// (±0, one value in several spellings), IRIs, NaN among strings, tied
// aggregates, numbers mixed with strings or with NaN, every k from 1 to
// n+1, one to three keys each ASC or DESC, the first k rows equal those of
// slices.SortStableFunc truncated to k; and the same for the canonical sort
// over all columns.
func TestSelectionMatchesStableSort(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for iter := 0; iter < 300; iter++ {
		kinds := make([]int, 1+rng.Intn(3))
		for i := range kinds {
			kinds[i] = rng.Intn(len(selectionColumns))
		}
		rel := randomRelation(rng, kinds, rng.Intn(30))
		keys := make([]OrderKey, 1+rng.Intn(len(kinds)))
		for i := range keys {
			keys[i] = OrderKey{Var: rel.cols[rng.Intn(len(rel.cols))], Desc: rng.Intn(2) == 0}
		}
		byKeys := func(a, b []uint32) int {
			for _, k := range keys {
				col := slices.Index(rel.cols, k.Var)
				c := rel.vals.compare(a[col], b[col])
				if k.Desc {
					c = -c
				}
				if c != 0 {
					return c
				}
			}
			return 0
		}
		canonical := func(a, b []uint32) int { return slices.CompareFunc(a, b, rel.vals.cmpRendered) }
		for k := 1; k <= rel.n+1; k++ {
			for _, tc := range []struct {
				name  string
				order func(a, b []uint32) int
				run   func(r *relation)
			}{
				{"ORDER BY", byKeys, func(r *relation) {
					if err := r.orderBy(keys, k); err != nil {
						t.Fatal(err)
					}
				}},
				{"canonical", canonical, func(r *relation) { r.sortRows(canonical, k) }},
			} {
				want := cloneRelation(rel)
				want.sortRows(tc.order, 0)
				got := cloneRelation(rel)
				tc.run(&got)
				if got.n != rel.n {
					t.Fatalf("%s k=%d: sort kept %d of %d rows", tc.name, k, got.n, rel.n)
				}
				m := min(k, rel.n) * len(rel.cols)
				if !slices.Equal(got.cells[:m], want.cells[:m]) {
					var kindNames []string
					for _, kd := range kinds {
						kindNames = append(kindNames, selectionColumns[kd].name)
					}
					t.Fatalf("iter %d %s %v over %v, k=%d of %d:\n got %v\nwant %v",
						iter, tc.name, keys, kindNames, k, rel.n, got.terms()[:min(k, rel.n)], want.terms()[:min(k, rel.n)])
				}
			}
		}
	}
}
