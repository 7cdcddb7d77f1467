package query

import (
	"math"
	"slices"
	"testing"

	"github.com/datacron-project/datacron/internal/rdf"
)

// TestScanPatternConditionalBounds pins the comparison pushdown at the scan
// level: a comparison against a number rejects every binding that is not a
// number, so its bound narrows even a mixed predicate's scan to the numeric
// rows inside the interval, and filtering what the scan streams gives the
// filter's answer over the whole predicate.
func TestScanPatternConditionalBounds(t *testing.T) {
	dict := rdf.NewDictionary()
	s := rdf.NewIRI("http://x/s")
	mixed := rdf.NewIRI("http://x/mixed")
	var triples []rdf.Triple
	add := func(o rdf.Term) {
		triples, _ = dict.EncodeBatch([]rdf.TermTriple{{S: s, P: mixed, O: o}}, triples)
	}
	for i := 0; i < 6; i++ {
		add(rdf.NewLong(int64(i)))
	}
	add(rdf.NewLiteral("ZEBRA"))
	add(rdf.NewLiteral("YAK"))
	add(rdf.NewLiteral("3x"))
	add(rdf.NewDouble(math.NaN()))
	seg := rdf.NewSegment(dict, triples)
	p, _ := dict.Lookup(mixed)
	isNumber := func(o rdf.Term) bool {
		f, ok := o.Float()
		return ok && !math.IsNaN(f)
	}

	// answer is the objects of the triples fn streams that every filter keeps.
	answer := func(filters []Filter, scan func(fn func(rdf.Triple) bool)) []rdf.Term {
		var out []rdf.Term
		scan(func(tr rdf.Triple) bool {
			o, _ := dict.Decode(tr.O)
			if !slices.ContainsFunc(filters, func(f Filter) bool { return !f.Eval([]rdf.Term{o}) }) {
				out = append(out, o)
			}
			return true
		})
		slices.SortFunc(out, compareTerms)
		return out
	}
	for _, tc := range []struct {
		filters []Filter
		scanned int // rows the bounded scan streams
	}{
		{[]Filter{CmpFilter{"v", OpGE, rdf.NewLong(4)}}, 2},
		{[]Filter{CmpFilter{"v", OpGT, rdf.NewLong(4)}}, 2},
		{[]Filter{CmpFilter{"v", OpLT, rdf.NewDouble(1.5)}}, 2},
		{[]Filter{CmpFilter{"v", OpEQ, rdf.NewLong(3)}}, 1},
		{[]Filter{CmpFilter{"v", OpGT, rdf.NewLong(1)}, CmpFilter{"v", OpLE, rdf.NewLong(4)}}, 4},
		{[]Filter{CmpFilter{"v", OpLE, rdf.NewDouble(math.Inf(1))}}, 6},
	} {
		var sfs []slotFilter
		for _, f := range tc.filters {
			sfs = append(sfs, slotFilter{f: f, slots: []int{0}})
		}
		ob := numericBounds(sfs, 1)[0]
		if ob == nil {
			t.Fatalf("%v: no bound", tc.filters)
		}
		scanned := 0
		bounded := answer(tc.filters, func(fn func(rdf.Triple) bool) {
			for _, r := range scanRuns(seg, rdf.Wildcard, p, rdf.Wildcard, ob, nil) {
				for i := range r.Len() {
					tr := r.At(i)
					if o, _ := dict.Decode(tr.O); !isNumber(o) {
						t.Fatalf("%v: the bounded scan streamed %v", tc.filters, o)
					}
					scanned++
					fn(tr)
				}
			}
		})
		full := answer(tc.filters, rdf.Match(seg, rdf.Wildcard, p, rdf.Wildcard))
		if scanned != tc.scanned {
			t.Errorf("%v: the bounded scan streamed %d rows, want %d", tc.filters, scanned, tc.scanned)
		}
		if !slices.Equal(bounded, full) {
			t.Errorf("%v: filtered bounded scan %v, filter over the predicate %v", tc.filters, bounded, full)
		}
	}
	// A comparison against a string or NaN, or a !=, pushes no bound; nor
	// does a filter naming a variable no pattern binds (slot -1): it never
	// runs.
	for _, sf := range []slotFilter{
		{CmpFilter{"v", OpGE, rdf.NewLiteral("YAK")}, []int{0}},
		{CmpFilter{"v", OpLT, rdf.NewDouble(math.NaN())}, []int{0}},
		{CmpFilter{"v", OpNE, rdf.NewLong(3)}, []int{0}},
		{WithinFilter{"v", "nowhere", worldBox}, []int{0, -1}},
	} {
		if ob := numericBounds([]slotFilter{sf}, 1)[0]; ob != nil {
			t.Errorf("%v pushed %+v", sf.f, *ob)
		}
	}
}
