package query

import (
	"math"
	"testing"

	"github.com/datacron-project/datacron/internal/rdf"
)

// TestScanPatternConditionalBounds pins the CmpFilter pushdown's soundness
// rule at the scan level: conditional bounds intersect in only on
// predicates the segment's seal-time stats prove all-numeric; on a mixed
// predicate the scan must fall back to the full walk so the filter's
// string-comparison fallback still sees the non-numeric rows.
func TestScanPatternConditionalBounds(t *testing.T) {
	dict := rdf.NewDictionary()
	s := rdf.NewIRI("http://x/s")
	mixed := rdf.NewIRI("http://x/mixed")
	numeric := rdf.NewIRI("http://x/numeric")
	var triples []rdf.Triple
	add := func(p, o rdf.Term) {
		triples, _ = dict.EncodeBatch([]rdf.TermTriple{{S: s, P: p, O: o}}, triples)
	}
	for i := 0; i < 6; i++ {
		add(mixed, rdf.NewLong(int64(i)))
		add(numeric, rdf.NewLong(int64(i)))
	}
	add(mixed, rdf.NewLiteral("ZEBRA"))
	add(mixed, rdf.NewLiteral("YAK"))
	seg := rdf.NewSegment(dict, triples)

	pMixed, _ := dict.Encode(mixed)
	pNumeric, _ := dict.Encode(numeric)
	if seg.NumericOnly(pMixed) {
		t.Fatal("mixed predicate reported numeric-only")
	}
	if !seg.NumericOnly(pNumeric) {
		t.Fatal("numeric predicate not reported numeric-only")
	}

	count := func(p rdf.ID, ob *numBound) int {
		n := 0
		scanPattern(seg, rdf.Wildcard, p, rdf.Wildcard, ob, func(rdf.Triple) bool {
			n++
			return true
		})
		return n
	}
	condGE4 := &numBound{
		Lo: math.Inf(-1), Hi: math.Inf(1),
		CLo: 4, CHi: math.Inf(1), cond: true,
	}
	// Mixed predicate + conditional-only bound: every row must stream (6
	// numeric + 2 string), not just the numeric tail.
	if got := count(pMixed, condGE4); got != 8 {
		t.Fatalf("mixed predicate with conditional bound streamed %d rows, want all 8", got)
	}
	// Numeric-only predicate: the conditional bound narrows the scan to
	// values >= 4.
	if got := count(pNumeric, condGE4); got != 2 {
		t.Fatalf("numeric predicate with conditional bound streamed %d rows, want 2", got)
	}
	// An unconditional bound still applies to the numeric column of a mixed
	// predicate (its filters reject non-numeric bindings outright).
	uncond := &numBound{Lo: 4, Hi: math.Inf(1), CLo: math.Inf(-1), CHi: math.Inf(1)}
	if got := count(pMixed, uncond); got != 2 {
		t.Fatalf("mixed predicate with unconditional bound streamed %d rows, want 2", got)
	}
	// Conditional bound on top of an unconditional one narrows further on
	// the numeric-only predicate only.
	both := &numBound{Lo: 2, Hi: math.Inf(1), CLo: math.Inf(-1), CHi: 4, cond: true}
	if got := count(pNumeric, both); got != 3 {
		t.Fatalf("numeric predicate with both bounds streamed %d rows, want 3 (values 2..4)", got)
	}
	if got := count(pMixed, both); got != 4 {
		t.Fatalf("mixed predicate with both bounds streamed %d rows, want 4 (values 2..5)", got)
	}
}
