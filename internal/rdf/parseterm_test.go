package rdf

import "testing"

// roundTripTerms are terms of every shape this package produces.
var roundTripTerms = []Term{
	NewIRI("http://example.org/a"),
	NewIRI(""), // zero term renders "<>" and must survive the trip
	{},         // zero value is an empty IRI
	NewBlank("b0"),
	NewLiteral("plain"),
	NewLiteral(""),
	NewLiteral(`quotes " and \ backslash`),
	NewLiteral("tab\tnewline\nreturn\r"),
	NewLiteral("unicode λ ünïcode"),
	NewTyped("42", XSDLong),
	NewLong(-7),
	NewLong(0),
	NewDouble(2.5),
	NewDouble(-0.001),
	NewTyped("1e300", XSDDouble),
	{Kind: Literal, Value: "hello", Lang: "en"},
}

// TestParseTermRoundTrip pins the contract distributed query finalize
// depends on: Term → String → ParseTerm is the identity for every term
// this package produces, so a cluster coordinator can decode the
// stringified partial rows back into terms and re-run the engine's own
// finalize operators over them.
func TestParseTermRoundTrip(t *testing.T) {
	for _, in := range roundTripTerms {
		s := in.String()
		out, err := ParseTerm(s)
		if err != nil {
			t.Errorf("ParseTerm(%q): %v", s, err)
			continue
		}
		if out != in {
			t.Errorf("round trip of %q: got %+v, want %+v", s, out, in)
		}
		if out.String() != s {
			t.Errorf("re-serialisation of %q changed to %q", s, out.String())
		}
	}
}

// malformedTerms are inputs ParseTerm must refuse.
var malformedTerms = []string{
	"",
	"   ",
	"<http://no-close",
	`"unterminated`,
	"bare",
	"<a> <b>",           // two terms
	`"x"^^<http://open`, // unterminated datatype IRI
	`"x" trailing`,
}

func TestParseTermRejectsMalformed(t *testing.T) {
	for _, s := range malformedTerms {
		if got, err := ParseTerm(s); err == nil {
			t.Errorf("ParseTerm(%q) accepted: %+v", s, got)
		}
	}
}

// FuzzParseTerm holds the parser a cluster coordinator runs on every peer
// cell (query.Finalize) to its contract: no input panics it, and every term
// it accepts comes back unchanged from String and a second ParseTerm — the
// round trip bit-identical scatter-gather relies on.
func FuzzParseTerm(f *testing.F) {
	for _, t := range roundTripTerms {
		f.Add(t.String())
	}
	for _, s := range malformedTerms {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		term, err := ParseTerm(s)
		if err != nil {
			return
		}
		again, err := ParseTerm(term.String())
		if err != nil {
			t.Fatalf("ParseTerm(%q) = %+v, whose rendering %q does not parse: %v", s, term, term.String(), err)
		}
		if again != term {
			t.Fatalf("ParseTerm(%q) = %+v, but its rendering %q parses to %+v", s, term, term.String(), again)
		}
	})
}
