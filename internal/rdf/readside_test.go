package rdf

import (
	"fmt"
	"sync"
	"testing"
)

// TestDictionaryTermsIsAStableView pins what the query evaluator relies on:
// the slice Terms returns decodes every id interned before the call, without
// a lock, while other goroutines keep interning (run under -race).
func TestDictionaryTermsIsAStableView(t *testing.T) {
	d := NewDictionary()
	for i := 0; i < 100; i++ {
		d.Encode(NewLong(int64(i)))
	}
	view := d.Terms()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				d.Encode(NewIRI(fmt.Sprintf("http://ex/%d/%d", w, i)))
			}
		}(w)
	}
	for round := 0; round < 50; round++ {
		for i, term := range view {
			if want := NewLong(int64(i)); term != want {
				t.Fatalf("view[%d] = %v, want %v", i, term, want)
			}
		}
	}
	wg.Wait()
	if len(view) != 100 || d.Len() != 100+4*2000 {
		t.Fatalf("view has %d terms, dictionary %d", len(view), d.Len())
	}
	later := d.Terms()
	for id := ID(1); int(id) <= len(later); id++ {
		if want, _ := d.Decode(id); later[id-1] != want {
			t.Fatalf("Terms()[%d] = %v, Decode = %v", id-1, later[id-1], want)
		}
	}
	// The view cannot be grown into the dictionary's own storage.
	if cap(view) != len(view) {
		t.Fatalf("view has spare capacity %d", cap(view)-len(view))
	}
}

// TestPlainRendering pins AppendString to String, and the property the id-level dedup of an unordered
// scan rests on: two different terms that both report PlainRendering never
// render equally — and the terms that can share a rendering report false.
func TestPlainRendering(t *testing.T) {
	var terms []Term
	for _, v := range []string{"", "x", "5", "a b", "a\"b", "a\\b", "line\nbreak", "tab\t", "<x>", "x>", "\"", "@en", "^^<d>", "x\"@en"} {
		for _, dt := range []string{"", XSDString, XSDDouble, "d", "d>"} {
			for _, lang := range []string{"", "en", "en\""} {
				for _, kind := range []Kind{IRI, Literal, Blank, Kind(7)} {
					terms = append(terms, Term{Kind: kind, Value: v, Datatype: dt, Lang: lang})
				}
			}
		}
	}
	// AppendString is String into a caller's buffer, byte for byte.
	buf := []byte("prefix ")
	for _, term := range terms {
		if got := string(term.AppendString(buf)); got != "prefix "+term.String() {
			t.Fatalf("AppendString(%#v) = %q, String = %q", term, got, term.String())
		}
	}
	byRendering := map[string]Term{}
	plain := 0
	for _, term := range terms {
		if !term.PlainRendering() {
			continue
		}
		plain++
		if prev, dup := byRendering[term.String()]; dup {
			t.Fatalf("plain terms %#v and %#v both render %s", prev, term, term)
		}
		byRendering[term.String()] = term
	}
	if plain < 50 {
		t.Fatalf("only %d of %d sample terms are plain: the property is barely exercised", plain, len(terms))
	}
	for _, term := range []Term{
		NewTyped("x", XSDString),                                     // renders like NewLiteral("x")
		{Kind: Literal, Value: "x", Lang: "en", Datatype: XSDDouble}, // renders like the tagged literal alone
		{Kind: IRI, Value: "x", Lang: "en"},                          // renders like NewIRI("x")
		NewLiteral("a\"b"),                                           // escapes: invalid UTF-8 can collide after escaping
		{Kind: Kind(7), Value: "x"},                                  // renders like a literal
	} {
		if term.PlainRendering() {
			t.Errorf("%#v reports a plain rendering", term)
		}
	}
	for _, term := range []Term{NewIRI("http://ex/a"), NewBlank("b"), NewLiteral("x"), NewDouble(1.5), NewLong(7),
		{Kind: Literal, Value: "x", Lang: "en"}} {
		if !term.PlainRendering() {
			t.Errorf("%#v does not report a plain rendering", term)
		}
	}
}
