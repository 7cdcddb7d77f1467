package rdf

import (
	"fmt"
	"sync"
	"testing"
)

// TestDictionaryTermsIsAStableView pins what the query evaluator relies on:
// the view Terms returns decodes every id interned before the call, without
// a lock, while other goroutines keep interning (run under -race) — into the
// chunk the view's last records sit in, and past it.
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
		for id := ID(1); int(id) <= view.Len(); id++ {
			if want := NewLong(int64(id - 1)); view.At(id) != want || !view.Plain(id) {
				t.Fatalf("view.At(%d) = %v (plain %v), want %v", id, view.At(id), view.Plain(id), want)
			}
		}
	}
	wg.Wait()
	if view.Len() != 100 || d.Len() != 100+4*2000 {
		t.Fatalf("view has %d terms, dictionary %d", view.Len(), d.Len())
	}
	later := d.Terms()
	for id := ID(1); int(id) <= later.Len(); id++ {
		if want, _ := d.Decode(id); later.At(id) != want || later.Plain(id) != want.PlainRendering() {
			t.Fatalf("Terms().At(%d) = %v (plain %v), Decode = %v", id, later.At(id), later.Plain(id), want)
		}
	}
	if later.At(Wildcard) != (Term{}) {
		t.Fatalf("At(Wildcard) = %v, want the zero Term", later.At(Wildcard))
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
