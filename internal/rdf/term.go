// Package rdf implements the common-representation substrate of the
// datAcron architecture: RDF terms, dictionary encoding, triple sets in one
// index shape (sorted SPO runs with POS/OSP permutations — Segment, and Head
// as a list of them), and N-Triples serialisation. The
// "data transformation" layer (package onto) converts surveillance records
// into this representation; the parallel store (package store) shards it;
// the query layer (package query) evaluates spatio-temporal queries over it.
package rdf

import (
	"fmt"
	"strconv"
	"strings"
)

// Kind discriminates RDF term kinds.
type Kind uint8

// Term kinds.
const (
	IRI Kind = iota
	Literal
	Blank
)

// Common XSD datatype IRIs.
const (
	XSDString   = "http://www.w3.org/2001/XMLSchema#string"
	XSDDouble   = "http://www.w3.org/2001/XMLSchema#double"
	XSDLong     = "http://www.w3.org/2001/XMLSchema#long"
	XSDDateTime = "http://www.w3.org/2001/XMLSchema#dateTime"
	XSDBoolean  = "http://www.w3.org/2001/XMLSchema#boolean"
)

// RDFType is the rdf:type predicate IRI.
const RDFType = "http://www.w3.org/1999/02/22-rdf-syntax-ns#type"

// Term is one RDF term. The zero value is the empty IRI, which is invalid;
// use the constructors.
type Term struct {
	Kind     Kind
	Value    string // IRI, literal lexical form, or blank node label
	Datatype string // literal datatype IRI ("" = plain / xsd:string)
	Lang     string // literal language tag, if any
}

// NewIRI returns an IRI term.
func NewIRI(iri string) Term { return Term{Kind: IRI, Value: iri} }

// NewBlank returns a blank node term with the given label (without "_:").
func NewBlank(label string) Term { return Term{Kind: Blank, Value: label} }

// NewLiteral returns a plain string literal.
func NewLiteral(v string) Term { return Term{Kind: Literal, Value: v} }

// NewTyped returns a literal with a datatype IRI.
func NewTyped(v, datatype string) Term { return Term{Kind: Literal, Value: v, Datatype: datatype} }

// NewDouble returns an xsd:double literal.
func NewDouble(v float64) Term {
	return NewTyped(strconv.FormatFloat(v, 'g', -1, 64), XSDDouble)
}

// NewLong returns an xsd:long literal.
func NewLong(v int64) Term { return NewTyped(strconv.FormatInt(v, 10), XSDLong) }

// IsLiteral reports whether t is a literal.
func (t Term) IsLiteral() bool { return t.Kind == Literal }

// Float returns the numeric value of a typed literal, with ok=false for
// non-numeric terms.
func (t Term) Float() (float64, bool) {
	if t.Kind != Literal {
		return 0, false
	}
	v, err := strconv.ParseFloat(t.Value, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// Int returns the integer value of a typed literal.
func (t Term) Int() (int64, bool) {
	if t.Kind != Literal {
		return 0, false
	}
	v, err := strconv.ParseInt(t.Value, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// String renders the term in N-Triples syntax.
func (t Term) String() string {
	switch t.Kind {
	case IRI:
		return "<" + t.Value + ">"
	case Blank:
		return "_:" + t.Value
	default:
		s := "\"" + escapeLiteral(t.Value) + "\""
		if t.Lang != "" {
			return s + "@" + t.Lang
		}
		if t.Datatype != "" && t.Datatype != XSDString {
			return s + "^^<" + t.Datatype + ">"
		}
		return s
	}
}

// AppendString appends t.String() to dst without allocating a string: a
// reader that renders many terms (the query merge ranks every distinct value
// by its rendering) fills one buffer instead of making one string per term.
func (t Term) AppendString(dst []byte) []byte {
	switch t.Kind {
	case IRI:
		return append(append(append(dst, '<'), t.Value...), '>')
	case Blank:
		return append(append(dst, "_:"...), t.Value...)
	}
	dst = append(append(append(dst, '"'), escapeLiteral(t.Value)...), '"') // escapeLiteral copies only when it must
	if t.Lang != "" {
		return append(append(dst, '@'), t.Lang...)
	}
	if t.Datatype != "" && t.Datatype != XSDString {
		return append(append(append(dst, "^^<"...), t.Datatype...), '>')
	}
	return dst
}

// PlainRendering reports whether t.String() is the rendering of no other
// term that also reports true — so that a set of such terms can be deduped
// on their dictionary ids without rendering them. It holds for an IRI or
// blank node with no stray literal fields, and for a literal in the form the
// constructors give it whose value needs no escaping: the rendering of such
// a literal ends at its first quote after the opening one, so an equal
// rendering has the same value and the same suffix. What is left out — a
// literal carrying xsd:string, or both a language and a datatype, or an
// escape — can render like another term ("x" and "x"^^xsd:string do).
func (t Term) PlainRendering() bool {
	switch t.Kind {
	case IRI, Blank:
		return t.Datatype == "" && t.Lang == ""
	case Literal:
		return (t.Lang == "" || t.Datatype == "") && t.Datatype != XSDString &&
			!strings.ContainsAny(t.Value, "\"\\\n\r\t")
	}
	return false
}

// escapeLiteral escapes the characters N-Triples requires. It walks bytes,
// not runes: every escaped character is ASCII, and a rune walk would turn
// invalid UTF-8 into U+FFFD, which unescapeLiteral cannot undo.
func escapeLiteral(s string) string {
	if !strings.ContainsAny(s, "\"\\\n\r\t") {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		switch c := s[i]; c {
		case '"':
			b.WriteString(`\"`)
		case '\\':
			b.WriteString(`\\`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		case '\t':
			b.WriteString(`\t`)
		default:
			b.WriteByte(c)
		}
	}
	return b.String()
}

// unescapeLiteral reverses escapeLiteral.
func unescapeLiteral(s string) (string, error) {
	if !strings.ContainsRune(s, '\\') {
		return s, nil
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c != '\\' {
			b.WriteByte(c)
			continue
		}
		i++
		if i >= len(s) {
			return "", fmt.Errorf("rdf: dangling escape in literal %q", s)
		}
		switch s[i] {
		case '"':
			b.WriteByte('"')
		case '\\':
			b.WriteByte('\\')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		case 't':
			b.WriteByte('\t')
		default:
			return "", fmt.Errorf("rdf: unsupported escape \\%c", s[i])
		}
	}
	return b.String(), nil
}
