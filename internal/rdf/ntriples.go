package rdf

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strings"
)

// WriteNTriples serialises a graph's triples to w in canonical N-Triples
// form: lines are sorted lexicographically and deduplicated, so two graphs
// holding the same triples produce byte-identical output regardless of
// insertion order, dictionary state or tier layout.
func WriteNTriples(w io.Writer, g Graph) error {
	dict := g.Dict()
	lines := make([]string, 0, g.Len())
	for t := range Match(g, Wildcard, Wildcard, Wildcard) {
		s, _ := dict.Decode(t.S)
		p, _ := dict.Decode(t.P)
		o, _ := dict.Decode(t.O)
		lines = append(lines, fmt.Sprintf("%s %s %s .\n", s, p, o))
	}
	sort.Strings(lines)
	bw := bufio.NewWriter(w)
	for i, line := range lines {
		if i > 0 && line == lines[i-1] {
			continue
		}
		if _, err := bw.WriteString(line); err != nil {
			return fmt.Errorf("rdf: write: %w", err)
		}
	}
	return bw.Flush()
}

// ReadNTriples parses N-Triples from r and adds them to h as one batch,
// returning the number of triples read. Blank lines and '#' comments are
// skipped; on a malformed line nothing is added.
func ReadNTriples(r io.Reader, h *Head) (int, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	var batch []TermTriple
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		s, p, o, err := ParseTripleLine(line)
		if err != nil {
			return len(batch), fmt.Errorf("rdf: line %d: %w", lineNo, err)
		}
		batch = append(batch, TermTriple{S: s, P: p, O: o})
	}
	if err := sc.Err(); err != nil {
		return len(batch), fmt.Errorf("rdf: read: %w", err)
	}
	return len(batch), h.AddBatch(batch)
}

// ParseTripleLine parses one N-Triples statement ending in " .".
func ParseTripleLine(line string) (s, p, o Term, err error) {
	rest := strings.TrimSpace(line)
	if !strings.HasSuffix(rest, ".") {
		return s, p, o, fmt.Errorf("missing terminating dot: %q", line)
	}
	rest = strings.TrimSpace(rest[:len(rest)-1])
	s, rest, err = parseTerm(rest)
	if err != nil {
		return s, p, o, fmt.Errorf("subject: %w", err)
	}
	if s.Kind == Literal {
		return s, p, o, fmt.Errorf("subject must be an IRI or blank node, got %s", s)
	}
	p, rest, err = parseTerm(rest)
	if err != nil {
		return s, p, o, fmt.Errorf("predicate: %w", err)
	}
	if p.Kind != IRI {
		return s, p, o, fmt.Errorf("predicate must be an IRI, got %s", p)
	}
	o, rest, err = parseTerm(rest)
	if err != nil {
		return s, p, o, fmt.Errorf("object: %w", err)
	}
	if strings.TrimSpace(rest) != "" {
		return s, p, o, fmt.Errorf("trailing content %q", rest)
	}
	return s, p, o, nil
}

// ParseTerm parses exactly one N-Triples term — the Term.String
// serialisation. The round trip Term → String → ParseTerm is exact for
// every term this package produces (escapeLiteral and unescapeLiteral are
// inverses), which is what lets a cluster coordinator decode the
// stringified partial rows of a scatter-gather query back into terms and
// re-run the engine's own finalize operators over them.
func ParseTerm(s string) (Term, error) {
	t, rest, err := parseTerm(s)
	if err != nil {
		return Term{}, err
	}
	if strings.TrimSpace(rest) != "" {
		return Term{}, fmt.Errorf("trailing content %q after term", rest)
	}
	return t, nil
}

// parseTerm consumes one term from the front of s and returns the rest.
func parseTerm(s string) (Term, string, error) {
	s = strings.TrimSpace(s)
	if s == "" {
		return Term{}, "", fmt.Errorf("unexpected end of statement")
	}
	switch s[0] {
	case '<':
		end := strings.IndexByte(s, '>')
		if end < 0 {
			return Term{}, "", fmt.Errorf("unterminated IRI in %q", s)
		}
		return NewIRI(s[1:end]), s[end+1:], nil
	case '_':
		if len(s) < 2 || s[1] != ':' {
			return Term{}, "", fmt.Errorf("malformed blank node in %q", s)
		}
		end := strings.IndexAny(s, " \t")
		if end < 0 {
			end = len(s)
		}
		return NewBlank(s[2:end]), s[end:], nil
	case '"':
		// Find the closing unescaped quote.
		end := -1
		for i := 1; i < len(s); i++ {
			if s[i] == '\\' {
				i++
				continue
			}
			if s[i] == '"' {
				end = i
				break
			}
		}
		if end < 0 {
			return Term{}, "", fmt.Errorf("unterminated literal in %q", s)
		}
		raw := s[1:end]
		val, err := unescapeLiteral(raw)
		if err != nil {
			return Term{}, "", err
		}
		rest := s[end+1:]
		t := NewLiteral(val)
		switch {
		case strings.HasPrefix(rest, "^^<"):
			dtEnd := strings.IndexByte(rest, '>')
			if dtEnd < 0 {
				return Term{}, "", fmt.Errorf("unterminated datatype in %q", rest)
			}
			// xsd:string is the plain literal and String renders it as one:
			// keep a single Term per rendering, or a graph parsed from both
			// spellings holds two triples that serialise to one line.
			if dt := rest[3:dtEnd]; dt != XSDString {
				t.Datatype = dt
			}
			rest = rest[dtEnd+1:]
		case strings.HasPrefix(rest, "@"):
			end := strings.IndexAny(rest, " \t")
			if end < 0 {
				end = len(rest)
			}
			t.Lang = rest[1:end]
			rest = rest[end:]
		}
		return t, rest, nil
	default:
		return Term{}, "", fmt.Errorf("unrecognised term start %q", s)
	}
}
