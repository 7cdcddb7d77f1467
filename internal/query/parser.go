package query

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"unicode"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/rdf"
)

// tokKind discriminates lexer tokens.
type tokKind int

const (
	tokEOF    tokKind = iota
	tokIdent          // SELECT, WHERE, prefixed:name, st:within …
	tokVar            // ?name
	tokIRI            // <...>
	tokString         // "..."
	tokNumber         // 42, -3.5
	tokPunct          // { } ( ) . , and comparison operators
)

type token struct {
	kind tokKind
	text string
	pos  int
}

// lexer tokenises a query string.
type lexer struct {
	src string
	pos int
}

func (l *lexer) errf(pos int, format string, args ...any) error {
	return fmt.Errorf("query: at offset %d: %s", pos, fmt.Sprintf(format, args...))
}

// looksLikeIRI distinguishes "<http://...>" from the '<' operator: an IRI
// has its closing '>' before any whitespace.
func (l *lexer) looksLikeIRI() bool {
	for i := l.pos + 1; i < len(l.src); i++ {
		c := l.src[i]
		if c == '>' {
			return true
		}
		if unicode.IsSpace(rune(c)) {
			return false
		}
	}
	return false
}

// next returns the next token.
func (l *lexer) next() (token, error) {
	for l.pos < len(l.src) && unicode.IsSpace(rune(l.src[l.pos])) {
		l.pos++
	}
	if l.pos >= len(l.src) {
		return token{kind: tokEOF, pos: l.pos}, nil
	}
	start := l.pos
	c := l.src[l.pos]
	switch {
	case c == '?':
		l.pos++
		for l.pos < len(l.src) && isNameChar(l.src[l.pos]) {
			l.pos++
		}
		if l.pos == start+1 {
			return token{}, l.errf(start, "empty variable name")
		}
		return token{kind: tokVar, text: l.src[start+1 : l.pos], pos: start}, nil
	case c == '<' && l.looksLikeIRI():
		end := strings.IndexByte(l.src[l.pos:], '>')
		tok := token{kind: tokIRI, text: l.src[l.pos+1 : l.pos+end], pos: start}
		l.pos += end + 1
		return tok, nil
	case c == '"':
		i := l.pos + 1
		for i < len(l.src) && l.src[i] != '"' {
			if l.src[i] == '\\' {
				i++
			}
			i++
		}
		if i >= len(l.src) {
			return token{}, l.errf(start, "unterminated string")
		}
		tok := token{kind: tokString, text: l.src[l.pos+1 : i], pos: start}
		l.pos = i + 1
		return tok, nil
	case c == '{' || c == '}' || c == '(' || c == ')' || c == ',' || c == '*':
		l.pos++
		return token{kind: tokPunct, text: string(c), pos: start}, nil
	case c == '.':
		// Dot is punctuation unless it starts a number like .5 (not supported).
		l.pos++
		return token{kind: tokPunct, text: ".", pos: start}, nil
	case strings.IndexByte("<>=!", c) >= 0:
		op := string(c)
		l.pos++
		if l.pos < len(l.src) && l.src[l.pos] == '=' {
			op += "="
			l.pos++
		}
		return token{kind: tokPunct, text: op, pos: start}, nil
	case c == '-' || c == '+' || unicode.IsDigit(rune(c)):
		l.pos++
		for l.pos < len(l.src) && (unicode.IsDigit(rune(l.src[l.pos])) || l.src[l.pos] == '.' || l.src[l.pos] == 'e' || l.src[l.pos] == 'E' || l.src[l.pos] == '-' || l.src[l.pos] == '+') {
			// Stop a trailing statement dot from being eaten: "5 ." has a
			// space, but "5." is treated as part of the number only when a
			// digit follows.
			if l.src[l.pos] == '.' && (l.pos+1 >= len(l.src) || !unicode.IsDigit(rune(l.src[l.pos+1]))) {
				break
			}
			l.pos++
		}
		return token{kind: tokNumber, text: l.src[start:l.pos], pos: start}, nil
	case isNameStart(c):
		l.pos++
		for l.pos < len(l.src) && (isNameChar(l.src[l.pos]) || l.src[l.pos] == ':') {
			l.pos++
		}
		return token{kind: tokIdent, text: l.src[start:l.pos], pos: start}, nil
	default:
		return token{}, l.errf(start, "unexpected character %q", c)
	}
}

func isNameStart(c byte) bool {
	return c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z')
}

func isNameChar(c byte) bool {
	return isNameStart(c) || ('0' <= c && c <= '9') || c == '-'
}

// parser consumes tokens into a Query.
type parser struct {
	lex *lexer
	cur token
	err error
}

// Parse parses one query.
func Parse(src string) (*Query, error) {
	p := &parser{lex: &lexer{src: src}}
	p.advance()
	return p.parseQuery()
}

func (p *parser) advance() {
	if p.err != nil {
		return
	}
	tok, err := p.lex.next()
	if err != nil {
		p.err = err
		return
	}
	p.cur = tok
}

func (p *parser) expectIdent(word string) error {
	if p.err != nil {
		return p.err
	}
	if p.cur.kind != tokIdent || !strings.EqualFold(p.cur.text, word) {
		return fmt.Errorf("query: expected %q, got %q at offset %d", word, p.cur.text, p.cur.pos)
	}
	p.advance()
	return p.err
}

func (p *parser) expectPunct(s string) error {
	if p.err != nil {
		return p.err
	}
	if p.cur.kind != tokPunct || p.cur.text != s {
		return fmt.Errorf("query: expected %q, got %q at offset %d", s, p.cur.text, p.cur.pos)
	}
	p.advance()
	return p.err
}

func (p *parser) parseQuery() (*Query, error) {
	q := &Query{}
	if err := p.expectIdent("SELECT"); err != nil {
		return nil, err
	}
	// Projection: an explicit * or no variables selects all pattern
	// variables. Variables and aggregates (COUNT, or FUNC(?var)) may be
	// intermixed in any order; the legacy "SELECT COUNT ?x" form still
	// means count-the-distinct-?x-rows.
	if p.cur.kind == tokPunct && p.cur.text == "*" {
		p.advance()
	}
	// advance() keeps the stale token on a lexer error, so the loop must
	// also watch p.err or a mid-projection error would spin forever.
	for p.err == nil {
		if p.cur.kind == tokVar {
			q.Vars = append(q.Vars, p.cur.text)
			p.advance()
			continue
		}
		fn, isAgg := aggFuncName(p.cur)
		if !isAgg {
			break
		}
		p.advance()
		agg, err := p.parseAggArg(fn)
		if err != nil {
			return nil, err
		}
		q.Aggs = append(q.Aggs, agg)
	}
	if p.err != nil {
		return nil, p.err
	}
	if err := p.expectIdent("WHERE"); err != nil {
		return nil, err
	}
	if err := p.expectPunct("{"); err != nil {
		return nil, err
	}
	for {
		if p.err != nil {
			return nil, p.err
		}
		if p.cur.kind == tokPunct && p.cur.text == "}" {
			p.advance()
			break
		}
		if p.cur.kind == tokIdent && strings.EqualFold(p.cur.text, "FILTER") {
			p.advance()
			f, err := p.parseFilter()
			if err != nil {
				return nil, err
			}
			q.Filters = append(q.Filters, f)
			continue
		}
		tp, err := p.parseTriple()
		if err != nil {
			return nil, err
		}
		q.Patterns = append(q.Patterns, tp)
	}
	if p.cur.kind == tokIdent && strings.EqualFold(p.cur.text, "GROUP") {
		p.advance()
		if err := p.expectIdent("BY"); err != nil {
			return nil, err
		}
		// Same stale-token hazard as the projection loop: check p.err.
		for p.err == nil && p.cur.kind == tokVar {
			q.GroupBy = append(q.GroupBy, p.cur.text)
			p.advance()
			if p.cur.kind == tokPunct && p.cur.text == "," {
				p.advance()
			}
		}
		if p.err != nil {
			return nil, p.err
		}
		if len(q.GroupBy) == 0 {
			return nil, fmt.Errorf("query: GROUP BY needs at least one variable, got %q", p.cur.text)
		}
	}
	if p.cur.kind == tokIdent && strings.EqualFold(p.cur.text, "ORDER") {
		p.advance()
		if err := p.expectIdent("BY"); err != nil {
			return nil, err
		}
		for p.err == nil && p.cur.kind == tokVar {
			key := OrderKey{Var: p.cur.text}
			p.advance()
			if p.cur.kind == tokIdent && strings.EqualFold(p.cur.text, "DESC") {
				key.Desc = true
				p.advance()
			} else if p.cur.kind == tokIdent && strings.EqualFold(p.cur.text, "ASC") {
				p.advance()
			}
			q.OrderBy = append(q.OrderBy, key)
			if p.cur.kind == tokPunct && p.cur.text == "," {
				p.advance()
			}
		}
		if p.err != nil {
			return nil, p.err
		}
		if len(q.OrderBy) == 0 {
			return nil, fmt.Errorf("query: ORDER BY needs at least one key, got %q", p.cur.text)
		}
	}
	if p.cur.kind == tokIdent && strings.EqualFold(p.cur.text, "LIMIT") {
		p.advance()
		if p.cur.kind != tokNumber {
			return nil, fmt.Errorf("query: LIMIT needs a number, got %q", p.cur.text)
		}
		n, err := strconv.Atoi(p.cur.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("query: bad LIMIT %q", p.cur.text)
		}
		q.Limit = n
		p.advance()
	}
	if p.cur.kind != tokEOF {
		return nil, fmt.Errorf("query: trailing content %q at offset %d", p.cur.text, p.cur.pos)
	}
	if len(q.Patterns) == 0 {
		return nil, fmt.Errorf("query: empty WHERE clause")
	}
	if err := q.validate(); err != nil {
		return nil, err
	}
	return q, nil
}

// aggFuncName reports whether tok is an aggregate function keyword.
func aggFuncName(tok token) (AggFunc, bool) {
	if tok.kind != tokIdent {
		return "", false
	}
	for _, fn := range []AggFunc{AggCount, AggSum, AggMin, AggMax, AggAvg} {
		if strings.EqualFold(tok.text, string(fn)) {
			return fn, true
		}
	}
	return "", false
}

// parseAggArg parses the argument of an aggregate whose function keyword
// was just consumed: "(?var)" — optional for COUNT, required otherwise.
func (p *parser) parseAggArg(fn AggFunc) (Aggregate, error) {
	if p.err != nil {
		return Aggregate{}, p.err
	}
	if p.cur.kind != tokPunct || p.cur.text != "(" {
		if fn == AggCount {
			return Aggregate{Func: fn}, nil // legacy bare COUNT
		}
		return Aggregate{}, fmt.Errorf("query: %s needs an argument like %s(?var), got %q at offset %d", fn, fn, p.cur.text, p.cur.pos)
	}
	p.advance()
	if p.err != nil {
		return Aggregate{}, p.err
	}
	if p.cur.kind != tokVar {
		return Aggregate{}, fmt.Errorf("query: %s argument must be a variable, got %q at offset %d", fn, p.cur.text, p.cur.pos)
	}
	v := p.cur.text
	p.advance()
	if err := p.expectPunct(")"); err != nil {
		return Aggregate{}, err
	}
	return Aggregate{Func: fn, Var: v}, nil
}

// validate checks projection, filter, grouping and ordering variables are
// consistent with the patterns and with each other.
func (q *Query) validate() error {
	vars := q.patternVars()
	inPattern := func(v string) bool { return slices.Contains(vars, v) }
	for _, v := range q.Vars {
		if !inPattern(v) {
			return fmt.Errorf("query: projected variable ?%s not used in WHERE", v)
		}
	}
	for _, f := range q.Filters {
		for _, v := range f.Vars() {
			if !inPattern(v) {
				return fmt.Errorf("query: filter variable ?%s not used in WHERE", v)
			}
		}
	}
	for _, a := range q.Aggs {
		if a.Var != "" && !inPattern(a.Var) {
			return fmt.Errorf("query: aggregate variable ?%s not used in WHERE", a.Var)
		}
	}
	for i, v := range q.GroupBy {
		if !inPattern(v) {
			return fmt.Errorf("query: GROUP BY variable ?%s not used in WHERE", v)
		}
		if slices.Contains(q.GroupBy[:i], v) {
			return fmt.Errorf("query: duplicate GROUP BY variable ?%s", v)
		}
	}
	if len(q.GroupBy) > 0 {
		// With grouping, plain projected variables become group columns and
		// must be functionally determined by the group key.
		for _, v := range q.Vars {
			if !slices.Contains(q.GroupBy, v) {
				return fmt.Errorf("query: projected variable ?%s not in GROUP BY", v)
			}
		}
	}
	out := q.OutputVars()
	for i, v := range out {
		if (len(q.Aggs) > 0 || len(q.GroupBy) > 0) && slices.Contains(out[:i], v) {
			return fmt.Errorf("query: duplicate output column %q", v)
		}
	}
	for _, k := range q.OrderBy {
		if !slices.Contains(out, k.Var) {
			return fmt.Errorf("query: ORDER BY key ?%s is not an output column", k.Var)
		}
	}
	return nil
}

func (p *parser) parseTriple() (tp TriplePattern, err error) {
	for _, pt := range []*PatternTerm{&tp.S, &tp.P, &tp.O} {
		if *pt, err = p.parseTerm(); err != nil {
			return TriplePattern{}, err
		}
	}
	return tp, p.expectPunct(".")
}

func (p *parser) parseTerm() (PatternTerm, error) {
	if p.err != nil {
		return PatternTerm{}, p.err
	}
	switch p.cur.kind {
	case tokVar:
		v := Var(p.cur.text)
		p.advance()
		return v, p.err
	case tokIRI:
		t := Const(rdf.NewIRI(p.cur.text))
		p.advance()
		return t, p.err
	case tokString:
		t := Const(rdf.NewLiteral(unescape(p.cur.text)))
		p.advance()
		return t, p.err
	case tokNumber:
		lit, err := numberTerm(p.cur.text)
		if err != nil {
			return PatternTerm{}, err
		}
		p.advance()
		return Const(lit), p.err
	case tokIdent:
		t, err := expandPrefixed(p.cur.text)
		if err != nil {
			return PatternTerm{}, err
		}
		p.advance()
		return Const(t), p.err
	default:
		return PatternTerm{}, fmt.Errorf("query: unexpected token %q in pattern at offset %d", p.cur.text, p.cur.pos)
	}
}

// numberTerm builds an xsd:long or xsd:double literal from a number token.
func numberTerm(text string) (rdf.Term, error) {
	if !strings.ContainsAny(text, ".eE") {
		if _, err := strconv.ParseInt(text, 10, 64); err == nil {
			return rdf.NewTyped(text, rdf.XSDLong), nil
		}
	}
	if _, err := strconv.ParseFloat(text, 64); err != nil {
		return rdf.Term{}, fmt.Errorf("query: bad number %q", text)
	}
	return rdf.NewTyped(text, rdf.XSDDouble), nil
}

// expandPrefixed turns a prefixed name into an IRI term.
func expandPrefixed(name string) (rdf.Term, error) {
	i := strings.IndexByte(name, ':')
	if i < 0 {
		return rdf.Term{}, fmt.Errorf("query: bare identifier %q (expected prefixed name or keyword)", name)
	}
	prefix, local := name[:i], name[i+1:]
	ns, ok := builtinPrefixes[prefix]
	if !ok {
		return rdf.Term{}, fmt.Errorf("query: unknown prefix %q", prefix)
	}
	return rdf.NewIRI(ns + local), nil
}

func unescape(s string) string {
	s = strings.ReplaceAll(s, `\"`, `"`)
	s = strings.ReplaceAll(s, `\\`, `\`)
	return s
}

// parseFilter parses either st:builtin(args...) or (?var op value).
func (p *parser) parseFilter() (Filter, error) {
	if p.err != nil {
		return nil, p.err
	}
	if p.cur.kind == tokIdent {
		name := p.cur.text
		p.advance()
		return p.parseBuiltin(name)
	}
	if p.cur.kind == tokPunct && p.cur.text == "(" {
		p.advance()
		if p.cur.kind != tokVar {
			return nil, fmt.Errorf("query: FILTER comparison needs a variable, got %q", p.cur.text)
		}
		v := p.cur.text
		p.advance()
		if p.cur.kind != tokPunct {
			return nil, fmt.Errorf("query: expected comparison operator, got %q", p.cur.text)
		}
		op := CmpOp(p.cur.text)
		switch op {
		case OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE:
		default:
			return nil, fmt.Errorf("query: unsupported operator %q", p.cur.text)
		}
		p.advance()
		var val rdf.Term
		switch p.cur.kind {
		case tokNumber:
			t, err := numberTerm(p.cur.text)
			if err != nil {
				return nil, err
			}
			val = t
		case tokString:
			val = rdf.NewLiteral(unescape(p.cur.text))
		default:
			return nil, fmt.Errorf("query: expected literal after operator, got %q", p.cur.text)
		}
		p.advance()
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return CmpFilter{Var: v, Op: op, Value: val}, nil
	}
	return nil, fmt.Errorf("query: malformed FILTER at offset %d", p.cur.pos)
}

// parseBuiltin parses st:within / st:during / st:dwithin calls.
func (p *parser) parseBuiltin(name string) (Filter, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var vars []string
	var nums []float64
	for {
		if p.err != nil {
			return nil, p.err
		}
		switch p.cur.kind {
		case tokVar:
			vars = append(vars, p.cur.text)
		case tokNumber:
			f, err := strconv.ParseFloat(p.cur.text, 64)
			if err != nil {
				return nil, fmt.Errorf("query: bad number %q in %s", p.cur.text, name)
			}
			nums = append(nums, f)
		default:
			return nil, fmt.Errorf("query: unexpected %q in %s arguments", p.cur.text, name)
		}
		p.advance()
		if p.cur.kind == tokPunct && p.cur.text == "," {
			p.advance()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	switch strings.ToLower(name) {
	case "st:within":
		if len(vars) != 2 || len(nums) != 4 {
			return nil, fmt.Errorf("query: st:within needs (?lon, ?lat, minLon, minLat, maxLon, maxLat)")
		}
		return WithinFilter{LonVar: vars[0], LatVar: vars[1], Box: geo.NewBBox(nums[0], nums[1], nums[2], nums[3])}, nil
	case "st:during":
		if len(vars) != 1 || len(nums) != 2 {
			return nil, fmt.Errorf("query: st:during needs (?t, fromMillis, toMillis)")
		}
		return DuringFilter{TSVar: vars[0], From: int64(nums[0]), To: int64(nums[1])}, nil
	case "st:dwithin":
		if len(vars) != 2 || len(nums) != 3 {
			return nil, fmt.Errorf("query: st:dwithin needs (?lon, ?lat, centerLon, centerLat, metres)")
		}
		return DWithinFilter{LonVar: vars[0], LatVar: vars[1], Center: geo.Pt(nums[0], nums[1]), DistM: nums[2]}, nil
	default:
		return nil, fmt.Errorf("query: unknown filter builtin %q", name)
	}
}
