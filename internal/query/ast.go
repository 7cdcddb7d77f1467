// Package query implements the spatio-temporal query answering layer of the
// datAcron architecture: a SPARQL-like language ("stSPARQL-lite") with
// spatiotemporal FILTER builtins, evaluated in parallel over the shards of
// the parallel RDF store with partition pruning ("parallel query processing
// techniques for spatio-temporal query languages over interlinked data
// stored in parallel RDF stores", §2).
//
// Language sketch:
//
//	SELECT ?v ?name WHERE {
//	  ?v rdf:type dat:Vessel .
//	  ?v dat:name ?name .
//	  ?n dat:ofMovingObject ?v .
//	  ?n dat:longitude ?lon . ?n dat:latitude ?lat . ?n dat:timestamp ?t .
//	  FILTER st:within(?lon, ?lat, 24.0, 36.0, 26.0, 38.0)
//	  FILTER st:during(?t, 1489104000000, 1489111200000)
//	  FILTER (?speed >= 5.0)
//	} LIMIT 100
//
// Built-in prefixes: rdf:, dat: (the datAcron vocabulary), res: (resources).
package query

import (
	"fmt"
	"math"
	"slices"
	"strings"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/rdf"
)

// builtinPrefixes maps the prefixes the parser expands.
var builtinPrefixes = map[string]string{
	"rdf": "http://www.w3.org/1999/02/22-rdf-syntax-ns#",
	"dat": onto.NS,
	"res": "http://www.datacron-project.eu/resource/",
	"owl": "http://www.w3.org/2002/07/owl#",
	"xsd": "http://www.w3.org/2001/XMLSchema#",
}

// PatternTerm is one slot of a triple pattern: a variable or a constant.
type PatternTerm struct {
	IsVar bool
	Var   string   // without '?'
	Term  rdf.Term // valid when !IsVar
}

// Var returns a variable pattern term.
func Var(name string) PatternTerm { return PatternTerm{IsVar: true, Var: name} }

// Const returns a constant pattern term.
func Const(t rdf.Term) PatternTerm { return PatternTerm{Term: t} }

// String implements fmt.Stringer.
func (p PatternTerm) String() string {
	if p.IsVar {
		return "?" + p.Var
	}
	return p.Term.String()
}

// TriplePattern is one basic graph pattern triple.
type TriplePattern struct{ S, P, O PatternTerm }

// CmpOp is a comparison operator in value filters.
type CmpOp string

// Comparison operators.
const (
	OpLT CmpOp = "<"
	OpLE CmpOp = "<="
	OpGT CmpOp = ">"
	OpGE CmpOp = ">="
	OpEQ CmpOp = "="
	OpNE CmpOp = "!="
)

// Filter is a boolean predicate over variable bindings.
type Filter interface {
	// Vars returns the variables the filter needs bound.
	Vars() []string
	// Eval evaluates the filter on one partial match: args[i] is the term
	// bound to Vars()[i].
	Eval(args []rdf.Term) bool
	fmt.Stringer
}

// CmpFilter compares a variable against a constant: FILTER (?x >= 5).
type CmpFilter struct {
	Var   string
	Op    CmpOp
	Value rdf.Term
}

// Vars implements Filter.
func (f CmpFilter) Vars() []string { return []string{f.Var} }

// String implements fmt.Stringer, rendering a form the parser accepts:
// numeric literals print raw, anything else as a quoted string.
func (f CmpFilter) String() string {
	val := f.Value.String()
	if _, ok := f.Value.Float(); ok {
		val = f.Value.Value
	}
	return fmt.Sprintf("FILTER (?%s %s %s)", f.Var, f.Op, val)
}

// Eval implements Filter. Against a constant that parses as a number the
// comparison is numeric and a binding that does not parse fails it (a type
// error in SPARQL 1.1, which rejects the row); against any other constant
// it compares the lexical forms.
func (f CmpFilter) Eval(args []rdf.Term) bool {
	if b, ok := f.Value.Float(); ok {
		a, ok := args[0].Float()
		return ok && cmpOp(a, b, f.Op)
	}
	return cmpOp(args[0].Value, f.Value.Value, f.Op)
}

func cmpOp[T float64 | string](a, b T, op CmpOp) bool {
	switch op {
	case OpLT:
		return a < b
	case OpLE:
		return a <= b
	case OpGT:
		return a > b
	case OpGE:
		return a >= b
	case OpEQ:
		return a == b
	case OpNE:
		return a != b
	}
	return false
}

// WithinFilter is st:within(?lon, ?lat, minLon, minLat, maxLon, maxLat).
type WithinFilter struct {
	LonVar, LatVar string
	Box            geo.BBox
}

// Vars implements Filter.
func (f WithinFilter) Vars() []string { return []string{f.LonVar, f.LatVar} }

// String implements fmt.Stringer (parser-canonical form).
func (f WithinFilter) String() string {
	return fmt.Sprintf("FILTER st:within(?%s, ?%s, %g, %g, %g, %g)",
		f.LonVar, f.LatVar, f.Box.MinLon, f.Box.MinLat, f.Box.MaxLon, f.Box.MaxLat)
}

// Eval implements Filter.
func (f WithinFilter) Eval(args []rdf.Term) bool {
	lon, ok1 := args[0].Float()
	lat, ok2 := args[1].Float()
	return ok1 && ok2 && f.Box.Contains(geo.Pt(lon, lat))
}

// DuringFilter is st:during(?t, fromMillis, toMillis), inclusive.
type DuringFilter struct {
	TSVar    string
	From, To int64
}

// Vars implements Filter.
func (f DuringFilter) Vars() []string { return []string{f.TSVar} }

// String implements fmt.Stringer.
func (f DuringFilter) String() string {
	return fmt.Sprintf("FILTER st:during(?%s, %d, %d)", f.TSVar, f.From, f.To)
}

// Eval implements Filter.
func (f DuringFilter) Eval(args []rdf.Term) bool {
	v, ok := args[0].Int()
	return ok && v >= f.From && v <= f.To
}

// DWithinFilter is st:dwithin(?lon, ?lat, centerLon, centerLat, metres).
type DWithinFilter struct {
	LonVar, LatVar string
	Center         geo.Point
	DistM          float64
}

// Vars implements Filter.
func (f DWithinFilter) Vars() []string { return []string{f.LonVar, f.LatVar} }

// String implements fmt.Stringer (parser-canonical form).
func (f DWithinFilter) String() string {
	return fmt.Sprintf("FILTER st:dwithin(?%s, ?%s, %g, %g, %g)",
		f.LonVar, f.LatVar, f.Center.Lon, f.Center.Lat, f.DistM)
}

// Eval implements Filter.
func (f DWithinFilter) Eval(args []rdf.Term) bool {
	lon, ok1 := args[0].Float()
	lat, ok2 := args[1].Float()
	return ok1 && ok2 && geo.Haversine(geo.Pt(lon, lat), f.Center) <= f.DistM
}

// AggFunc names an aggregate function.
type AggFunc string

// Aggregate functions.
const (
	AggCount AggFunc = "COUNT"
	AggSum   AggFunc = "SUM"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
	AggAvg   AggFunc = "AVG"
)

// Aggregate is one aggregate in the projection: COUNT, or FUNC(?var).
// Var is empty only for the legacy bare COUNT form, which counts distinct
// result rows.
type Aggregate struct {
	Func AggFunc
	Var  string
}

// OutName is the output column the aggregate produces: "count" for the
// bare COUNT, otherwise e.g. "sum_speed" for SUM(?speed).
func (a Aggregate) OutName() string {
	if a.Var == "" {
		return "count"
	}
	return strings.ToLower(string(a.Func)) + "_" + a.Var
}

// String renders the parser-canonical form.
func (a Aggregate) String() string {
	if a.Var == "" {
		return string(a.Func)
	}
	return fmt.Sprintf("%s(?%s)", a.Func, a.Var)
}

// OrderKey is one ORDER BY key. Var names an output column (a projected
// pattern variable, a GROUP BY variable, or an aggregate's OutName).
type OrderKey struct {
	Var  string
	Desc bool
}

// Query is a parsed query: the logical plan the planner lowers to a
// physical operator tree (see physical.go).
type Query struct {
	Vars     []string    // projected pattern variables; empty = all in pattern order
	Aggs     []Aggregate // projected aggregates
	GroupBy  []string    // grouping variables
	OrderBy  []OrderKey  // result ordering over output columns
	Patterns []TriplePattern
	Filters  []Filter
	Limit    int // 0 = unlimited
}

// patternVars returns every variable in the WHERE clause, in first-mention
// order.
func (q *Query) patternVars() []string { return allVars(q.Patterns) }

// InputVars returns the columns the scan must produce for the final
// operators (group/aggregate/sort/limit) to run: for a plain query the
// projection itself; for an aggregating query the union of plain projected
// variables, GROUP BY variables and aggregate arguments. Aggregates run
// over the DISTINCT rows of exactly these columns — set semantics, like
// the legacy bare COUNT (which counts distinct rows of the projection).
func (q *Query) InputVars() []string {
	if len(q.Aggs) == 0 && len(q.GroupBy) == 0 {
		if len(q.Vars) > 0 {
			return q.Vars
		}
		return q.patternVars()
	}
	var out []string
	add := func(v string) {
		if v != "" && !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	for _, v := range q.Vars {
		add(v)
	}
	for _, v := range q.GroupBy {
		add(v)
	}
	for _, a := range q.Aggs {
		add(a.Var)
	}
	if len(out) == 0 {
		// Bare "SELECT COUNT WHERE {…}": count distinct full rows.
		return q.patternVars()
	}
	return out
}

// OutputVars returns the result columns the query produces, in order:
// grouping columns first (the projected variables when given, else the
// GROUP BY list), then one column per aggregate.
func (q *Query) OutputVars() []string {
	if len(q.Aggs) == 0 && len(q.GroupBy) == 0 {
		return q.InputVars()
	}
	out := slices.Clone(q.groupCols())
	for _, a := range q.Aggs {
		out = append(out, a.OutName())
	}
	return out
}

// groupCols returns the grouping columns a grouped query projects: the
// plain projected variables when given (⊆ GROUP BY), else the GROUP BY list.
func (q *Query) groupCols() []string {
	if len(q.Vars) > 0 && len(q.GroupBy) > 0 {
		return q.Vars
	}
	return q.GroupBy
}

// StripFinal returns a copy of the query with grouping, aggregation,
// ordering and LIMIT removed and the projection widened to InputVars: the
// per-node partial query of a scatter-gather execution. The coordinator
// merges the distinct partial rows and applies Finalize — running the same
// group/sort/limit operators once over the merged set — which is exactly
// what a single node computes (see DESIGN.md §16). The receiver is not
// mutated, so cached plans stay valid.
func (q *Query) StripFinal() *Query {
	return &Query{
		Vars:     q.InputVars(),
		Patterns: q.Patterns,
		Filters:  q.Filters,
	}
}

// String renders a canonical form of the query.
func (q *Query) String() string {
	var b strings.Builder
	b.WriteString("SELECT")
	if len(q.Vars) == 0 && len(q.Aggs) == 0 {
		b.WriteString(" *")
	}
	for _, v := range q.Vars {
		b.WriteString(" ?" + v)
	}
	for _, a := range q.Aggs {
		b.WriteString(" " + a.String())
	}
	b.WriteString(" WHERE {")
	for _, p := range q.Patterns {
		fmt.Fprintf(&b, " %s %s %s .", p.S, p.P, p.O)
	}
	for _, f := range q.Filters {
		b.WriteString(" " + f.String())
	}
	b.WriteString(" }")
	if len(q.GroupBy) > 0 {
		b.WriteString(" GROUP BY")
		for _, v := range q.GroupBy {
			b.WriteString(" ?" + v)
		}
	}
	if len(q.OrderBy) > 0 {
		b.WriteString(" ORDER BY")
		for _, k := range q.OrderBy {
			b.WriteString(" ?" + k.Var)
			if k.Desc {
				b.WriteString(" DESC")
			}
		}
	}
	if q.Limit > 0 {
		fmt.Fprintf(&b, " LIMIT %d", q.Limit)
	}
	return b.String()
}

// runs reports whether filter f ever runs: one naming a variable no pattern
// binds does not (validate refuses such a query, a Query built as a struct
// may hold one), so it bounds nothing.
func (q *Query) runs(f Filter) bool {
	vars := q.patternVars()
	return !slices.ContainsFunc(f.Vars(), func(v string) bool { return !slices.Contains(vars, v) })
}

// SpatialBounds extracts the conjunction of spatial constraints for shard
// pruning: the intersection of all st:within boxes (plus the bounding boxes
// of st:dwithin circles) of the filters that run. ok is false when no spatial
// filter runs.
func (q *Query) SpatialBounds() (geo.BBox, bool) {
	box, found := geo.BBox{MinLon: -180, MinLat: -90, MaxLon: 180, MaxLat: 90}, false
	for _, f := range q.Filters {
		if !q.runs(f) {
			continue
		}
		switch ff := f.(type) {
		case WithinFilter:
			box = box.Intersection(ff.Box)
			found = true
		case DWithinFilter:
			// A degree of latitude spans at least 111 km, and a degree of
			// longitude cos φ as much at latitude φ: at least
			// cos(|lat|+degLat) as much wherever the circle reaches. One
			// reaching a pole or crossing the antimeridian spans every
			// longitude (360° is clamped to the world box).
			c, degLat := ff.Center, ff.DistM/111_000
			degLon := degLat / math.Cos(geo.Radians(math.Abs(c.Lat)+degLat))
			if math.Abs(c.Lat)+degLat >= 90 || math.Abs(c.Lon)+degLon > 180 {
				degLon = 360
			}
			box = box.Intersection(geo.NewBBox(c.Lon-degLon, c.Lat-degLat, c.Lon+degLon, c.Lat+degLat))
			found = true
		}
	}
	return box, found
}

// TimeBounds extracts the conjunction of the temporal constraints of the
// filters that run, for shard pruning. ok is false when no temporal filter
// runs.
func (q *Query) TimeBounds() (from, to int64, ok bool) {
	from, to = -1<<62, 1<<62
	for _, f := range q.Filters {
		if df, isDuring := f.(DuringFilter); isDuring && q.runs(f) {
			from, to, ok = max(from, df.From), min(to, df.To), true
		}
	}
	return from, to, ok
}
