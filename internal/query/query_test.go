package query

import (
	"fmt"
	"strings"
	"testing"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/partition"
	"github.com/datacron-project/datacron/internal/rdf"
	"github.com/datacron-project/datacron/internal/store"
)

var worldBox = geo.NewBBox(22, 34, 30, 42)

// fixtureStore builds a small world: 3 vessels, 1 aircraft, a grid of
// position nodes.
func fixtureStore(t testing.TB, part partition.Partitioner) *store.Sharded {
	s := store.NewSharded(part, worldBox)
	vessels := []model.Entity{
		{ID: "V1", Domain: model.Maritime, Name: "BLUE STAR", Type: "CARGO", LengthM: 120},
		{ID: "V2", Domain: model.Maritime, Name: "RED STAR", Type: "TANKER", LengthM: 200},
		{ID: "V3", Domain: model.Maritime, Name: "GREEN STAR", Type: "CARGO", LengthM: 90},
	}
	for _, e := range vessels {
		s.AddEntity(e)
	}
	s.AddEntity(model.Entity{ID: "A1", Domain: model.Aviation, Name: "AEE101"})
	// V1 inside the Saronic box at ts 1000..5000, V2 north, V3 sparse.
	for i := 0; i < 5; i++ {
		s.AddPositionRecord(model.Position{
			EntityID: "V1", TS: int64(1000 + i*1000), Pt: geo.Pt(23.5+float64(i)*0.01, 37.8),
			SpeedMS: 7, CourseDeg: 90, Domain: model.Maritime,
		})
		s.AddPositionRecord(model.Position{
			EntityID: "V2", TS: int64(1000 + i*1000), Pt: geo.Pt(23.0, 40.5),
			SpeedMS: 2, CourseDeg: 180, Domain: model.Maritime,
		})
	}
	s.AddPositionRecord(model.Position{
		EntityID: "V3", TS: 9000, Pt: geo.Pt(25.0, 36.0), SpeedMS: 12, CourseDeg: 45, Domain: model.Maritime,
	})
	return s
}

func hashStore(t testing.TB) *store.Sharded { return fixtureStore(t, partition.NewHash(4)) }

func TestParseBasics(t *testing.T) {
	q, err := Parse(`SELECT ?v ?name WHERE {
		?v rdf:type dat:Vessel .
		?v dat:name ?name .
	} LIMIT 10`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Vars) != 2 || q.Vars[0] != "v" {
		t.Errorf("vars = %v", q.Vars)
	}
	if len(q.Patterns) != 2 || q.Limit != 10 {
		t.Errorf("patterns/limit: %+v", q)
	}
	if q.Patterns[0].P.Term.Value != rdf.RDFType {
		t.Errorf("prefix expansion failed: %v", q.Patterns[0].P)
	}
}

func TestParseFilters(t *testing.T) {
	q, err := Parse(`SELECT ?n WHERE {
		?n dat:longitude ?lon . ?n dat:latitude ?lat . ?n dat:timestamp ?t . ?n dat:speed ?s .
		FILTER st:within(?lon, ?lat, 23.0, 37.0, 24.0, 38.0)
		FILTER st:during(?t, 0, 10000)
		FILTER st:dwithin(?lon, ?lat, 23.5, 37.5, 5000)
		FILTER (?s >= 5.0)
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(q.Filters) != 4 {
		t.Fatalf("filters = %d", len(q.Filters))
	}
	box, ok := q.SpatialBounds()
	if !ok {
		t.Fatal("no spatial bounds")
	}
	if box.MinLon < 23.0-0.2 || box.MaxLon > 24.0 {
		t.Errorf("bounds = %v", box)
	}
	from, to, ok := q.TimeBounds()
	if !ok || from != 0 || to != 10000 {
		t.Errorf("time bounds = %d..%d ok=%v", from, to, ok)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"no where", "SELECT ?x"},
		{"empty where", "SELECT ?x WHERE { }"},
		{"unterminated", "SELECT ?x WHERE { ?x rdf:type"},
		{"missing dot", "SELECT ?x WHERE { ?x rdf:type dat:Vessel }"},
		{"unknown prefix", "SELECT ?x WHERE { ?x foo:bar ?y . }"},
		{"bare ident", "SELECT ?x WHERE { ?x type ?y . }"},
		{"projected unused", "SELECT ?z WHERE { ?x rdf:type ?y . }"},
		{"filter unused var", "SELECT ?x WHERE { ?x rdf:type ?y . FILTER (?q > 5) }"},
		{"bad builtin", "SELECT ?x WHERE { ?x rdf:type ?y . FILTER st:nope(?x) }"},
		{"within arity", "SELECT ?x WHERE { ?x dat:longitude ?l . FILTER st:within(?l, 1.0) }"},
		{"during arity", "SELECT ?x WHERE { ?x dat:timestamp ?t . FILTER st:during(?t) }"},
		{"dwithin arity", "SELECT ?x WHERE { ?x dat:longitude ?l . FILTER st:dwithin(?l, 5) }"},
		{"bad op", "SELECT ?x WHERE { ?x dat:speed ?s . FILTER (?s ~ 5) }"},
		{"trailing", "SELECT ?x WHERE { ?x rdf:type ?y . } garbage"},
		{"bad limit", "SELECT ?x WHERE { ?x rdf:type ?y . } LIMIT x"},
		{"unterminated string", `SELECT ?x WHERE { ?x dat:name "abc . }`},
		{"unterminated iri", "SELECT ?x WHERE { ?x <http://a b . }"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(tc.src); err == nil {
				t.Errorf("expected parse error for %q", tc.src)
			}
		})
	}
}

func TestExecuteTypeQuery(t *testing.T) {
	s := hashStore(t)
	e := NewEngine(s)
	res, err := e.Execute(`SELECT ?v WHERE { ?v rdf:type dat:Vessel . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3 (dedup across replicated shards)", len(res.Rows))
	}
}

func TestExecuteJoin(t *testing.T) {
	s := hashStore(t)
	e := NewEngine(s)
	res, err := e.Execute(`SELECT ?name WHERE {
		?v rdf:type dat:Vessel .
		?v dat:vehicleType "CARGO" .
		?v dat:name ?name .
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 {
		t.Fatalf("rows = %d, want 2", len(res.Rows))
	}
	got := []string{res.Rows[0][0].Value, res.Rows[1][0].Value}
	if got[0] != "BLUE STAR" || got[1] != "GREEN STAR" {
		t.Errorf("names = %v", got)
	}
}

func TestExecuteSpatialQuery(t *testing.T) {
	for _, part := range []partition.Partitioner{
		partition.NewHash(4),
		partition.NewGrid(geo.NewGrid(worldBox, 16, 16), 4),
		partition.NewHilbert(worldBox, 6, 4),
	} {
		part := part
		t.Run(part.Name(), func(t *testing.T) {
			s := fixtureStore(t, part)
			e := NewEngine(s)
			res, err := e.Execute(`SELECT ?n ?who WHERE {
				?n rdf:type dat:SemanticNode .
				?n dat:ofMovingObject ?who .
				?n dat:longitude ?lon . ?n dat:latitude ?lat .
				FILTER st:within(?lon, ?lat, 23.3, 37.5, 24.0, 38.0)
			}`)
			if err != nil {
				t.Fatal(err)
			}
			// Only V1's 5 nodes are inside the box.
			if len(res.Rows) != 5 {
				t.Fatalf("rows = %d, want 5", len(res.Rows))
			}
			for _, row := range res.Rows {
				if row[1] != onto.EntityIRI("V1") {
					t.Errorf("unexpected entity %v", row[1])
				}
			}
		})
	}
}

func TestSpatialPruningVisitsFewerShards(t *testing.T) {
	s := fixtureStore(t, partition.NewHilbert(worldBox, 6, 8))
	e := NewEngine(s)
	res, err := e.Execute(`SELECT ?n WHERE {
		?n dat:longitude ?lon . ?n dat:latitude ?lat .
		FILTER st:within(?lon, ?lat, 23.4, 37.7, 23.7, 37.9)
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if res.ShardsVisited >= 8 {
		t.Errorf("no pruning: visited %d shards", res.ShardsVisited)
	}
	if len(res.Rows) != 5 {
		t.Errorf("rows = %d, want 5", len(res.Rows))
	}
}

func TestExecuteTemporalFilter(t *testing.T) {
	s := hashStore(t)
	e := NewEngine(s)
	res, err := e.Execute(`SELECT ?n WHERE {
		?n rdf:type dat:SemanticNode .
		?n dat:timestamp ?t .
		FILTER st:during(?t, 2000, 3000)
	}`)
	if err != nil {
		t.Fatal(err)
	}
	// V1 and V2 each have nodes at ts 2000 and 3000.
	if len(res.Rows) != 4 {
		t.Errorf("rows = %d, want 4", len(res.Rows))
	}
}

func TestExecuteValueFilter(t *testing.T) {
	s := hashStore(t)
	e := NewEngine(s)
	res, err := e.Execute(`SELECT ?n WHERE {
		?n dat:speed ?s .
		FILTER (?s > 10)
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d, want 1 (only V3 is fast)", len(res.Rows))
	}
}

func TestExecuteDWithin(t *testing.T) {
	s := hashStore(t)
	e := NewEngine(s)
	res, err := e.Execute(`SELECT ?n WHERE {
		?n dat:longitude ?lon . ?n dat:latitude ?lat .
		FILTER st:dwithin(?lon, ?lat, 23.5, 37.8, 3000)
	}`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 || len(res.Rows) > 5 {
		t.Errorf("rows = %d, want 1..5", len(res.Rows))
	}
}

func TestExecuteLimit(t *testing.T) {
	s := hashStore(t)
	e := NewEngine(s)
	res, err := e.Execute(`SELECT ?n WHERE { ?n rdf:type dat:SemanticNode . } LIMIT 3`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 3 {
		t.Errorf("rows = %d, want 3", len(res.Rows))
	}
}

func TestExecuteSelectStar(t *testing.T) {
	s := hashStore(t)
	e := NewEngine(s)
	res, err := e.Execute(`SELECT WHERE { ?v rdf:type dat:Aircraft . ?v dat:name ?name . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Vars) != 2 {
		t.Errorf("vars = %v", res.Vars)
	}
	if len(res.Rows) != 1 || res.Rows[0][1].Value != "AEE101" {
		t.Errorf("rows = %v", res.Rows)
	}
}

func TestDeterministicResults(t *testing.T) {
	s := hashStore(t)
	e := NewEngine(s)
	q := `SELECT ?n ?t WHERE { ?n rdf:type dat:SemanticNode . ?n dat:timestamp ?t . }`
	a, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatal("row counts differ across runs")
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatal("row order not deterministic")
			}
		}
	}
}

func TestParallelismMatchesSerial(t *testing.T) {
	s := fixtureStore(t, partition.NewGrid(geo.NewGrid(worldBox, 16, 16), 8))
	q := `SELECT ?n ?who WHERE {
		?n rdf:type dat:SemanticNode .
		?n dat:ofMovingObject ?who .
	}`
	serial := NewEngine(s)
	serial.Parallelism = 1
	parallel := NewEngine(s)
	parallel.Parallelism = 8
	a, err := serial.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := parallel.Execute(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Rows) != len(b.Rows) {
		t.Fatalf("serial %d rows, parallel %d", len(a.Rows), len(b.Rows))
	}
	for i := range a.Rows {
		if a.Rows[i][0] != b.Rows[i][0] {
			t.Fatal("rows differ")
		}
	}
}

func TestRepeatedVariableInPattern(t *testing.T) {
	// ?x dat:knows ?x must only match reflexive triples.
	s := store.NewSharded(partition.NewHash(2), worldBox)
	knows := rdf.NewIRI(onto.NS + "knows")
	s.AddGlobal([]onto.TripleT{
		{S: rdf.NewIRI("e:a"), P: knows, O: rdf.NewIRI("e:a")},
		{S: rdf.NewIRI("e:a"), P: knows, O: rdf.NewIRI("e:b")},
	})
	e := NewEngine(s)
	res, err := e.Execute(`SELECT ?x WHERE { ?x dat:knows ?x . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 1 || res.Rows[0][0].Value != "e:a" {
		t.Errorf("reflexive match rows = %v", res.Rows)
	}
}

func TestQueryStringRoundTrip(t *testing.T) {
	q := MustParse(`SELECT ?v WHERE { ?v rdf:type dat:Vessel . FILTER (?v != "x") } LIMIT 5`)
	s := q.String()
	for _, want := range []string{"SELECT ?v", "WHERE {", "LIMIT 5"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestFormatTable(t *testing.T) {
	s := hashStore(t)
	e := NewEngine(s)
	res, err := e.Execute(`SELECT ?name WHERE { ?v dat:name ?name . ?v rdf:type dat:Vessel . }`)
	if err != nil {
		t.Fatal(err)
	}
	out := FormatTable(res)
	if !strings.Contains(out, "?name") || !strings.Contains(out, "BLUE STAR") {
		t.Errorf("table = %q", out)
	}
}

func TestPlannerOrdersBoundFirst(t *testing.T) {
	q := MustParse(`SELECT ?n WHERE {
		?n dat:ofMovingObject ?v .
		?v rdf:type dat:Vessel .
	}`)
	plan, _ := compile(q, nil, rdf.NewDictionary()).order(nil)
	// The type pattern has 2 constants vs 1: must come first.
	if first := q.Patterns[plan[0]]; first.P.Term.Value != rdf.RDFType {
		t.Errorf("plan order: %v first", first)
	}
}

func TestPlannerPrefersLowCardinalityPredicate(t *testing.T) {
	// Two patterns with identical structure (1 constant each): the one
	// whose predicate is rarer in this shard must be evaluated first.
	s := store.NewSharded(partition.NewHash(1), worldBox)
	rare := rdf.NewIRI(onto.NS + "rare")
	common := rdf.NewIRI(onto.NS + "common")
	var triples []onto.TripleT
	triples = append(triples, onto.TripleT{S: rdf.NewIRI("e:a"), P: rare, O: rdf.NewLiteral("x")})
	for i := 0; i < 50; i++ {
		triples = append(triples, onto.TripleT{
			S: rdf.NewIRI(fmt.Sprintf("e:%d", i)), P: common, O: rdf.NewLiteral("y"),
		})
	}
	s.AddGlobal(triples)
	q := MustParse(`SELECT ?a ?b WHERE { ?a dat:common ?b . ?a dat:rare ?b . }`)
	plan, _ := compile(q, nil, s.Dict()).order(s.View(0).Parts())
	if first := q.Patterns[plan[0]]; first.P.Term != rare {
		t.Errorf("plan order: %v first, want the rare predicate", first)
	}
	// Unknown predicates estimate to zero and plan first of all.
	q2 := MustParse(`SELECT ?a ?b WHERE { ?a dat:common ?b . ?a dat:unseen ?b . }`)
	plan2, _ := compile(q2, nil, s.Dict()).order(s.View(0).Parts())
	if first := q2.Patterns[plan2[0]]; first.P.Term.Value != onto.NS+"unseen" {
		t.Errorf("plan order: %v first, want the unseen predicate", first)
	}
}

func TestCmpFilterStringAndNumeric(t *testing.T) {
	num, str := []rdf.Term{rdf.NewDouble(5)}, []rdf.Term{rdf.NewLiteral("beta")}
	tests := []struct {
		f    CmpFilter
		args []rdf.Term
		want bool
	}{
		{CmpFilter{"num", OpGT, rdf.NewDouble(4)}, num, true},
		{CmpFilter{"num", OpLE, rdf.NewDouble(4)}, num, false},
		{CmpFilter{"num", OpNE, rdf.NewDouble(5)}, num, false},
		{CmpFilter{"str", OpGT, rdf.NewLiteral("alpha")}, str, true},
		{CmpFilter{"str", OpEQ, rdf.NewLiteral("beta")}, str, true},
		// A string constant against a number compares the lexical forms:
		// "5" < "alpha".
		{CmpFilter{"num", OpLT, rdf.NewLiteral("alpha")}, num, true},
		{CmpFilter{"num", OpGE, rdf.NewLiteral("alpha")}, num, false},
		{CmpFilter{"num", OpNE, rdf.NewLiteral("alpha")}, num, true},
	}
	// A numeric constant against a binding that is not a number is a type
	// error: every operator rejects the row.
	for _, op := range []CmpOp{OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE} {
		tests = append(tests, struct {
			f    CmpFilter
			args []rdf.Term
			want bool
		}{CmpFilter{"str", op, rdf.NewDouble(5)}, str, false})
	}
	for i, tc := range tests {
		if got := tc.f.Eval(tc.args); got != tc.want {
			t.Errorf("case %d: %v = %v", i, tc.f, got)
		}
	}
}

func BenchmarkQuerySpatialJoin(b *testing.B) {
	s := fixtureStore(b, partition.NewHilbert(worldBox, 6, 4))
	e := NewEngine(s)
	q := MustParse(`SELECT ?n ?who WHERE {
		?n rdf:type dat:SemanticNode .
		?n dat:ofMovingObject ?who .
		?n dat:longitude ?lon . ?n dat:latitude ?lat .
		FILTER st:within(?lon, ?lat, 23.3, 37.5, 24.0, 38.0)
	}`)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := e.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

// TestPlannerScansBoundedPatternFirst pins E13's query shape: the pattern
// the st:during bound is pushed into scores like one with a constant object
// and, its in-range count being the smaller estimate, is scanned first.
// Scanning the type pattern first would read every sealed position.
func TestPlannerScansBoundedPatternFirst(t *testing.T) {
	s := store.NewSharded(partition.NewHash(1), worldBox)
	for i := 0; i < 200; i++ {
		s.AddPositionRecord(model.Position{EntityID: "V1", TS: int64(i * 1000), Pt: geo.Pt(23.5, 37.8), Domain: model.Maritime})
		if i%50 == 49 {
			s.Maintain(store.TierPolicy{}, true)
		}
	}
	q := MustParse(`SELECT ?n ?t WHERE {
		?n rdf:type dat:SemanticNode .
		?n dat:timestamp ?t .
		FILTER st:during(?t, 194000, 199000)
	}`)
	plan, _ := compile(q, q.InputVars(), s.Dict()).order(s.View(0).Parts())
	if first := q.Patterns[plan[0]]; first.P.Term != onto.PredTime {
		t.Errorf("plan order: %v first, want the bounded timestamp pattern", first)
	}
	res, err := NewEngine(s).Run(q)
	if err != nil || len(res.Rows) != 6 {
		t.Errorf("rows %d, err %v; want 6", len(res.Rows), err)
	}
}

// TestSpatialBoundsCoverTheCircle holds the st:dwithin pruning box to the
// circle it bounds: every point within the distance of the centre lies in
// it, at every latitude, for small and large radii, near a pole and across
// the antimeridian.
func TestSpatialBoundsCoverTheCircle(t *testing.T) {
	for _, c := range []geo.Point{geo.Pt(10, 0), geo.Pt(-60, 45), geo.Pt(25, 70), geo.Pt(100, 85), geo.Pt(179.5, 60), geo.Pt(0, -70)} {
		for _, distM := range []float64{5_000, 300_000, 2_000_000} {
			q := &Query{
				Patterns: []TriplePattern{{Var("n"), Const(onto.PredLon), Var("x")}, {Var("n"), Const(onto.PredLat), Var("y")}},
				Filters:  []Filter{DWithinFilter{LonVar: "x", LatVar: "y", Center: c, DistM: distM}},
			}
			box, ok := q.SpatialBounds()
			if !ok {
				t.Fatal("no spatial bounds")
			}
			for brg := 0.0; brg < 360; brg += 0.5 {
				for _, f := range []float64{0.5, 0.999} {
					pt := geo.Destination(c, brg, f*distM)
					if !box.Contains(pt) {
						t.Fatalf("centre %v, %g m: %v at bearing %g lies outside %v", c, distM, pt, brg, box)
					}
				}
			}
		}
	}
}
