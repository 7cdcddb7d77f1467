package query

import (
	"reflect"
	"strings"
	"testing"

	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/rdf"
)

// execStrings runs a query and returns vars plus stringified rows, the form
// the HTTP layer serialises and the cluster coordinator merges.
func execStrings(t *testing.T, e *Engine, src string) ([]string, [][]string) {
	t.Helper()
	res, err := e.Execute(src)
	if err != nil {
		t.Fatalf("Execute(%q): %v", src, err)
	}
	rows := make([][]string, len(res.Rows))
	for i, r := range res.Rows {
		rows[i] = make([]string, len(r))
		for j, c := range r {
			rows[i][j] = c.String()
		}
	}
	return res.Vars, rows
}

func objIRI(id string) string { return onto.EntityIRI(id).String() }

func TestGroupByCountPerVessel(t *testing.T) {
	e := NewEngine(hashStore(t))
	vars, rows := execStrings(t, e,
		`SELECT ?v COUNT(?n) WHERE { ?n dat:ofMovingObject ?v . } GROUP BY ?v`)
	wantVars := []string{"v", "count_n"}
	// V1 and V2 have five position nodes each, V3 one; groups come out in
	// the canonical (sorted) order of the grouped rows.
	wantRows := [][]string{
		{objIRI("V1"), rdf.NewLong(5).String()},
		{objIRI("V2"), rdf.NewLong(5).String()},
		{objIRI("V3"), rdf.NewLong(1).String()},
	}
	if !reflect.DeepEqual(vars, wantVars) || !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("got %v %v, want %v %v", vars, rows, wantVars, wantRows)
	}
}

// TestGroupBySetSemantics pins the set-semantics sharp edge documented in
// OPERATIONS.md: aggregates fold over the DISTINCT rows of their input
// projection. Each fixture vessel reports one constant speed, so the five
// (vessel, speed) observations of V1 collapse to a single distinct row and
// SUM sees the speed once — to weight by observation, project the node too.
func TestGroupBySetSemantics(t *testing.T) {
	e := NewEngine(hashStore(t))
	_, rows := execStrings(t, e,
		`SELECT ?v SUM(?s) WHERE { ?n dat:ofMovingObject ?v . ?n dat:speed ?s . } GROUP BY ?v`)
	want := [][]string{
		{objIRI("V1"), rdf.NewDouble(7).String()},
		{objIRI("V2"), rdf.NewDouble(2).String()},
		{objIRI("V3"), rdf.NewDouble(12).String()},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("distinct-row sums = %v, want %v", rows, want)
	}
}

func TestGlobalAggregates(t *testing.T) {
	e := NewEngine(hashStore(t))
	vars, rows := execStrings(t, e,
		`SELECT COUNT(?n) MIN(?s) MAX(?s) AVG(?s) WHERE { ?n dat:speed ?s . }`)
	wantVars := []string{"count_n", "min_s", "max_s", "avg_s"}
	// 11 distinct (node, speed) rows; MIN/MAX keep the original stored term,
	// AVG folds every distinct row.
	wantRows := [][]string{{
		rdf.NewLong(11).String(),
		rdf.NewDouble(2).String(),
		rdf.NewDouble(12).String(),
		rdf.NewDouble((5*7 + 5*2 + 12) / 11.0).String(),
	}}
	if !reflect.DeepEqual(vars, wantVars) || !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("got %v %v, want %v %v", vars, rows, wantVars, wantRows)
	}
}

// TestMinMaxLexicographic: MIN/MAX over non-numeric literals compare by the
// term serialisation, so vessel names order alphabetically.
func TestMinMaxLexicographic(t *testing.T) {
	e := NewEngine(hashStore(t))
	_, rows := execStrings(t, e,
		`SELECT MIN(?name) MAX(?name) WHERE { ?v dat:name ?name . }`)
	want := [][]string{{rdf.NewLiteral("AEE101").String(), rdf.NewLiteral("RED STAR").String()}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("min/max name = %v, want %v", rows, want)
	}
}

func TestOrderByAggregateWithTies(t *testing.T) {
	e := NewEngine(hashStore(t))
	_, rows := execStrings(t, e,
		`SELECT ?v COUNT(?n) WHERE { ?n dat:ofMovingObject ?v . } GROUP BY ?v ORDER BY ?count_n DESC, ?v`)
	// Counts 5, 5, 1: DESC puts the tie first, the secondary ASC key breaks
	// it V1-before-V2.
	want := [][]string{
		{objIRI("V1"), rdf.NewLong(5).String()},
		{objIRI("V2"), rdf.NewLong(5).String()},
		{objIRI("V3"), rdf.NewLong(1).String()},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("ordered groups = %v, want %v", rows, want)
	}
}

func TestOrderByNumericDescLimit(t *testing.T) {
	e := NewEngine(hashStore(t))
	_, rows := execStrings(t, e,
		`SELECT ?n ?s WHERE { ?n dat:speed ?s . } ORDER BY ?s DESC, ?n LIMIT 3`)
	if len(rows) != 3 {
		t.Fatalf("limit: got %d rows", len(rows))
	}
	// Numeric, not lexicographic: 12 sorts above 7 even though "12" < "7"
	// as strings.
	gotSpeeds := []string{rows[0][1], rows[1][1], rows[2][1]}
	wantSpeeds := []string{
		rdf.NewDouble(12).String(), rdf.NewDouble(7).String(), rdf.NewDouble(7).String(),
	}
	if !reflect.DeepEqual(gotSpeeds, wantSpeeds) {
		t.Fatalf("speeds = %v, want %v", gotSpeeds, wantSpeeds)
	}
	if !(rows[1][0] < rows[2][0]) {
		t.Fatalf("tie not broken by secondary ASC key: %v then %v", rows[1][0], rows[2][0])
	}
}

// TestAggregateIndependentOfLimit: LIMIT is the last operator, so it
// truncates grouped output rather than the aggregate's input.
func TestAggregateIndependentOfLimit(t *testing.T) {
	e := NewEngine(hashStore(t))
	_, rows := execStrings(t, e,
		`SELECT ?v COUNT(?n) WHERE { ?n dat:ofMovingObject ?v . } GROUP BY ?v ORDER BY ?count_n DESC, ?v LIMIT 1`)
	want := [][]string{{objIRI("V1"), rdf.NewLong(5).String()}}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("got %v, want %v", rows, want)
	}
}

func TestAggregateEmptyMatch(t *testing.T) {
	e := NewEngine(hashStore(t))
	// No node is that fast: COUNT still answers with a zero row, SUM/AVG
	// with 0, MIN/MAX with the empty literal.
	vars, rows := execStrings(t, e,
		`SELECT COUNT(?n) SUM(?s) MIN(?s) WHERE { ?n dat:speed ?s . FILTER (?s > 100) }`)
	wantVars := []string{"count_n", "sum_s", "min_s"}
	wantRows := [][]string{{
		rdf.NewLong(0).String(), rdf.NewDouble(0).String(), rdf.NewLiteral("").String(),
	}}
	if !reflect.DeepEqual(vars, wantVars) || !reflect.DeepEqual(rows, wantRows) {
		t.Fatalf("got %v %v, want %v %v", vars, rows, wantVars, wantRows)
	}
	// Grouped form of the same empty match: no groups, no rows.
	_, rows = execStrings(t, e,
		`SELECT ?n COUNT(?s) WHERE { ?n dat:speed ?s . FILTER (?s > 100) } GROUP BY ?n`)
	if len(rows) != 0 {
		t.Fatalf("empty grouped match produced rows: %v", rows)
	}
}

// TestExplainStages pins the operator chain -explain and the slow-query log
// render: scan always, then group/sort/limit exactly when the query asks.
func TestExplainStages(t *testing.T) {
	e := NewEngine(hashStore(t))
	cases := []struct {
		src  string
		want []string
	}{
		{`SELECT ?v WHERE { ?v rdf:type dat:Vessel . }`, []string{"scan"}},
		{`SELECT ?v WHERE { ?v rdf:type dat:Vessel . } LIMIT 2`, []string{"scan", "limit"}},
		// Grouping without ORDER BY still sorts (canonical output order, the
		// bit-identity anchor for distributed finalize).
		{`SELECT ?v COUNT(?n) WHERE { ?n dat:ofMovingObject ?v . } GROUP BY ?v`,
			[]string{"scan", "group", "sort"}},
		{`SELECT ?v COUNT(?n) WHERE { ?n dat:ofMovingObject ?v . } GROUP BY ?v ORDER BY ?count_n DESC LIMIT 1`,
			[]string{"scan", "group", "sort", "limit"}},
	}
	for _, tc := range cases {
		stages := e.Explain(MustParse(tc.src))
		var ops []string
		for _, s := range stages {
			ops = append(ops, s.Op)
			if s.Rows != -1 {
				t.Errorf("Explain(%q) stage %s executed: rows=%d", tc.src, s.Op, s.Rows)
			}
		}
		if !reflect.DeepEqual(ops, tc.want) {
			t.Errorf("Explain(%q) ops = %v, want %v", tc.src, ops, tc.want)
		}
	}
}

// TestExecutedPlanFacts: after a run, every stage reports its real output
// cardinality.
func TestExecutedPlanFacts(t *testing.T) {
	e := NewEngine(hashStore(t))
	res, err := e.Execute(
		`SELECT ?v COUNT(?n) WHERE { ?n dat:ofMovingObject ?v . } GROUP BY ?v ORDER BY ?count_n DESC LIMIT 2`)
	if err != nil {
		t.Fatal(err)
	}
	wantRows := []int{11, 3, 3, 2} // scan: 11 (node,vessel) rows; 3 groups; limit 2
	if len(res.Plan.Stages) != len(wantRows) {
		t.Fatalf("stages = %+v", res.Plan.Stages)
	}
	for i, s := range res.Plan.Stages {
		if s.Rows != wantRows[i] {
			t.Errorf("stage %s rows = %d, want %d", s.Op, s.Rows, wantRows[i])
		}
	}
	if res.Plan.CacheHit {
		t.Error("first execution reported a cache hit")
	}
	if !strings.Contains(res.Plan.Stages[0].Detail, "patterns=1") || !strings.HasSuffix(res.Plan.Stages[0].Detail, " joins=merge:0,probe:0") {
		t.Errorf("scan detail = %q", res.Plan.Stages[0].Detail)
	}
	// The join steps, summed over shards: a dense join merges in every shard
	// holding nodes; one from the single node faster than 10 m/s probes once.
	for _, tc := range []struct {
		src          string
		merge, probe bool
	}{
		{`SELECT ?n ?s WHERE { ?n dat:ofMovingObject ?v . ?n dat:speed ?s . }`, true, false},
		{`SELECT ?n ?v WHERE { ?n dat:speed ?s . ?n dat:ofMovingObject ?v . FILTER (?s > 10) }`, false, true},
	} {
		res, err := e.Execute(tc.src)
		if err != nil {
			t.Fatal(err)
		}
		j := joinsRun(t, res)
		if (j.merge > 0) != tc.merge || (j.probe > 0) != tc.probe || !tc.merge && j.probe != 1 {
			t.Errorf("%s: scan detail %q", tc.src, res.Plan.Stages[0].Detail)
		}
		if explained := e.Explain(MustParse(tc.src))[0].Detail; strings.Contains(explained, "joins=") {
			t.Errorf("-explain executes nothing, yet names joins: %q", explained)
		}
	}
}

// TestAggregateRoundTrip: Query.String() re-parses to the same query for the
// new clauses, the property the plan cache and the partial-query wire form
// (StripFinal → String → Parse on the peer) depend on.
func TestAggregateRoundTrip(t *testing.T) {
	srcs := []string{
		`SELECT ?v COUNT(?n) WHERE { ?n dat:ofMovingObject ?v . } GROUP BY ?v`,
		`SELECT ?v SUM(?s) AVG(?s) WHERE { ?n dat:ofMovingObject ?v . ?n dat:speed ?s . } GROUP BY ?v ORDER BY ?sum_s DESC, ?v LIMIT 3`,
		`SELECT COUNT WHERE { ?n dat:speed ?s . } LIMIT 2`,
		`SELECT MIN(?s) MAX(?s) WHERE { ?n dat:speed ?s . }`,
	}
	for _, src := range srcs {
		q := MustParse(src)
		again, err := Parse(q.String())
		if err != nil {
			t.Errorf("reparse of %q (%q): %v", src, q.String(), err)
			continue
		}
		if got, want := again.String(), q.String(); got != want {
			t.Errorf("round trip of %q: %q != %q", src, got, want)
		}
	}
}

// TestStripFinalLeavesOriginal: StripFinal must copy — the coordinator
// strips a cached *Query, so mutating it would poison the cache.
func TestStripFinalLeavesOriginal(t *testing.T) {
	q := MustParse(`SELECT ?v SUM(?s) WHERE { ?n dat:ofMovingObject ?v . ?n dat:speed ?s . } GROUP BY ?v ORDER BY ?sum_s DESC LIMIT 1`)
	stripped := q.StripFinal()
	if len(q.Aggs) != 1 || len(q.GroupBy) != 1 || len(q.OrderBy) != 1 || q.Limit != 1 {
		t.Fatalf("original mutated: %+v", q)
	}
	if len(stripped.Aggs) != 0 || len(stripped.GroupBy) != 0 || len(stripped.OrderBy) != 0 || stripped.Limit != 0 {
		t.Fatalf("stripped query kept final clauses: %+v", stripped)
	}
	if got, want := stripped.Vars, q.InputVars(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stripped vars = %v, want input vars %v", got, want)
	}
	// The stripped form must itself be valid and executable on a peer.
	if _, err := Parse(stripped.String()); err != nil {
		t.Fatalf("stripped form does not reparse: %v", err)
	}
}
