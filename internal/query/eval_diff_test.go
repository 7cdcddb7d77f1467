package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/partition"
	"github.com/datacron-project/datacron/internal/rdf"
	"github.com/datacron-project/datacron/internal/store"
)

// diffWorld is a randomised store for the specification differential, with
// the vocabulary its queries draw constants from.
type diffWorld struct {
	st       *store.Sharded
	subjects []rdf.Term
	preds    []rdf.Term
	objects  []rdf.Term
	pLon     rdf.Term
	pLat     rdf.Term
	pTS      rdf.Term
}

func exIRI(format string, args ...any) rdf.Term {
	return rdf.NewIRI("http://ex/" + fmt.Sprintf(format, args...))
}

// genWorld builds 1–8 shards under a hash or Hilbert partitioner holding
// replicated global triples, 0–3 generations of sealed segments and a live
// head. Objects mix IRIs (subjects, so patterns chain), blank nodes, longs
// and doubles that compare equal but render differently, doubles whose sum
// depends on its order, NaN, numeric looking plain strings, escapes, and
// the twins that render equally under
// distinct ids: "x" / "x"^^xsd:string, and a literal with a language and two
// different datatypes. Some objects and subjects are predicates, so a
// variable repeated across S, P and O has matches.
func genWorld(rng *rand.Rand) *diffWorld {
	shards := 1 + rng.Intn(8)
	var part partition.Partitioner = partition.NewHash(shards)
	if rng.Intn(2) == 0 {
		part = partition.NewHilbert(worldBox, 6, shards)
	}
	w := &diffWorld{
		st:   store.NewSharded(part, worldBox),
		pLon: exIRI("lon"), pLat: exIRI("lat"), pTS: exIRI("ts"),
	}
	for i := 0; i < 3; i++ {
		w.preds = append(w.preds, exIRI("p%d", i))
	}
	w.preds = append(w.preds, w.pLon, w.pLat, w.pTS)
	nSubj := 12 + rng.Intn(20) // few enough to join often, enough that one subject's star stays small
	for i := 0; i < nSubj; i++ {
		w.subjects = append(w.subjects, exIRI("s%d", i))
	}
	w.objects = []rdf.Term{
		rdf.NewLong(5), rdf.NewDouble(5), rdf.NewTyped("5.0", rdf.XSDDouble), rdf.NewLiteral("5"),
		rdf.NewLong(-3), rdf.NewDouble(2.5), rdf.NewDouble(1e300), rdf.NewDouble(math.NaN()),
		rdf.NewDouble(math.Copysign(0, -1)), rdf.NewDouble(0), rdf.NewLong(12), rdf.NewLong(7),
		rdf.NewLiteral("alpha"), rdf.NewLiteral("beta"), rdf.NewLiteral("1z"), rdf.NewLiteral(""),
		rdf.NewLiteral("x"), rdf.NewTyped("x", rdf.XSDString),
		{Kind: rdf.Literal, Value: "x", Lang: "en"},
		{Kind: rdf.Literal, Value: "x", Lang: "en", Datatype: rdf.XSDDouble},
		{Kind: rdf.Literal, Value: "x", Lang: "en", Datatype: rdf.XSDLong},
		rdf.NewLiteral("a\"b"), rdf.NewLiteral("line\nbreak\\"), rdf.NewTyped("a\"b", rdf.XSDString),
		rdf.NewBlank("b0"), rdf.NewBlank("b1"), exIRI("class"),
		w.preds[0], w.preds[1],
		// Doubles whose sums depend on the fold order: a SUM folded in any
		// order but the canonical one parts from the specification.
		rdf.NewDouble(0.1), rdf.NewDouble(0.2), rdf.NewDouble(0.3),
		rdf.NewDouble(1e16), rdf.NewDouble(-1e16), rdf.NewDouble(1),
	}
	pick := func(ts []rdf.Term) rdf.Term { return ts[rng.Intn(len(ts))] }
	triple := func(s rdf.Term) onto.TripleT {
		t := onto.TripleT{S: s, P: pick(w.preds[:3]), O: pick(w.objects)}
		if rng.Intn(2) == 0 {
			t.O = pick(w.subjects) // patterns chain through it
		}
		switch rng.Intn(12) {
		case 0:
			t.P = s // S == P
		case 1:
			t.O = s // S == O
		case 2:
			t.O = t.P // P == O
		}
		return t
	}

	var global []onto.TripleT
	for i := rng.Intn(30); i > 0; i-- {
		global = append(global, triple(pick(w.subjects)))
	}
	w.st.AddGlobal(global)

	seals := rng.Intn(4)
	for gen := 0; gen <= seals; gen++ {
		for i := rng.Intn(30); i > 0; i-- {
			node := pick(w.subjects)
			pt := geo.Pt(worldBox.MinLon+rng.Float64()*8, worldBox.MinLat+rng.Float64()*8)
			ts := int64(rng.Intn(10_000))
			frag := []onto.TripleT{
				{S: node, P: w.pLon, O: rdf.NewDouble(pt.Lon)},
				{S: node, P: w.pLat, O: rdf.NewDouble(pt.Lat)},
				{S: node, P: w.pTS, O: rdf.NewLong(ts)},
			}
			if rng.Intn(6) == 0 {
				frag[0].O = rdf.NewLiteral("east") // a non-numeric coordinate: no pushdown may lose or keep it wrongly
			}
			for k := 1 + rng.Intn(5); k > 0; k-- {
				frag = append(frag, triple(node))
			}
			if rng.Intn(4) == 0 {
				frag = append(frag, global[:min(2, len(global))]...) // a head copy of a replicated triple
			}
			w.st.AddAnchored(node.Value, pt, ts, node, frag)
		}
		if gen < seals {
			w.st.Maintain(store.TierPolicy{}, true)
		}
	}
	return w
}

// genQuery builds a query over w as a struct, so that constants the parser
// has no syntax for (NaN, typed and tagged literals) and shapes validate
// would refuse (a projected or filtered variable no pattern binds) are
// covered too. Variables keep a role — node or value — most of the time, so
// that joins and filters match often enough to compare non-empty answers.
func genQuery(rng *rand.Rand, w *diffWorld) *Query {
	q := &Query{}
	var used, nodes, values []string
	use := func(v string, role *[]string) PatternTerm {
		if !slices.Contains(used, v) {
			used = append(used, v)
			*role = append(*role, v)
		}
		return Var(v)
	}
	variable := func(role *[]string, prefix string) PatternTerm {
		if len(*role) > 0 && rng.Intn(3) != 0 {
			return Var((*role)[rng.Intn(len(*role))])
		}
		return use(fmt.Sprintf("%s%d", prefix, rng.Intn(3)), role)
	}
	node := func() PatternTerm { return variable(&nodes, "n") }
	constant := func(ts []rdf.Term) PatternTerm {
		if rng.Intn(25) == 0 {
			return Const(exIRI("unknown%d", rng.Intn(3)))
		}
		return Const(ts[rng.Intn(len(ts))])
	}

	star := rng.Intn(3) == 0
	if star {
		// The spatiotemporal star: the shape pushdown and pruning act on.
		n := use("n0", &nodes)
		q.Patterns = append(q.Patterns,
			TriplePattern{n, Const(w.pLon), use("x", &values)},
			TriplePattern{n, Const(w.pLat), use("y", &values)},
			TriplePattern{n, Const(w.pTS), use("t", &values)})
	}
	for i := 1 + rng.Intn(3); i > 0 && len(q.Patterns) < 4; i-- {
		tp := TriplePattern{S: node(), P: constant(w.preds[:3+3*rng.Intn(2)])}
		switch rng.Intn(10) {
		case 0, 1, 2, 3:
			tp.O = node() // a chain, or a cross product when the variable is new
		case 4:
			tp.O = constant(w.objects)
		default:
			tp.O = use(fmt.Sprintf("v%d", rng.Intn(4)), &values)
		}
		if rng.Intn(10) == 0 {
			tp.S = constant(w.subjects)
		}
		switch rng.Intn(24) { // a variable repeated inside the pattern, or a free predicate
		case 0:
			tp.P = tp.S
		case 1:
			tp.O = tp.S
		case 2:
			tp.P = use("p", &nodes)
			tp.O = tp.P
		case 3, 4:
			tp.P = use("p", &nodes)
		}
		q.Patterns = append(q.Patterns, tp)
	}

	valueVar := func(preferred string) string {
		switch {
		case rng.Intn(15) == 0:
			return "unbound"
		case slices.Contains(used, preferred) && rng.Intn(4) != 0:
			return preferred
		case len(values) > 0 && rng.Intn(5) != 0:
			return values[rng.Intn(len(values))]
		}
		return used[rng.Intn(len(used))]
	}
	cmpConsts := []rdf.Term{
		rdf.NewLong(5), rdf.NewDouble(2.5), rdf.NewLong(0), rdf.NewDouble(math.NaN()),
		rdf.NewLiteral("NaN"), rdf.NewLiteral("alpha"), rdf.NewLiteral("x"), rdf.NewLong(4000),
		rdf.NewDouble(26), rdf.NewLiteral("http://ex/s1"),
	}
	ops := []CmpOp{OpLT, OpLE, OpGT, OpGE, OpEQ, OpNE}
	for i := max(0, rng.Intn(5)-2); i > 0; i-- {
		switch rng.Intn(5) {
		case 0, 1:
			q.Filters = append(q.Filters, CmpFilter{Var: valueVar(""), Op: ops[rng.Intn(len(ops))], Value: cmpConsts[rng.Intn(len(cmpConsts))]})
		case 2:
			lon, lat := worldBox.MinLon+rng.Float64()*4, worldBox.MinLat+rng.Float64()*4
			q.Filters = append(q.Filters, WithinFilter{LonVar: valueVar("x"), LatVar: valueVar("y"),
				Box: geo.NewBBox(lon, lat, lon+1+rng.Float64()*5, lat+1+rng.Float64()*5)})
		case 3:
			from := int64(rng.Intn(7000))
			q.Filters = append(q.Filters, DuringFilter{TSVar: valueVar("t"), From: from, To: from + int64(rng.Intn(8000)) - 500})
		case 4:
			q.Filters = append(q.Filters, DWithinFilter{LonVar: valueVar("x"), LatVar: valueVar("y"),
				Center: geo.Pt(26, 38), DistM: rng.Float64() * 600_000})
		}
	}
	if star {
		// Filters may have named x, y or t: keep their patterns, else trim.
		keep := 1 + rng.Intn(3)
		for _, f := range q.Filters {
			for _, v := range f.Vars() {
				if i := slices.Index([]string{"x", "y", "t"}, v); i >= 0 && rng.Intn(8) != 0 {
					keep = max(keep, i+1)
				}
			}
		}
		q.Patterns = append(q.Patterns[:keep:keep], q.Patterns[3:]...)
		used = allVars(q.Patterns)
	}

	someVars := func(max int) []string {
		var out []string
		for _, v := range used {
			if len(out) < max && rng.Intn(2) == 0 {
				out = append(out, v)
			}
		}
		return out
	}
	funcs := []AggFunc{AggCount, AggSum, AggMin, AggMax, AggAvg}
	aggs := func() {
		for i := 1 + rng.Intn(3); i > 0; i-- {
			a := Aggregate{Func: funcs[rng.Intn(len(funcs))], Var: used[rng.Intn(len(used))]}
			if !slices.ContainsFunc(q.Aggs, func(b Aggregate) bool { return b.OutName() == a.OutName() }) {
				q.Aggs = append(q.Aggs, a)
			}
		}
	}
	switch rng.Intn(6) {
	case 0: // SELECT *
	case 1: // plain projection, now and then of a variable no pattern binds
		q.Vars = someVars(3)
		if rng.Intn(10) == 0 {
			q.Vars = append(q.Vars, "nowhere")
		}
	case 2: // the legacy COUNT, bare or over a projection
		q.Vars = someVars(2)
		q.Aggs = []Aggregate{{Func: AggCount}}
	case 3: // one global group
		aggs()
	default: // GROUP BY
		q.GroupBy = someVars(2)
		if len(q.GroupBy) == 0 {
			q.GroupBy = used[:1]
		}
		if rng.Intn(2) == 0 {
			q.Vars = q.GroupBy[:1+rng.Intn(len(q.GroupBy))]
		}
		if rng.Intn(5) != 0 {
			aggs()
		}
	}
	if out := q.OutputVars(); len(out) > 0 {
		for i := rng.Intn(3); i > 0; i-- {
			q.OrderBy = append(q.OrderBy, OrderKey{Var: out[rng.Intn(len(out))], Desc: rng.Intn(2) == 0})
		}
	}
	if rng.Intn(40) == 0 {
		q.OrderBy = append(q.OrderBy, OrderKey{Var: "nowhere"}) // an error on both sides, unless projected
	}
	if rng.Intn(3) == 0 {
		q.Limit = 1 + rng.Intn(6)
	}
	return q
}

// sameCell reports whether the engine and the specification returned the
// same cell: the same term, bit for bit — or, where a row survived under one
// of several ids that render equally, one of those twins (which one each
// keeps depends on where it met the row first).
func sameCell(a, b rdf.Term) bool {
	if a == b {
		return true
	}
	twin := func(t rdf.Term) bool {
		return t.Kind == rdf.Literal && (t.Datatype == rdf.XSDString || t.Lang != "" && t.Datatype != "")
	}
	return a.String() == b.String() && (twin(a) || twin(b))
}

// diffResults compares Vars, Rows and, with stages, the shards visited and
// every stage's row count.
func diffResults(got, want *Result, stages bool) error {
	if !slices.Equal(got.Vars, want.Vars) {
		return fmt.Errorf("vars %v, specification %v", got.Vars, want.Vars)
	}
	if len(got.Rows) != len(want.Rows) {
		return fmt.Errorf("%d rows, specification %d\n got %v\nwant %v", len(got.Rows), len(want.Rows), got.Rows, want.Rows)
	}
	for i := range want.Rows {
		if !slices.EqualFunc(got.Rows[i], want.Rows[i], sameCell) {
			return fmt.Errorf("row %d: %v, specification %v", i, got.Rows[i], want.Rows[i])
		}
	}
	if !stages {
		return nil
	}
	if got.ShardsVisited != want.ShardsVisited {
		return fmt.Errorf("visited %d shards, specification %d", got.ShardsVisited, want.ShardsVisited)
	}
	if len(got.Plan.Stages) != len(want.Plan.Stages) {
		return fmt.Errorf("%d plan stages, specification %d", len(got.Plan.Stages), len(want.Plan.Stages))
	}
	for i, st := range want.Plan.Stages {
		if got.Plan.Stages[i].Rows != st.Rows {
			return fmt.Errorf("stage %d (%s) rows %d, specification %d", i, got.Plan.Stages[i].Op, got.Plan.Stages[i].Rows, st.Rows)
		}
	}
	return nil
}

// diffQuery runs q through the engine and the specification, and its
// scatter-gather form through Finalize and the specification's finalize
// over 1–3 overlapping partials, and reports the first divergence.
func diffQuery(rng *rand.Rand, w *diffWorld, q *Query) error {
	e := NewEngine(w.st)
	got, err := e.Run(q)
	want, werr := specRun(e, q)
	if (err != nil) != (werr != nil) {
		return fmt.Errorf("error %v, specification %v", err, werr)
	}
	if err != nil {
		return nil
	}
	if err := diffResults(got, want, true); err != nil {
		return err
	}
	if bare := withoutIdleFilters(q); len(bare.Filters) < len(q.Filters) {
		want, err := specRun(e, bare)
		if err == nil {
			err = diffResults(got, want, true)
		}
		if err != nil {
			return fmt.Errorf("a filter that never runs changed the answer: %w", err)
		}
	}

	// What a cluster does: every node answers the partial form, the
	// coordinator finalizes the rendered rows.
	partial, err := e.Run(q.StripFinal())
	if err != nil {
		return fmt.Errorf("partial form: %w", err)
	}
	parts := make([][][]string, 1+rng.Intn(3))
	for _, row := range partial.Rows {
		cells := renderRow(row).cells
		to := rng.Intn(len(parts))
		parts[to] = append(parts[to], cells)
		if rng.Intn(4) == 0 {
			parts[0] = append(parts[0], cells) // a row two nodes both hold
		}
	}
	gotF, err := Finalize(q, partial.Vars, parts...)
	wantF, werr := specFinalize(q, partial.Vars, parts...)
	if (err != nil) != (werr != nil) {
		return fmt.Errorf("finalize: error %v, specification %v", err, werr)
	}
	if err != nil {
		return nil
	}
	if err := diffResults(gotF, wantF, false); err != nil {
		return fmt.Errorf("finalize: %w", err)
	}
	if !slices.EqualFunc(gotF.Rows, got.Rows, func(a, b []rdf.Term) bool {
		return slices.Equal(renderRow(a).cells, renderRow(b).cells)
	}) {
		return fmt.Errorf("finalize differs from the single node:\n got %v\nwant %v", gotF.Rows, got.Rows)
	}
	return nil
}

// withoutIdleFilters returns q less the filters that never run, those naming
// a variable no pattern binds: the query answers and visits exactly as it
// would without them.
func withoutIdleFilters(q *Query) *Query {
	bare := *q
	bare.Filters = nil
	for _, f := range q.Filters {
		if !slices.ContainsFunc(f.Vars(), func(v string) bool { return !slices.Contains(allVars(q.Patterns), v) }) {
			bare.Filters = append(bare.Filters, f)
		}
	}
	return &bare
}

// diffSeed is one differential round: a world and a batch of queries, all
// drawn from seed. It returns the join steps the compared queries ran.
func diffSeed(t *testing.T, seed int64, queries int) (ran joins) {
	rng := rand.New(rand.NewSource(seed))
	w := genWorld(rng)
	for i := 0; i < queries; i++ {
		q := genQuery(rng, w)
		// The specification joins in written order, cross products
		// included: leave it the queries it can finish (one the engine
		// needs 50 ms for takes it far longer).
		start := time.Now()
		res, err := NewEngine(w.st).Run(q.StripFinal())
		if err != nil || len(res.Rows) > 2000 || time.Since(start) > 50*time.Millisecond {
			continue
		}
		if err := diffQuery(rng, w, q); err != nil {
			t.Fatalf("seed %d query %d: %s\n%v", seed, i, q, err)
		}
		j := joinsRun(t, res) // the partial form joins as q does
		ran.merge, ran.probe = ran.merge+j.merge, ran.probe+j.probe
	}
	return ran
}

// joinsRun reads the join steps an executed query ran from its scan stage's
// plan detail.
func joinsRun(t *testing.T, res *Result) (j joins) {
	t.Helper()
	detail := res.Plan.Stages[0].Detail
	at := strings.Index(detail, "joins=")
	if at < 0 {
		t.Fatalf("scan detail %q names no joins", detail)
	}
	if _, err := fmt.Sscanf(detail[at:], "joins=merge:%d,probe:%d", &j.merge, &j.probe); err != nil {
		t.Fatalf("scan detail %q: %v", detail, err)
	}
	return j
}

// TestEvalMatchesOracle holds the slot-compiled evaluator, the rank-ordered
// merge and the cell-indexed group/sort/limit chain to the specification
// (spec_test.go): identical Vars, Rows and per-stage cardinalities over
// randomised stores and generated queries. The worlds must run joins both
// ways, as sort-merges and as probes per row, or one of them went unchecked.
func TestEvalMatchesOracle(t *testing.T) {
	worlds := 120
	if testing.Short() {
		worlds = 20
	}
	var ran joins
	for seed := int64(1); seed <= int64(worlds); seed++ {
		j := diffSeed(t, seed, 25)
		ran.merge, ran.probe = ran.merge+j.merge, ran.probe+j.probe
	}
	if ran.merge == 0 || ran.probe == 0 {
		t.Fatalf("the compared queries ran %d merge and %d probe joins: a branch went unchecked", ran.merge, ran.probe)
	}
	t.Logf("compared queries ran %d merge and %d probe joins", ran.merge, ran.probe)
}

// TestNeverRunningFilterPrunesNothing holds st:within and st:during naming
// a variable no pattern binds — filters that never run — to the full views:
// they prune no shard and drop no row. The same st:within on bound
// variables must prune shards in some Hilbert world, else nothing was
// checked.
func TestNeverRunningFilterPrunesNothing(t *testing.T) {
	pruned := 0
	for seed := int64(1); seed <= 30; seed++ {
		w := genWorld(rand.New(rand.NewSource(seed)))
		e := NewEngine(w.st)
		star := []TriplePattern{{Var("n"), Const(w.pLon), Var("x")}, {Var("n"), Const(w.pTS), Var("t")}}
		full, err := specRun(e, &Query{Patterns: star}) // no filter: every shard, every tier
		if err != nil {
			t.Fatal(err)
		}
		box := geo.NewBBox(worldBox.MinLon, worldBox.MinLat, worldBox.MinLon+1, worldBox.MinLat+1)
		for _, f := range []Filter{
			WithinFilter{LonVar: "x", LatVar: "unbound", Box: box},
			DuringFilter{TSVar: "unbound", From: 0, To: 100},
		} {
			got, err := e.Run(&Query{Patterns: star, Filters: []Filter{f}})
			if err == nil {
				err = diffResults(got, full, true)
			}
			if err != nil {
				t.Fatalf("seed %d, %s: %v", seed, f, err)
			}
		}
		if _, hilbert := w.st.Partitioner().(*partition.Hilbert); !hilbert {
			continue
		}
		withLat := append(slices.Clone(star), TriplePattern{Var("n"), Const(w.pLat), Var("y")})
		res, err := e.Run(&Query{Patterns: withLat, Filters: []Filter{WithinFilter{LonVar: "x", LatVar: "y", Box: box}}})
		if err != nil {
			t.Fatal(err)
		}
		pruned += w.st.NumShards() - res.ShardsVisited
	}
	if pruned == 0 {
		t.Fatal("the same filter on bound variables pruned no shard in any Hilbert world: nothing was checked")
	}
}

// TestFoldOrderFollowsRendering holds a float SUM to the canonical fold
// order, the rendering order of a bucket's rows: the bucket {1e16, -1e16, 1}
// sums to 0 that way ("-1e+16" < "1" < "1e+16") and to 1 in the order its
// values are interned, which is the merge's id order. A bucket of two values
// sums alike in either order. The engine, the specification and Finalize
// over shuffled partials, which interns in its own order, must agree, with
// and without an ORDER BY that makes the bucket order invisible.
func TestFoldOrderFollowsRendering(t *testing.T) {
	st := store.NewSharded(partition.NewHash(2), worldBox)
	pg, px := exIRI("group"), exIRI("x")
	var triples []onto.TripleT
	for i, r := range []struct {
		group string
		x     float64
	}{{"a", 1e16}, {"a", -1e16}, {"a", 1}, {"b", 0.2}, {"b", 0.1}} {
		s := exIRI("s%d", i)
		triples = append(triples, onto.TripleT{S: s, P: pg, O: exIRI("%s", r.group)}, onto.TripleT{S: s, P: px, O: rdf.NewDouble(r.x)})
	}
	if err := st.AddGlobal(triples); err != nil {
		t.Fatal(err)
	}
	fold := func(xs ...float64) (sum float64) {
		for _, x := range xs {
			sum += x
		}
		return sum
	}
	if byID, byRendering := fold(1e16, -1e16, 1), fold(-1e16, 1, 1e16); byID == byRendering {
		t.Fatalf("the fixture's bucket sums to %v in both orders: it tells no order apart", byID)
	}
	e := NewEngine(st)
	rng := rand.New(rand.NewSource(1))
	for _, order := range [][]OrderKey{nil, {{Var: "sum_x", Desc: true}, {Var: "g"}}} {
		q := &Query{
			Patterns: []TriplePattern{{Var("s"), Const(pg), Var("g")}, {Var("s"), Const(px), Var("x")}},
			GroupBy:  []string{"g"},
			Aggs:     []Aggregate{{Func: AggSum, Var: "x"}, {Func: AggAvg, Var: "x"}},
			OrderBy:  order,
		}
		got, err := e.Run(q)
		if err != nil {
			t.Fatal(err)
		}
		want, err := specRun(e, q)
		if err != nil {
			t.Fatal(err)
		}
		if err := diffResults(got, want, true); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		for _, row := range got.Rows {
			if row[0] == exIRI("a") && row[1] != rdf.NewDouble(0) {
				t.Fatalf("%s: bucket a sums to %v, want 0 (the rendering order)", q, row[1])
			}
		}
		partial, err := e.Run(q.StripFinal())
		if err != nil {
			t.Fatal(err)
		}
		for round := 0; round < 5; round++ {
			parts := make([][][]string, 1+rng.Intn(3))
			for _, i := range rng.Perm(len(partial.Rows)) {
				to := rng.Intn(len(parts))
				parts[to] = append(parts[to], renderRow(partial.Rows[i]).cells)
			}
			gotF, err := Finalize(q, partial.Vars, parts...)
			if err != nil {
				t.Fatal(err)
			}
			if err := diffResults(gotF, want, false); err != nil {
				t.Fatalf("%s: finalize over %v: %v", q, parts, err)
			}
		}
	}
}

// FuzzEvalMatchesOracle lets the fuzzer pick the seed the world and its
// queries are drawn from.
func FuzzEvalMatchesOracle(f *testing.F) {
	for _, seed := range []int64{0, 1, 42, -7, 1 << 40} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) { diffSeed(t, seed, 8) })
}
