package query

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/partition"
	"github.com/datacron-project/datacron/internal/rdf"
	"github.com/datacron-project/datacron/internal/store"
)

// TestEqualRenderingsCollapse is the trap for an evaluator that dedups on
// dictionary ids: "x" and "x"^^xsd:string are two terms and two ids but one
// N-Triples rendering, and so are a tagged literal with and without a
// datatype. Stored under one subject in different shards and tiers they are
// one row, one count and one group — set semantics are defined on what a
// client can tell apart.
func TestEqualRenderingsCollapse(t *testing.T) {
	part := partition.NewHash(4)
	s := store.NewSharded(part, worldBox)
	subj, p := exIRI("s"), exIRI("p")
	twins := []rdf.Term{
		rdf.NewLiteral("x"),
		rdf.NewTyped("x", rdf.XSDString),
		{Kind: rdf.Literal, Value: "x", Datatype: rdf.XSDString, Lang: ""},
		{Kind: rdf.Literal, Value: "y", Lang: "en"},
		{Kind: rdf.Literal, Value: "y", Lang: "en", Datatype: rdf.XSDDouble},
	}
	shardsUsed := map[int]bool{}
	for i, o := range twins {
		key := fmt.Sprintf("k%d", i)
		shardsUsed[part.Assign(key, geo.Pt(25, 37), int64(i))] = true
		s.AddAnchored(key, geo.Pt(25, 37), int64(i), subj, []onto.TripleT{{S: subj, P: p, O: o}})
		if i == 1 {
			s.Maintain(store.TierPolicy{}, true) // the first two are sealed, the rest stay in heads
		}
	}
	if len(shardsUsed) < 2 {
		t.Fatal("fixture landed in one shard: the cross-shard merge is not exercised")
	}
	e := NewEngine(s)
	for _, tc := range []struct {
		src  string
		want [][]string
	}{
		{`SELECT ?o WHERE { <http://ex/s> <http://ex/p> ?o . }`, [][]string{{`"x"`}, {`"y"@en`}}},
		{`SELECT COUNT ?o WHERE { <http://ex/s> <http://ex/p> ?o . }`, [][]string{{rdf.NewLong(2).String()}}},
		{`SELECT COUNT(?o) MIN(?o) WHERE { ?s <http://ex/p> ?o . }`, [][]string{{rdf.NewLong(2).String(), `"x"`}}},
		{`SELECT ?o COUNT(?s) WHERE { ?s <http://ex/p> ?o . } GROUP BY ?o`,
			[][]string{{`"x"`, rdf.NewLong(1).String()}, {`"y"@en`, rdf.NewLong(1).String()}}},
	} {
		res, err := e.Execute(tc.src)
		if err != nil {
			t.Fatalf("%s: %v", tc.src, err)
		}
		var got [][]string
		for _, row := range res.Rows {
			got = append(got, renderRow(row).cells)
		}
		if !slices.EqualFunc(got, tc.want, slices.Equal[[]string]) {
			t.Errorf("%s\n got %v\nwant %v", tc.src, got, tc.want)
		}
	}
}

// TestSortMatchesCompareTerms pins ORDER BY — comparing through the value
// table's parse-once memo and ranks — to the specification's total order: a
// stable sort of the canonical rows under compareTerms, over keys that mix
// numbers, equal values in different spellings, NaN and non-numbers.
func TestSortMatchesCompareTerms(t *testing.T) {
	s := store.NewSharded(partition.NewHash(3), worldBox)
	p := rdf.NewIRI(onto.NS + "val")
	objects := []rdf.Term{
		rdf.NewLong(5), rdf.NewDouble(5), rdf.NewTyped("5.0", rdf.XSDDouble), rdf.NewLiteral("5"),
		rdf.NewLong(10), rdf.NewLong(9), rdf.NewLiteral("1z"), rdf.NewLiteral("alpha"),
		rdf.NewDouble(math.NaN()), rdf.NewDouble(math.Copysign(0, -1)), rdf.NewDouble(0),
		rdf.NewDouble(-2.5), rdf.NewIRI("http://ex/iri"), rdf.NewBlank("b"), rdf.NewLiteral(""),
	}
	rng := rand.New(rand.NewSource(3))
	var triples []onto.TripleT
	for i := 0; i < 60; i++ {
		triples = append(triples, onto.TripleT{S: exIRI("s%d", rng.Intn(12)), P: p, O: objects[rng.Intn(len(objects))]})
	}
	s.AddGlobal(triples)
	e := NewEngine(s)
	canonical, err := e.Execute(`SELECT ?s ?o WHERE { ?s dat:val ?o . }`)
	if err != nil {
		t.Fatal(err)
	}
	for _, order := range []string{"?o", "?o DESC", "?o, ?s DESC", "?o DESC, ?s", "?s DESC, ?o DESC"} {
		got, err := e.Execute(`SELECT ?s ?o WHERE { ?s dat:val ?o . } ORDER BY ` + order)
		if err != nil {
			t.Fatal(err)
		}
		want := slices.Clone(canonical.Rows)
		keys := MustParse(`SELECT ?s ?o WHERE { ?s dat:val ?o . } ORDER BY ` + order).OrderBy
		sort.SliceStable(want, func(i, j int) bool {
			for _, k := range keys {
				col := slices.Index(canonical.Vars, k.Var)
				c := compareTerms(want[i][col], want[j][col])
				if k.Desc {
					c = -c
				}
				if c != 0 {
					return c < 0
				}
			}
			return false
		})
		if !slices.EqualFunc(got.Rows, want, slices.Equal[[]rdf.Term]) {
			t.Errorf("ORDER BY %s\n got %v\nwant %v", order, got.Rows, want)
		}
	}
}

// The bench's three store reads (bench/reads.go), verbatim; fleetSel's %s
// is a speed literal near the 99th percentile of what the store was fed.
const (
	fleetCount = `SELECT COUNT ?n WHERE { ?n rdf:type dat:SemanticNode . }`
	fleetGroup = `SELECT ?v SUM(?s) AVG(?s) WHERE { ?n dat:ofMovingObject ?v . ?n dat:speed ?s . } GROUP BY ?v ORDER BY ?sum_s DESC, ?v LIMIT 5`
	fleetSel   = `SELECT ?n ?s WHERE { ?n dat:speed ?s . FILTER (?s > %s) } ORDER BY ?s DESC, ?n LIMIT 10`
)

// fleetJoinSel is a selective join: the few nodes above a speed, joined to
// their vessels — rows few enough that the join must probe, not merge.
const fleetJoinSel = `SELECT ?n ?v WHERE { ?n dat:speed ?s . ?n dat:ofMovingObject ?v . FILTER (?s > %s) }`

// fleetWorld is a store of the query-analytic workload's size: 1000
// entities, 2500 reports at random positions written with
// AddPositionRecord, the daemon's Hilbert × 4 partitioning, sealed twice.
// Speeds are what AIS carries: 0.1 kn steps, and every moored vessel (three
// in ten) at 0 — so, as in the daemon's store, many vessels tie on SUM.
func fleetWorld(tb testing.TB) *store.Sharded {
	rng := rand.New(rand.NewSource(19))
	s := store.NewSharded(partition.NewHilbert(worldBox, 7, 4), worldBox)
	for i := 0; i < 1000; i++ {
		s.AddEntity(model.Entity{ID: fmt.Sprintf("V%d", i), Domain: model.Maritime, Name: fmt.Sprintf("SHIP %d", i), Type: "CARGO"})
	}
	for i := 0; i < 2500; i++ {
		v := rng.Intn(1000)
		speed := geo.Knots(float64(1+rng.Intn(291)) / 10)
		if v%10 < 3 {
			speed = 0
		}
		s.AddPositionRecord(model.Position{
			EntityID: fmt.Sprintf("V%d", v), TS: int64(i) * 400,
			Pt: geo.Pt(worldBox.MinLon+rng.Float64()*(worldBox.MaxLon-worldBox.MinLon),
				worldBox.MinLat+rng.Float64()*(worldBox.MaxLat-worldBox.MinLat)),
			SpeedMS: speed, CourseDeg: rng.Float64() * 360, Domain: model.Maritime,
		})
		if i == 2000 || i == 2499 {
			s.Maintain(store.TierPolicy{}, true)
		}
	}
	return s
}

// TestQueryAllocBudget is the allocation ceiling the CI perf gate cannot
// give (it diffs against a baseline a 4× regression still passes): the
// evaluator allocates per arena and per column, not per joined row, cell or
// rendered value (PR 18: 340 604, 12 534 and 12 689).
// Group and sort allocate per operator, not per key or per comparison: on
// the fleet's grouped read, string-keyed grouping with a rendering per tied
// comparison took ≈ 5 900 and a full stable sort under LIMIT ≈ 2 100.
// The grouped join's sort-merge and the merge's radix index took it from
// ≈ 570 to ≈ 400, and COUNT to ≈ 190. Scans reading index runs in place
// into arenas grown per row's runs, one buffer for the shards' rows, a
// one-column merge without a row map and COUNT from the merged row count
// took COUNT from 177 to 97, the fleet's grouped read from 300 to 212, the
// grouped join from 373 to 237 and the block scan from 265 to 184.
// Ranking only the orders an operator can see (no rendering of a column no
// order needs, group folding the merge's runs) left the counts where they
// were — grouped join 235 → 230, the fleet's grouped read 209 → 207 — and
// cut the bytes: the grouped ceilings follow the new counts.
// Ceilings are ≈ 1.5× what the evaluator allocates.
func TestQueryAllocBudget(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 20 000-position stores")
	}
	budget := func(name string, e *Engine, q *Query, max float64) {
		t.Helper()
		if _, err := e.Run(q); err != nil {
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(3, func() { _, _ = e.Run(q) }); got > max {
			t.Errorf("%s: %.0f allocs per query, budget %.0f", name, got, max)
		}
	}
	budget("grouped join, 20 000 positions",
		NewEngine(sealedWorld(t, partition.NewHash(4), 20_000, 7, 0.9)),
		MustParse(`SELECT ?who COUNT(?n) SUM(?s) AVG(?s) WHERE {
			?n dat:ofMovingObject ?who . ?n dat:speed ?s .
		} GROUP BY ?who ORDER BY ?sum_s DESC, ?who`), 345)
	budget("block scan, 20 000 positions",
		NewEngine(sealedWorld(t, partition.NewHash(4), 20_000, 41, 0.95)),
		MustParse(`SELECT ?n ?who WHERE {
			?n dat:timestamp ?t . ?n dat:ofMovingObject ?who .
			?n dat:longitude ?lon . ?n dat:latitude ?lat .
			FILTER st:during(?t, 40000, 42000)
			FILTER st:within(?lon, ?lat, 23, 35, 28, 40)
		}`), 280)
	fleet := NewEngine(fleetWorld(t))
	budget("COUNT over 2500 nodes", fleet, MustParse(fleetCount), 150)
	budget("grouped ORDER BY … LIMIT 5 over 1000 vessels", fleet, MustParse(fleetGroup), 310)
}
