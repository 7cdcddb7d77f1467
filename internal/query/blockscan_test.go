package query

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/partition"
	"github.com/datacron-project/datacron/internal/store"
)

// sealedWorld builds a sharded store with n position records, seals the
// first sealFrac of them into immutable segments and leaves the rest in the
// mutable heads, so queries cross the head/segment tier boundary.
func sealedWorld(tb testing.TB, part partition.Partitioner, n int, seed int64, sealFrac float64) *store.Sharded {
	rng := rand.New(rand.NewSource(seed))
	s := store.NewSharded(part, worldBox)
	for i := 0; i < 8; i++ {
		s.AddEntity(model.Entity{
			ID: fmt.Sprintf("V%d", i), Domain: model.Maritime,
			Name: fmt.Sprintf("SHIP %d", i), Type: "CARGO",
		})
	}
	sealAt := int(float64(n) * sealFrac)
	for i := 0; i < n; i++ {
		s.AddPositionRecord(model.Position{
			EntityID: fmt.Sprintf("V%d", rng.Intn(8)),
			TS:       int64(rng.Intn(100_000)),
			Pt: geo.Pt(worldBox.MinLon+rng.Float64()*(worldBox.MaxLon-worldBox.MinLon),
				worldBox.MinLat+rng.Float64()*(worldBox.MaxLat-worldBox.MinLat)),
			SpeedMS:   rng.Float64() * 15,
			CourseDeg: rng.Float64() * 360,
			Domain:    model.Maritime,
		})
		if i == sealAt {
			s.Maintain(store.TierPolicy{}, true)
		}
	}
	return s
}

// runBoth runs the same query through the engine and the specification
// (spec_test.go), which scans every triple of the tiers the query's bounds
// leave, without pushdown, fails the test on any divergence and returns the
// engine's result.
func runBoth(t *testing.T, s *store.Sharded, src string) *Result {
	t.Helper()
	e := NewEngine(s)
	q := MustParse(src)
	got, err := e.Run(q)
	if err != nil {
		t.Fatalf("engine: %v", err)
	}
	want, err := specRun(e, q)
	if err != nil {
		t.Fatalf("specification: %v", err)
	}
	if err := diffResults(got, want, true); err != nil {
		t.Fatalf("query %s:\n%v", src, err)
	}
	return got
}

// TestBlockScanMatchesCallback is the differential guard for the block
// path: randomized sealed stores and randomized spatiotemporal bounds must
// answer as the specification does, which scans every triple.
func TestBlockScanMatchesCallback(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, part := range []partition.Partitioner{
		partition.NewHash(4),
		partition.NewGrid(geo.NewGrid(worldBox, 16, 16), 4),
	} {
		s := sealedWorld(t, part, 3000, 17, 0.7)
		t.Run(part.Name(), func(t *testing.T) {
			nonEmpty := 0
			for trial := 0; trial < 25; trial++ {
				from := rng.Intn(120_000) - 10_000
				to := from + rng.Intn(60_000)
				lon := worldBox.MinLon + rng.Float64()*(worldBox.MaxLon-worldBox.MinLon)
				lat := worldBox.MinLat + rng.Float64()*(worldBox.MaxLat-worldBox.MinLat)
				src := fmt.Sprintf(`SELECT ?n WHERE {
					?n dat:timestamp ?t .
					?n dat:longitude ?lon . ?n dat:latitude ?lat .
					FILTER st:during(?t, %d, %d)
					FILTER st:within(?lon, ?lat, %g, %g, %g, %g)
				}`, from, to, lon, lat, lon+rng.Float64()*4, lat+rng.Float64()*3)
				if res := runBoth(t, s, src); len(res.Rows) > 0 {
					nonEmpty++
				}
			}
			if nonEmpty == 0 {
				t.Fatal("every random query was empty — the differential exercised nothing")
			}
		})
	}
}

// TestBlockScanFixedShapes pins the query shapes the pushdown interacts
// with: joins through the bounded variable, comparisons pushed alone and
// conjoined, exact boundary timestamps, empty ranges and a bounds
// conjunction.
func TestBlockScanFixedShapes(t *testing.T) {
	s := sealedWorld(t, partition.NewHash(4), 2000, 3, 0.8)
	queries := []string{
		// Join: the node variable bound by the time pattern feeds the
		// entity join; bounded var ?t is object of one pattern only.
		`SELECT ?n ?who WHERE {
			?n dat:timestamp ?t . ?n dat:ofMovingObject ?who .
			FILTER st:during(?t, 20000, 30000)
		}`,
		// A comparison on speed combined with a pushed during filter.
		`SELECT ?n WHERE {
			?n dat:timestamp ?t . ?n dat:speed ?v .
			FILTER st:during(?t, 0, 50000) FILTER (?v >= 7.5)
		}`,
		// A comparison alone, one per operator (!= pushes nothing).
		`SELECT ?n WHERE { ?n dat:speed ?v . FILTER (?v >= 7.5) }`,
		`SELECT ?n WHERE { ?n dat:speed ?v . FILTER (?v < 3) }`,
		`SELECT ?n WHERE { ?n dat:speed ?v . FILTER (?v != 5) }`,
		`SELECT ?n WHERE { ?n dat:timestamp ?t . FILTER (?t = 20000) }`,
		// Conjoined comparisons on one variable narrow from both sides.
		`SELECT ?n WHERE { ?n dat:speed ?v . FILTER (?v > 2) FILTER (?v <= 9) }`,
		// Comparisons against a string-valued predicate: a string constant
		// pushes nothing, a numeric one narrows the scan to the predicate's
		// numeric rows — none here — as its filter rejects the rest.
		`SELECT ?n WHERE { ?n dat:navStatus ?st . FILTER (?st >= "UnderWay") }`,
		`SELECT ?n WHERE { ?n dat:navStatus ?st . FILTER (?st > 5) }`,
		// Inclusive boundaries: during [0, 0] and [99999, 99999] hit only
		// exact-timestamp records.
		`SELECT ?n WHERE { ?n dat:timestamp ?t . FILTER st:during(?t, 0, 0) }`,
		// Empty range.
		`SELECT ?n WHERE { ?n dat:timestamp ?t . FILTER st:during(?t, 60, 50) }`,
		// Two during filters on the same variable conjoin.
		`SELECT ?n WHERE {
			?n dat:timestamp ?t .
			FILTER st:during(?t, 10000, 80000) FILTER st:during(?t, 40000, 90000)
		}`,
		// within alone, no during.
		`SELECT ?n WHERE {
			?n dat:longitude ?lon . ?n dat:latitude ?lat .
			FILTER st:within(?lon, ?lat, 24, 36, 27, 39)
		}`,
		// COUNT over a pushed range.
		`SELECT COUNT ?n WHERE { ?n dat:timestamp ?t . FILTER st:during(?t, 0, 45000) }`,
	}
	for _, src := range queries {
		runBoth(t, s, src)
	}
}

// TestBlockScanHugeTimestamps drives the int64→float64 widening: timestamps
// above 2^53 round when converted, and the pushed bounds must stay a
// superset of the exact filter so the (still-running) filter sees every
// candidate.
func TestBlockScanHugeTimestamps(t *testing.T) {
	base := int64(1) << 60
	s := store.NewSharded(partition.NewHash(2), worldBox)
	s.AddEntity(model.Entity{ID: "V0", Domain: model.Maritime, Name: "FAR FUTURE"})
	for i := 0; i < 64; i++ {
		s.AddPositionRecord(model.Position{
			EntityID: "V0", TS: base + int64(i),
			Pt: geo.Pt(24+float64(i)*0.01, 37), SpeedMS: 5, Domain: model.Maritime,
		})
	}
	s.Maintain(store.TierPolicy{}, true)
	for _, win := range [][2]int64{
		{base, base + 63}, {base + 10, base + 20}, {base + 63, base + 63},
	} {
		src := fmt.Sprintf(
			`SELECT ?n WHERE { ?n dat:timestamp ?t . FILTER st:during(?t, %d, %d) }`,
			win[0], win[1])
		runBoth(t, s, src)
	}
}

// BenchmarkQueryBlockScan measures a selective spatiotemporal query over a
// store whose history is sealed, answered through the numeric-column block
// path.
func BenchmarkQueryBlockScan(b *testing.B) {
	s := sealedWorld(b, partition.NewHash(4), 40_000, 41, 0.95)
	q := MustParse(`SELECT ?n ?who WHERE {
		?n dat:timestamp ?t . ?n dat:ofMovingObject ?who .
		?n dat:longitude ?lon . ?n dat:latitude ?lat .
		FILTER st:during(?t, 40000, 42000)
		FILTER st:within(?lon, ?lat, 23, 35, 28, 40)
	}`)
	b.Run("block", func(b *testing.B) {
		e := NewEngine(s)
		rows := 0
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			res, err := e.Run(q)
			if err != nil {
				b.Fatal(err)
			}
			rows = len(res.Rows)
		}
		b.ReportMetric(float64(rows), "rows")
	})
}
