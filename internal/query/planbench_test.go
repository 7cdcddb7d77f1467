package query

import (
	"fmt"
	"testing"

	"github.com/datacron-project/datacron/internal/partition"
)

// BenchmarkQueryGroupBy measures the aggregate pipeline end to end: a
// two-pattern join over a mostly sealed store feeding group/aggregate,
// multi-key sort and the canonical ordering — the shape dashboards poll.
func BenchmarkQueryGroupBy(b *testing.B) {
	s := sealedWorld(b, partition.NewHash(4), 20_000, 7, 0.9)
	q := MustParse(`SELECT ?who COUNT(?n) SUM(?s) AVG(?s) WHERE {
		?n dat:ofMovingObject ?who . ?n dat:speed ?s .
	} GROUP BY ?who ORDER BY ?sum_s DESC, ?who`)
	e := NewEngine(s)
	groups := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := e.Run(q)
		if err != nil {
			b.Fatal(err)
		}
		groups = len(res.Rows)
	}
	b.ReportMetric(float64(groups), "groups")
}

// benchCacheQuery is a representative dashboard query: multiple patterns,
// filters, grouping and ordering — the parse cost the plan cache removes.
const benchCacheQuery = `SELECT ?who COUNT(?n) SUM(?s) WHERE {
	?n dat:ofMovingObject ?who . ?n dat:speed ?s . ?n dat:timestamp ?t .
	FILTER st:during(?t, 0, 90000) FILTER (?s > 2.5)
} GROUP BY ?who ORDER BY ?sum_s DESC LIMIT 10`

// BenchmarkQueryPlanCache compares a fresh parse against a plan-cache hit
// for the same canonicalized text.
func BenchmarkQueryPlanCache(b *testing.B) {
	b.Run("parse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := Parse(benchCacheQuery); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		e := NewEngine(nil) // ParseCached never touches the store
		if _, _, err := e.ParseCached(benchCacheQuery); err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			q, hit, err := e.ParseCached(benchCacheQuery)
			if err != nil || !hit || q == nil {
				b.Fatalf("hit=%v err=%v", hit, err)
			}
		}
	})
}

// BenchmarkQueryFleet is the query layer's micro-evidence for the live
// benchmark: the three store reads of bench/reads.go, and a selective join,
// over fleetWorld — 2 500 random positions written directly with
// AddPositionRecord, not the stream a workload ingests. The stores the
// workloads build, through the ingestor, are internal/core's
// BenchmarkEngineIngestedWorld.
func BenchmarkQueryFleet(b *testing.B) {
	e := NewEngine(fleetWorld(b))
	for _, bc := range []struct{ name, src string }{
		{"count", fleetCount},
		{"group", fleetGroup},
		{"sel", fmt.Sprintf(fleetSel, "14.85")},
		{"joinsel", fmt.Sprintf(fleetJoinSel, "14.85")},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			rows := 0
			for i := 0; i < b.N; i++ {
				res, err := e.Execute(bc.src)
				if err != nil {
					b.Fatal(err)
				}
				rows = len(res.Rows)
			}
			b.ReportMetric(float64(rows), "rows")
		})
	}
}
