package core

import (
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/store"
	"github.com/datacron-project/datacron/internal/synth"
)

// ingestedWorld is a sealed store built the way the daemon builds one: the
// generated stream through NewIngestor in 512-line batches (the benchmark
// driver's bulk load), primed with the scenario's areas and entities, then
// sealed.
func ingestedWorld(b *testing.B, cfg synth.MaritimeConfig, lines int) *Pipeline {
	b.Helper()
	sc := synth.GenMaritime(cfg)
	if len(sc.WireTimed) < lines {
		b.Fatalf("generated %d lines, need %d", len(sc.WireTimed), lines)
	}
	p := New(Config{Domain: model.Maritime})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	ing := p.NewIngestor(IngestorConfig{Workers: 2, QueueLen: 1 << 16})
	for tls := sc.WireTimed[:lines]; len(tls) > 0; {
		n := min(512, len(tls))
		if got, err := ing.SubmitBatch(nil, tls[:n]); got != n || err != nil {
			b.Fatalf("SubmitBatch accepted %d of %d lines, err %v", got, n, err)
		}
		tls = tls[n:]
	}
	if !ing.Quiesce(time.Minute) {
		b.Fatal("quiesce timeout")
	}
	ing.Close()
	p.Store.Maintain(store.TierPolicy{}, true)
	return p
}

// BenchmarkEngineIngestedWorld runs the benchmark driver's count and group
// reads (bench/reads.go) over stores shaped like two of its workloads'
// sealed stores: query-analytic's (1 000 vessels at the default 10 s
// interval, 12 300 lines) and durable-sparse's (50 vessels at 1 s with 5 m
// GPS noise, 44 000 lines). Unlike the query package's BenchmarkQueryFleet,
// whose store is random positions written directly, these stores hold what
// compression kept of a generated stream, entities and areas included.
func BenchmarkEngineIngestedWorld(b *testing.B) {
	const (
		count = `SELECT COUNT ?n WHERE { ?n rdf:type dat:SemanticNode . }`
		group = `SELECT ?v SUM(?s) AVG(?s) WHERE { ?n dat:ofMovingObject ?v . ?n dat:speed ?s . } GROUP BY ?v ORDER BY ?sum_s DESC, ?v LIMIT 5`
	)
	for _, w := range []struct {
		name  string
		cfg   synth.MaritimeConfig
		lines int
	}{
		{"dense", synth.MaritimeConfig{Seed: 7, Vessels: 1000, Duration: 4 * time.Minute, ReportEvery: 10 * time.Second, NoiseSigmaM: 15}, 12_300},
		{"sparse", synth.MaritimeConfig{Seed: 8, Vessels: 50, Duration: 19 * time.Minute, ReportEvery: time.Second, NoiseSigmaM: 5}, 44_000},
	} {
		p := ingestedWorld(b, w.cfg, w.lines)
		for _, q := range []struct{ name, src string }{{"count", count}, {"group", group}} {
			b.Run(w.name+"/"+q.name, func(b *testing.B) {
				b.ReportAllocs()
				rows, merged := 0, 0
				for i := 0; i < b.N; i++ {
					res, err := p.Engine.Execute(q.src)
					if err != nil {
						b.Fatal(err)
					}
					rows, merged = len(res.Rows), res.Plan.Stages[0].Rows
				}
				b.ReportMetric(float64(rows), "rows")
				b.ReportMetric(float64(merged), "scan_rows")
			})
		}
	}
}
