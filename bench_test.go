package datacron

// The benchmark harness regenerates every experiment defined in DESIGN.md
// §4 (the paper has no numbered tables/figures; each experiment reifies one
// verbatim architecture claim). Each benchmark runs the full-scale
// experiment and prints its result table once:
//
//	go test -bench=. -benchmem
//
// Individual experiments: go test -bench=BenchmarkE3 -benchtime=1x

import (
	"fmt"
	"sync"
	"testing"

	"github.com/datacron-project/datacron/internal/experiments"
)

// printedTables ensures each experiment table is printed once even when
// the benchmark framework loops.
var printedTables sync.Map

// runExperiment executes one experiment per benchmark iteration, printing
// the resulting table on the first execution.
func runExperiment(b *testing.B, fn func(quick bool) *experiments.Table) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tab := fn(false)
		if _, dup := printedTables.LoadOrStore(tab.ID, true); !dup {
			fmt.Printf("\n%s\n", tab)
		}
	}
}

// BenchmarkE1Compression regenerates E1: in-situ compression ratio vs SED
// error vs analytics quality ("high rates of data compression without
// affecting the quality of analytics", §2).
func BenchmarkE1Compression(b *testing.B) { runExperiment(b, experiments.E1Compression) }

// BenchmarkE2StreamThroughput regenerates E2: throughput of the daemon's
// keyed ingest front-end, core.Ingestor, at 1, 2 and 4 workers ("applied
// directly on the data streams", §2).
func BenchmarkE2StreamThroughput(b *testing.B) { runExperiment(b, experiments.E2StreamThroughput) }

// BenchmarkE3Partitioning regenerates E3: partitioner balance, latency and
// pruning ("sophisticated RDF partitioning algorithms", §2).
func BenchmarkE3Partitioning(b *testing.B) { runExperiment(b, experiments.E3Partitioning) }

// BenchmarkE4ParallelQuery regenerates E4: query speedup with workers
// ("parallel query processing techniques", §2).
func BenchmarkE4ParallelQuery(b *testing.B) { runExperiment(b, experiments.E4ParallelQuery) }

// BenchmarkE5LinkDiscovery regenerates E5: naive vs blocked link discovery
// ("automatically computing associations", §2).
func BenchmarkE5LinkDiscovery(b *testing.B) { runExperiment(b, experiments.E5LinkDiscovery) }

// BenchmarkE6TrajForecast regenerates E6: trajectory forecasting error by
// horizon in both domains ("forecasting of moving entities' trajectories
// in the challenging Maritime (2D) and Aviation (3D) domains", §1).
func BenchmarkE6TrajForecast(b *testing.B) { runExperiment(b, experiments.E6TrajForecast) }

// BenchmarkE7EventRecognition regenerates E7: CER quality and millisecond
// latency ("recognition ... of complex events", §1; "latency ... in ms", §4).
func BenchmarkE7EventRecognition(b *testing.B) { runExperiment(b, experiments.E7EventRecognition) }

// BenchmarkE8EventForecast regenerates E8: pattern-completion forecasting
// ("forecasting of complex events and patterns", §1).
func BenchmarkE8EventForecast(b *testing.B) { runExperiment(b, experiments.E8EventForecast) }

// BenchmarkE9Hotspots regenerates E9: hotspot/capacity-demand detection
// ("prediction of ... capacity demand, hot spots / paths", §1).
func BenchmarkE9Hotspots(b *testing.B) { runExperiment(b, experiments.E9Hotspots) }

// BenchmarkE10EndToEnd regenerates E10: the full wire-to-analytics pipeline
// latency budget ("coherent Big Data solution", §2, under ms latency, §4).
func BenchmarkE10EndToEnd(b *testing.B) { runExperiment(b, experiments.E10EndToEnd) }

// BenchmarkE14Synopses regenerates E14: trajectory-synopsis compression
// ratio vs reconstruction RMSE and the tap's ingest overhead ("high rates
// of data compression without affecting the quality of analytics", §2 — the
// synopses half of the claim).
func BenchmarkE14Synopses(b *testing.B) { runExperiment(b, experiments.E14Synopses) }

// BenchmarkE15Observability regenerates E15: the ingest-path cost of
// sampled stage tracing (bar: default sampling < 5% over the untraced
// baseline) with the per-stage latency breakdown the tracer buys.
func BenchmarkE15Observability(b *testing.B) { runExperiment(b, experiments.E15Observability) }
