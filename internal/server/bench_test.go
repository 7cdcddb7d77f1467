package server

import (
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
	"github.com/datacron-project/datacron/internal/wire"
)

// benchBatch is one pre-rendered POST /ingest body.
type benchBatch struct {
	body        string
	lines       int
	contentType string
}

var benchWorld struct {
	once   sync.Once
	sc     *synth.Scenario
	text   []benchBatch
	binary []benchBatch
}

// benchBatches pre-renders the wire stream as POST bodies — the same 512
// lines per batch in both the text and the binary frame format — so the
// benchmarks measure serving, not generation.
func benchBatches(b *testing.B) []benchBatch {
	benchWorld.once.Do(func() {
		benchWorld.sc = synth.GenMaritime(synth.MaritimeConfig{
			Seed: 99, Vessels: 40, Duration: 2 * time.Hour,
		})
		const batch = 512
		tls := benchWorld.sc.WireTimed
		for i := 0; i < len(tls); i += batch {
			end := i + batch
			if end > len(tls) {
				end = len(tls)
			}
			benchWorld.text = append(benchWorld.text, benchBatch{
				body: wireBody(tls[i:end]), lines: end - i, contentType: "text/plain",
			})
			benchWorld.binary = append(benchWorld.binary, benchBatch{
				body: string(frameBody(tls[i:end])), lines: end - i, contentType: wire.ContentType,
			})
		}
	})
	return benchWorld.text
}

func benchBinaryBatches(b *testing.B) []benchBatch {
	benchBatches(b)
	return benchWorld.binary
}

// frameBody renders timed lines as one binary ingest frame.
func frameBody(tls []synth.TimedLine) []byte {
	var e wire.Encoder
	for _, tl := range tls {
		e.Add(tl.TS, tl.Line)
	}
	return e.AppendFrame(nil)
}

// runIngestBench drives concurrent POST /ingest against a live server
// (one op = one 512-line batch) and reports sustained lines/sec so later
// PRs can track serving throughput.
func runIngestBench(b *testing.B, srv *Server, batches []benchBatch) {
	ts := httptest.NewServer(srv.Handler())
	defer func() { ts.Close(); srv.Close() }()
	client := ts.Client()
	client.Transport.(*http.Transport).MaxIdleConnsPerHost = 64

	var next atomic.Int64
	var lines atomic.Int64
	start := time.Now()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			batch := batches[int(next.Add(1))%len(batches)]
			resp, err := client.Post(ts.URL+"/ingest", batch.contentType, strings.NewReader(batch.body))
			if err != nil {
				b.Error(err)
				return
			}
			resp.Body.Close()
			lines.Add(int64(batch.lines))
		}
	})
	srv.Ingestor().Quiesce(0)
	b.StopTimer()
	el := time.Since(start).Seconds()
	if el > 0 {
		b.ReportMetric(float64(lines.Load())/el, "lines/sec")
	}
	b.ReportMetric(float64(srv.Ingestor().Rejected()), "rejected")
}

// benchPipeline builds a primed pipeline over the benchmark world.
func benchPipeline(b *testing.B) *core.Pipeline {
	p := core.New(core.Config{Domain: model.Maritime})
	p.InstallAreas(benchWorld.sc.Areas)
	p.InstallEntities(benchWorld.sc.Entities)
	return p
}

// BenchmarkServerIngest is the in-memory serving baseline.
func BenchmarkServerIngest(b *testing.B) {
	batches := benchBatches(b)
	srv := New(Config{Pipeline: benchPipeline(b), QueueLen: 1 << 16})
	runIngestBench(b, srv, batches)
}

// BenchmarkServerIngestBinary is the same stream through the binary frame
// format: one allocation per frame in place of one string copy of the
// body.
func BenchmarkServerIngestBinary(b *testing.B) {
	batches := benchBinaryBatches(b)
	srv := New(Config{Pipeline: benchPipeline(b), QueueLen: 1 << 16})
	runIngestBench(b, srv, batches)
}

// BenchmarkServerIngestTraced is the serving path with sampled stage
// tracing at the default 1:64 rate — the daemon's out-of-the-box
// configuration. The acceptance bar for the observability layer is < 5%
// regression against BenchmarkServerIngest: this pair is where the bar is
// read.
func BenchmarkServerIngestTraced(b *testing.B) {
	batches := benchBatches(b)
	p := core.New(core.Config{
		Domain: model.Maritime,
		Trace:  obs.TraceConfig{SampleEvery: obs.DefaultSampleEvery},
	})
	p.InstallAreas(benchWorld.sc.Areas)
	p.InstallEntities(benchWorld.sc.Entities)
	srv := New(Config{Pipeline: p, QueueLen: 1 << 16})
	runIngestBench(b, srv, batches)
	b.ReportMetric(float64(p.Tracer.Sampled()), "sampled")
}

// BenchmarkServerIngestForecast is the serving path with the online
// forecasting hub tapping every gated report (route network + KNN, whose
// trajectories are also the warm history, + Markov updates). The acceptance bar for the forecasting
// subsystem is < 15% regression against BenchmarkServerIngest.
func BenchmarkServerIngestForecast(b *testing.B) {
	batches := benchBatches(b)
	p := core.New(core.Config{
		Domain:   model.Maritime,
		Forecast: core.ForecastConfig{Enabled: true},
	})
	p.InstallAreas(benchWorld.sc.Areas)
	p.InstallEntities(benchWorld.sc.Entities)
	srv := New(Config{Pipeline: p, QueueLen: 1 << 16})
	runIngestBench(b, srv, batches)
	b.ReportMetric(float64(p.ForecastHub.Observed()), "observed")
}

// BenchmarkServerIngestSynopses is the serving path with the trajectory
// synopses hub tapping every gated report (per-entity critical point
// detection + ring maintenance + compression accounting). The acceptance
// bar for the synopses subsystem is < 15% regression against
// BenchmarkServerIngest.
func BenchmarkServerIngestSynopses(b *testing.B) {
	batches := benchBatches(b)
	p := core.New(core.Config{
		Domain:   model.Maritime,
		Synopses: core.SynopsesConfig{Enabled: true},
	})
	p.InstallAreas(benchWorld.sc.Areas)
	p.InstallEntities(benchWorld.sc.Entities)
	srv := New(Config{Pipeline: p, QueueLen: 1 << 16})
	runIngestBench(b, srv, batches)
	st := p.SynopsisHub.Stats()
	b.ReportMetric(float64(st.Observed), "observed")
	b.ReportMetric(st.Ratio(), "compression")
}

// BenchmarkServerIngestWAL is the durable path in the daemon's default
// mode: every accepted line is framed/CRC'd into the write-ahead log and
// each batch is group-committed (flushed to the OS — kill -9 durable)
// before its ack. The acceptance bar for the durability subsystem is
// < 20% regression against BenchmarkServerIngest.
func BenchmarkServerIngestWAL(b *testing.B) {
	benchServerIngestWAL(b, wal.Options{NoSync: true})
}

// BenchmarkServerIngestWALFsync is the power-loss-durable mode (-fsync):
// one (often shared) fsync per acknowledged batch. On single-spindle or
// single-core hosts the fsync latency is serial dead time per request, so
// this mode trades throughput for machine-crash durability.
func BenchmarkServerIngestWALFsync(b *testing.B) {
	benchServerIngestWAL(b, wal.Options{})
}

func benchServerIngestWAL(b *testing.B, opts wal.Options) {
	batches := benchBatches(b)
	dataDir, err := os.MkdirTemp("", "datacron-walbench-")
	if err != nil {
		b.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	l, err := wal.Open(core.WALDir(dataDir), opts)
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	srv := New(Config{Pipeline: benchPipeline(b), QueueLen: 1 << 16, WAL: l, DataDir: dataDir})
	runIngestBench(b, srv, batches)
	b.ReportMetric(float64(l.Appended()), "wal-records")
}
