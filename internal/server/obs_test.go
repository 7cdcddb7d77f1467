package server

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

// tracedWorld is testWorld with every observability surface on: per-line
// tracing (sample every line), forecasting, synopses, a WAL, recovery stats
// and the slow-query log, so conditional metric families all emit.
func tracedWorld(t testing.TB, cfg Config) (*synth.Scenario, *Server, *httptest.Server) {
	t.Helper()
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 77, Vessels: 14, Duration: 90 * time.Minute,
		Rendezvous: 1, Loiterers: 2, GapProb: 0.0001, OutlierProb: 0.002,
	})
	p := core.New(core.Config{
		Domain:   model.Maritime,
		Trace:    obs.TraceConfig{SampleEvery: 1},
		Forecast: core.ForecastConfig{Enabled: true},
		Synopses: core.SynopsesConfig{Enabled: true},
	})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	dataDir := t.TempDir()
	l, err := wal.Open(core.WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	cfg.Pipeline, cfg.WAL, cfg.DataDir = p, l, dataDir
	cfg.Recovery = &core.RecoveryStats{}
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return sc, srv, ts
}

// ingestAll posts n scenario lines in batches smaller than one worker
// queue, waiting for each to drain, so none are shed by backpressure.
func ingestAll(t testing.TB, ts *httptest.Server, sc *synth.Scenario, n int) {
	t.Helper()
	for i := 0; i < n; i += 500 {
		end := min(i+500, n)
		ir := postIngest(t, http.DefaultClient, ts.URL, wireBody(sc.WireTimed[i:end]), true)
		if ir.Rejected > 0 {
			t.Fatalf("batch [%d:%d): %d lines rejected", i, end, ir.Rejected)
		}
	}
}

// TestReadyzGate verifies the readiness lifecycle: 503 with a reason while
// the gate is closed (recovery in flight), 200 after MarkReady, 503 again
// when draining — while /healthz reports alive throughout.
func TestReadyzGate(t *testing.T) {
	ready := obs.NewReadiness("recovering: wal replay")
	_, _, ts := testWorld(t, Config{Readiness: ready})

	get := func(path string) (int, map[string]string) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var body map[string]string
		b, _ := io.ReadAll(resp.Body)
		_ = json.Unmarshal(b, &body)
		return resp.StatusCode, body
	}

	if code, body := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("not-ready /readyz = %d, want 503", code)
	} else if body["reason"] != "recovering: wal replay" {
		t.Fatalf("reason = %q", body["reason"])
	}
	if code, _ := get("/healthz"); code != http.StatusOK {
		t.Fatalf("/healthz during recovery = %d, want 200 (liveness is not readiness)", code)
	}

	ready.MarkReady()
	if code, body := get("/readyz"); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("ready /readyz = %d %v, want 200 ready", code, body)
	}

	ready.SetNotReady("shutting down")
	if code, _ := get("/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("draining /readyz = %d, want 503", code)
	}
}

// TestReadyzDefaultsReady verifies a server built without a readiness gate
// (tests, embedded use) is ready immediately.
func TestReadyzDefaultsReady(t *testing.T) {
	_, _, ts := testWorld(t, Config{})
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/readyz with nil gate = %d, want 200", resp.StatusCode)
	}
}

// TestRequestIDs verifies the X-Request-ID contract on real routes: a
// client-supplied id is echoed back, a missing one is generated.
func TestRequestIDs(t *testing.T) {
	_, _, ts := testWorld(t, Config{})

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set(obs.RequestIDHeader, "client-abc-1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); got != "client-abc-1" {
		t.Fatalf("propagated id = %q, want client-abc-1", got)
	}

	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if got := resp.Header.Get(obs.RequestIDHeader); !strings.HasPrefix(got, "dcr-") {
		t.Fatalf("generated id = %q, want dcr- prefix", got)
	}
}

// TestDebugTraceCoversPipeline ingests the scenario with every line traced
// and verifies GET /debug/trace returns spans for every pipeline stage —
// decode, gate, synopsis, forecast, compress, store, cer and the whole-line
// span — with sane accounting.
func TestDebugTraceCoversPipeline(t *testing.T) {
	sc, _, ts := tracedWorld(t, Config{})
	ingestAll(t, ts, sc, 2000)

	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.TraceSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.SampleEvery != 1 {
		t.Fatalf("sampleEvery = %d, want 1", snap.SampleEvery)
	}
	if snap.Lines < 2000 || snap.Sampled < int64(snap.Lines) {
		t.Fatalf("lines=%d sampled=%d, want sampled >= lines >= 2000 at 1:1", snap.Lines, snap.Sampled)
	}
	stages := map[string]int{}
	for _, sp := range snap.Spans {
		stages[sp.Stage]++
		if sp.DurationUS < 0 {
			t.Fatalf("negative span duration: %+v", sp)
		}
	}
	for _, want := range []string{"decode", "gate", "synopsis", "forecast", "compress", "store", "cer", "line"} {
		if stages[want] == 0 {
			t.Fatalf("no %q spans in /debug/trace (stages seen: %v)", want, stages)
		}
	}
	// Sampled lines that reached the store carry their entity.
	withEntity := 0
	for _, sp := range snap.Spans {
		if sp.Entity != "" {
			withEntity++
		}
	}
	if withEntity == 0 {
		t.Fatal("no span carries an entity id")
	}
}

// TestDebugTraceDisabled verifies /debug/trace 404s without a tracer.
func TestDebugTraceDisabled(t *testing.T) {
	_, _, ts := testWorld(t, Config{})
	resp, err := http.Get(ts.URL + "/debug/trace")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/trace without tracer = %d, want 404", resp.StatusCode)
	}
}

// TestSlowQueryLog forces every query over the threshold and verifies the
// slow-query ring records the query with its plan facts and request id.
func TestSlowQueryLog(t *testing.T) {
	sc, _, ts := tracedWorld(t, Config{SlowQuery: time.Nanosecond})
	ingestAll(t, ts, sc, 2000)

	const q = `SELECT ?v WHERE { ?v rdf:type dat:Vessel . }`
	req, _ := http.NewRequest("POST", ts.URL+"/query", strings.NewReader(q))
	req.Header.Set(obs.RequestIDHeader, "slow-req-7")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query = %d", resp.StatusCode)
	}

	resp, err = http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.SlowLogSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Fired < 1 || len(snap.Entries) < 1 {
		t.Fatalf("slowlog fired=%d entries=%d, want >= 1", snap.Fired, len(snap.Entries))
	}
	e := snap.Entries[len(snap.Entries)-1]
	if e.Query != q {
		t.Fatalf("recorded query = %q", e.Query)
	}
	if e.RequestID != "slow-req-7" {
		t.Fatalf("recorded request id = %q, want slow-req-7", e.RequestID)
	}
	if e.Rows <= 0 || e.DurationUS < 0 || e.ShardsVisited <= 0 || e.ShardsPruned < 0 {
		t.Fatalf("plan facts look wrong: %+v", e)
	}
	// The executed plan says where the time went: the scan did the work
	// here, and no operator can have taken longer than the whole query.
	if len(e.Plan) == 0 || e.Plan[0].Op != "scan" || e.Plan[0].Rows != e.Rows || e.Plan[0].US <= 0 {
		t.Fatalf("executed plan lacks the scan's rows and self time: %+v", e.Plan)
	}
	var sum int64
	for _, st := range e.Plan {
		sum += st.US
	}
	if sum > e.DurationUS {
		t.Fatalf("operators' self times sum to %d us, over the query's %d us", sum, e.DurationUS)
	}
}

// TestSlowQueryLogDisabled verifies a negative threshold turns the
// subsystem off entirely.
func TestSlowQueryLogDisabled(t *testing.T) {
	_, _, ts := testWorld(t, Config{SlowQuery: -1})
	resp, err := http.Get(ts.URL + "/debug/slowlog")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("/debug/slowlog disabled = %d, want 404", resp.StatusCode)
	}
}

// promNameRe is the Prometheus metric-name grammar; promSampleRe matches
// one sample line: name, optional {label="value",...} block, value.
var (
	promNameRe   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promSampleRe = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\.)*")*\})? (\S+)$`)
)

// TestMetricsPrometheusConformance fetches /metrics from a server with
// every subsystem live (tracing, forecasting, synopses, WAL, recovery
// stats, slow-query log) and checks text-format conformance: valid names
// and label syntax, parseable values, exactly one # TYPE per family
// emitted before its samples, a # HELP for every family, no family header
// without samples — and that every metric documented in OPERATIONS.md is
// actually emitted.
func TestMetricsPrometheusConformance(t *testing.T) {
	sc, _, ts := tracedWorld(t, Config{})
	ingestAll(t, ts, sc, 5000)
	// One query so the /query endpoint and the slow-query counter have
	// samples; one forced seal so tier counters move.
	resp, err := http.Post(ts.URL+"/query", "text/plain",
		strings.NewReader(`SELECT ?v WHERE { ?v rdf:type dat:Vessel . }`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	resp, err = http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "text/plain") {
		t.Fatalf("content type = %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}

	typed := map[string]string{} // family -> type
	helped := map[string]bool{}
	samples := map[string]int{} // family -> sample count
	for i, line := range strings.Split(strings.TrimRight(string(body), "\n"), "\n") {
		switch {
		case line == "":
			t.Fatalf("line %d: blank line in exposition", i+1)
		case strings.HasPrefix(line, "# HELP "):
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, ok := strings.Cut(rest, " ")
			if !ok || !promNameRe.MatchString(name) {
				t.Fatalf("line %d: bad HELP line %q", i+1, line)
			}
			if helped[name] {
				t.Fatalf("line %d: duplicate HELP for %s", i+1, name)
			}
			helped[name] = true
		case strings.HasPrefix(line, "# TYPE "):
			fields := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(fields) != 2 || !promNameRe.MatchString(fields[0]) {
				t.Fatalf("line %d: bad TYPE line %q", i+1, line)
			}
			name, typ := fields[0], fields[1]
			if typ != "counter" && typ != "gauge" {
				t.Fatalf("line %d: unexpected type %q for %s", i+1, typ, name)
			}
			if _, dup := typed[name]; dup {
				t.Fatalf("line %d: duplicate TYPE for %s", i+1, name)
			}
			if samples[name] > 0 {
				t.Fatalf("line %d: TYPE for %s after its samples", i+1, name)
			}
			typed[name] = typ
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", i+1, line)
		default:
			m := promSampleRe.FindStringSubmatch(line)
			if m == nil {
				t.Fatalf("line %d: unparseable sample %q", i+1, line)
			}
			name, value := m[1], m[3]
			if _, err := strconv.ParseFloat(value, 64); err != nil {
				t.Fatalf("line %d: bad value %q: %v", i+1, value, err)
			}
			if _, ok := typed[name]; !ok {
				t.Fatalf("line %d: sample for %s before/without its TYPE", i+1, name)
			}
			samples[name]++
		}
	}
	for name := range typed {
		if samples[name] == 0 {
			t.Fatalf("family %s has a TYPE header but no samples", name)
		}
		if !helped[name] {
			t.Fatalf("family %s has no HELP line", name)
		}
	}

	// Every metric OPERATIONS.md documents must actually be emitted by a
	// fully-enabled server — docs and exposition cannot drift.
	docs, err := os.ReadFile("../../OPERATIONS.md")
	if err != nil {
		t.Fatal(err)
	}
	docNameRe := regexp.MustCompile("`(datacron_[a-z0-9_]+)[^`]*`")
	seenDoc := map[string]bool{}
	for _, m := range docNameRe.FindAllStringSubmatch(string(docs), -1) {
		seenDoc[m[1]] = true
	}
	if len(seenDoc) < 20 {
		t.Fatalf("only %d documented metrics found in OPERATIONS.md — parsing broke?", len(seenDoc))
	}
	for name := range seenDoc {
		// datacron_cluster_* families exist only under -cluster (wired via
		// Config.ExtraMetrics); the cluster harness asserts them against
		// /metrics directly, and importing internal/cluster here would be an
		// import cycle.
		if strings.HasPrefix(name, "datacron_cluster_") {
			continue
		}
		if samples[name] == 0 {
			t.Errorf("OPERATIONS.md documents %s but /metrics does not emit it", name)
		}
	}
	// And the reverse: every emitted family is documented.
	for name := range typed {
		if !seenDoc[name] {
			t.Errorf("/metrics emits %s but OPERATIONS.md does not document it", name)
		}
	}
}

// TestIngestAcceptedCounter pins datacron_ingest_accepted_total to the sum
// of the accepted counts /ingest replied with, however many scrapes fall
// between and around the ingests: a scrape reads the counter, it does not
// reset a window. A short queue makes the replies accept only part of
// their bodies.
func TestIngestAcceptedCounter(t *testing.T) {
	sc, _, ts := testWorld(t, Config{Workers: 1, QueueLen: 256})
	accepted := func() int {
		t.Helper()
		resp, err := http.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return int(metricValue(t, body, "datacron_ingest_accepted_total"))
	}
	if got := accepted(); got != 0 {
		t.Fatalf("before any ingest: %d, want 0", got)
	}
	a := postIngest(t, http.DefaultClient, ts.URL, wireBody(sc.WireTimed[:400]), false).Accepted
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ { // scrapes in the same instant all read a
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := accepted(); got != a {
				t.Errorf("after the first ingest: %d, want %d", got, a)
			}
		}()
	}
	wg.Wait()
	b := postIngest(t, http.DefaultClient, ts.URL, wireBody(sc.WireTimed[400:800]), false).Accepted
	if a+b == 0 {
		t.Fatal("no line accepted")
	}
	t.Logf("accepted %d + %d of 2 × 400 lines", a, b)
	for i := 0; i < 3; i++ {
		if got := accepted(); got != a+b {
			t.Errorf("scrape %d after the second ingest: %d, want %d + %d", i, got, a, b)
		}
	}
}

// TestMetricsEndpointAccounting verifies per-endpoint request counters and
// latency quantiles appear for exercised routes.
func TestMetricsEndpointAccounting(t *testing.T) {
	_, _, ts := testWorld(t, Config{})
	for i := 0; i < 3; i++ {
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	text := string(body)
	if !strings.Contains(text, `datacron_http_requests_total{path="/healthz"} 3`) {
		t.Fatalf("missing /healthz request count:\n%s", text)
	}
	if !strings.Contains(text, `datacron_http_request_latency_seconds{path="/healthz",quantile="0.95"}`) {
		t.Fatal("missing /healthz latency quantile")
	}
}
