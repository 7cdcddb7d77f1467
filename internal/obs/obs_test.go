package obs

import (
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTracerSampling(t *testing.T) {
	tr := NewTracer(TraceConfig{SampleEvery: 4, RingSize: 64})
	traced := 0
	for i := 0; i < 40; i++ {
		if lt := tr.StartLine(); lt != nil {
			traced++
			lt.Finish("ok")
		}
	}
	if traced != 10 {
		t.Fatalf("SampleEvery=4 over 40 lines traced %d, want 10", traced)
	}
	if got := tr.Sampled(); got != 10 {
		t.Fatalf("Sampled() = %d, want 10", got)
	}
	snap := tr.Snapshot()
	if snap.Lines != 40 || snap.SampleEvery != 4 {
		t.Fatalf("snapshot accounting = %+v", snap)
	}
}

func TestTracerSpansAndOutcomes(t *testing.T) {
	tr := NewTracer(TraceConfig{SampleEvery: 1, RingSize: 64})
	lt := tr.StartLine()
	if lt == nil {
		t.Fatal("SampleEvery=1 must trace every line")
	}
	lt.Begin(StageDecode)
	lt.End("")
	lt.SetEntity("237000001")
	lt.Begin(StageGate)
	lt.End("gated")
	lt.Finish("gated")

	spans := tr.Snapshot().Spans
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3 (decode, gate, line)", len(spans))
	}
	byStage := map[string]Span{}
	for _, sp := range spans {
		byStage[sp.Stage] = sp
		if sp.Entity != "237000001" {
			t.Errorf("span %s entity = %q, want entity tag on every span", sp.Stage, sp.Entity)
		}
		if sp.Trace != 1 {
			t.Errorf("span %s trace id = %d, want 1", sp.Stage, sp.Trace)
		}
	}
	if byStage["gate"].Outcome != "gated" || byStage["line"].Outcome != "gated" {
		t.Fatalf("outcomes not recorded: %+v", byStage)
	}
	if tr.StageHist(StageGate).Count() != 1 {
		t.Fatal("gate stage histogram not fed")
	}
}

func TestTracerRingBounded(t *testing.T) {
	tr := NewTracer(TraceConfig{SampleEvery: 1, RingSize: 8})
	for i := 0; i < 100; i++ {
		lt := tr.StartLine()
		lt.Begin(StageDecode)
		lt.End("")
		lt.Finish("ok")
	}
	snap := tr.Snapshot()
	if len(snap.Spans) != 8 {
		t.Fatalf("ring retained %d spans, want 8", len(snap.Spans))
	}
	// Oldest-first order: trace ids must be non-decreasing.
	for i := 1; i < len(snap.Spans); i++ {
		if snap.Spans[i].Trace < snap.Spans[i-1].Trace {
			t.Fatalf("snapshot not oldest-first: %+v", snap.Spans)
		}
	}
}

func TestLineTraceNilSafe(t *testing.T) {
	var tr *Tracer
	lt := tr.StartLine() // nil tracer → nil trace
	lt.SetEntity("x")
	lt.Begin(StageStore)
	lt.End("ok")
	lt.Finish("ok") // must not panic
	if got := tr.Snapshot(); len(got.Spans) != 0 {
		t.Fatal("nil tracer snapshot must be empty")
	}
	if tr.StageHist(StageStore) != nil {
		t.Fatal("nil tracer must return nil hist")
	}
}

func TestTracerBeginWithoutEnd(t *testing.T) {
	tr := NewTracer(TraceConfig{SampleEvery: 1, RingSize: 16})
	lt := tr.StartLine()
	lt.Begin(StageDecode)
	lt.Begin(StageGate) // implicit End of decode
	lt.Finish("ok")     // implicit End of gate
	spans := tr.Snapshot().Spans
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
}

func TestWatermark(t *testing.T) {
	var w Watermark
	now := time.Now()
	if w.LagMS(now) != 0 || w.IdleMS(now) != 0 {
		t.Fatal("empty watermark must report zero lag")
	}
	w.Note(1000)
	w.Note(5000)
	w.Note(3000) // older event must not regress the watermark
	if got := w.StreamMS(); got != 5000 {
		t.Fatalf("watermark = %d, want 5000", got)
	}
	if lag := w.LagMS(now); lag != now.UnixMilli()-5000 {
		t.Fatalf("lag = %d", lag)
	}
}

func TestRequestIDGenerateAndPropagate(t *testing.T) {
	// Generated when absent, unique per request.
	r1 := httptest.NewRequest("GET", "/x", nil)
	w1 := httptest.NewRecorder()
	id1 := EnsureRequestID(w1, r1)
	r2 := httptest.NewRequest("GET", "/x", nil)
	w2 := httptest.NewRecorder()
	id2 := EnsureRequestID(w2, r2)
	if id1 == "" || id1 == id2 {
		t.Fatalf("generated ids must be unique: %q vs %q", id1, id2)
	}
	if w1.Header().Get(RequestIDHeader) != id1 {
		t.Fatal("id must be echoed on the response")
	}
	// Propagated when present.
	r3 := httptest.NewRequest("GET", "/x", nil)
	r3.Header.Set(RequestIDHeader, "client-abc")
	w3 := httptest.NewRecorder()
	if got := EnsureRequestID(w3, r3); got != "client-abc" {
		t.Fatalf("client id not propagated: %q", got)
	}
	// Oversized client ids are replaced, not echoed.
	r4 := httptest.NewRequest("GET", "/x", nil)
	r4.Header.Set(RequestIDHeader, strings.Repeat("a", 4096))
	w4 := httptest.NewRecorder()
	if got := EnsureRequestID(w4, r4); len(got) > 128 {
		t.Fatalf("oversized id echoed back (%d bytes)", len(got))
	}
}

func TestReadiness(t *testing.T) {
	rd := NewReadiness("wal replay in progress")
	rec := httptest.NewRecorder()
	rd.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("not-ready status = %d, want 503", rec.Code)
	}
	var body map[string]string
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatal(err)
	}
	if body["reason"] != "wal replay in progress" {
		t.Fatalf("reason = %q", body["reason"])
	}
	rd.MarkReady()
	rec = httptest.NewRecorder()
	rd.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("ready status = %d, want 200", rec.Code)
	}
}

func TestSlowLogThresholdAndRing(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	l := NewSlowLog(10*time.Millisecond, 4, logger)
	if l.Observe(SlowQuery{Query: "fast", DurationUS: 1000}) {
		t.Fatal("1ms must not fire a 10ms threshold")
	}
	for i := 0; i < 6; i++ {
		if !l.Observe(SlowQuery{Query: "slow", DurationUS: 50_000, Rows: i, ShardsVisited: 3, ShardsPruned: 1,
			Plan: []PlanStage{{Op: "scan", Detail: "shards=3/4", Rows: 9, US: 41}, {Op: "limit", Detail: "n=5", Rows: 5}}}) {
			t.Fatal("50ms must fire a 10ms threshold")
		}
	}
	snap := l.Snapshot()
	if snap.Fired != 6 {
		t.Fatalf("fired = %d, want 6", snap.Fired)
	}
	if len(snap.Entries) != 4 {
		t.Fatalf("ring retained %d, want 4", len(snap.Entries))
	}
	// Oldest-first: the retained entries are rows 2..5.
	if snap.Entries[0].Rows != 2 || snap.Entries[3].Rows != 5 {
		t.Fatalf("ring order wrong: %+v", snap.Entries)
	}
	if snap.Entries[0].ShardsPruned != 1 {
		t.Fatal("plan facts must ride along")
	}
	if !strings.Contains(logBuf.String(), `"msg":"slow query"`) {
		t.Fatal("slow query must be mirrored to the structured log")
	}
	// The WARN line carries the executed plan: per operator its output rows
	// and its self time.
	if want := `"plan":"scan(shards=3/4) rows=9 us=41 -> limit(n=5) rows=5 us=0"`; !strings.Contains(logBuf.String(), want) {
		t.Fatalf("WARN line lacks %s:\n%s", want, logBuf.String())
	}
	// Nil-safety.
	var nilLog *SlowLog
	if nilLog.Observe(SlowQuery{DurationUS: 1 << 40}) {
		t.Fatal("nil slowlog must not fire")
	}
}

// TestFormatPlanStages pins the one-operator-per-line rendering shared by the
// slow-query log and -explain: an executed operator prints its rows and self
// time, a plan that was only lowered (Rows -1) prints neither.
func TestFormatPlanStages(t *testing.T) {
	executed := FormatPlanStages([]PlanStage{
		{Op: "scan", Detail: "patterns=2", Rows: 2500, US: 1830},
		{Op: "group", Detail: "keys=v", Rows: 1000, US: 412},
		{Op: "limit", Detail: "n=5", Rows: 5},
	})
	if want := "scan(patterns=2) rows=2500 us=1830\n-> group(keys=v) rows=1000 us=412\n-> limit(n=5) rows=5 us=0\n"; executed != want {
		t.Fatalf("executed plan:\n%s\nwant:\n%s", executed, want)
	}
	explained := FormatPlanStages([]PlanStage{{Op: "scan", Detail: "patterns=2", Rows: -1}, {Op: "limit", Detail: "n=5", Rows: -1}})
	if want := "scan(patterns=2)\n-> limit(n=5)\n"; explained != want {
		t.Fatalf("explained plan:\n%s\nwant:\n%s", explained, want)
	}
}

func TestMetricsWriterHygiene(t *testing.T) {
	w := NewMetricsWriter()
	w.Counter("a_total", "a counter.", 7)
	w.Gauge("b", "a gauge.", 1.5)
	empty := w.Vec("counter", "c_total", "never sampled.")
	_ = empty
	filled := w.Vec("gauge", "d", "labelled.")
	filled.Add(2, "k", "v1")
	filled.Add(3, "k", `quote " and \ slash`)
	out := w.String()

	if !strings.Contains(out, "# HELP a_total a counter.\n# TYPE a_total counter\na_total 7\n") {
		t.Fatalf("counter block malformed:\n%s", out)
	}
	if strings.Contains(out, "c_total") {
		t.Fatalf("empty vector must not emit a header:\n%s", out)
	}
	if !strings.Contains(out, `d{k="v1"} 2`) {
		t.Fatalf("labelled sample missing:\n%s", out)
	}
	if strings.Count(out, "# TYPE d gauge") != 1 {
		t.Fatalf("vector header must appear exactly once:\n%s", out)
	}
	if !strings.Contains(out, `d{k="quote \" and \\ slash"} 3`) {
		t.Fatalf("label escaping wrong:\n%s", out)
	}
}

func TestSwitchHandler(t *testing.T) {
	var h SwitchHandler
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("pre-Set status = %d, want 503", rec.Code)
	}
	h.Set(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusTeapot)
	}))
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("post-Set status = %d, want 418", rec.Code)
	}
}

func TestNewLoggerLevels(t *testing.T) {
	var buf bytes.Buffer
	lg := Component(NewLogger(&buf, "warn", "json"), "test")
	lg.Info("hidden")
	lg.Warn("visible")
	out := buf.String()
	if strings.Contains(out, "hidden") {
		t.Fatal("info must be filtered at warn level")
	}
	if !strings.Contains(out, `"component":"test"`) {
		t.Fatalf("component tag missing: %s", out)
	}
	// Unknown level/format must still produce a working logger.
	lg2 := NewLogger(&buf, "bogus", "bogus")
	lg2.Info("ok")
	if !strings.Contains(buf.String(), "ok") {
		t.Fatal("fallback logger dropped output")
	}
}

func TestEndpointStats(t *testing.T) {
	es := NewEndpointStats()
	e := es.Register("/query")
	if es.Register("/query") != e {
		t.Fatal("re-registration must return the same endpoint")
	}
	e.Observe(5*time.Millisecond, 200)
	e.Observe(7*time.Millisecond, 500)
	if e.Requests.Load() != 2 || e.Errors.Load() != 1 {
		t.Fatalf("counts = %d/%d", e.Requests.Load(), e.Errors.Load())
	}
	var seen []string
	es.Register("/ingest")
	es.Each(func(l string, _ *Endpoint) { seen = append(seen, l) })
	if len(seen) != 2 || seen[0] != "/query" || seen[1] != "/ingest" {
		t.Fatalf("order = %v", seen)
	}
}
