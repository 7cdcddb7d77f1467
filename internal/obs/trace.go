package obs

import (
	"sync"
	"sync/atomic"
	"time"
)

// Stage names one step of the ingest pipeline for tracing and per-stage
// latency accounting.
type Stage uint8

const (
	// StageDecode is wire-line decoding (including multi-sentence AIS
	// reassembly / SBS track fusion).
	StageDecode Stage = iota
	// StageGate is the in-situ noise gate.
	StageGate
	// StageSynopsis is the trajectory-synopses tap (critical point
	// detection) over the gated stream.
	StageSynopsis
	// StageForecast is the online-forecasting tap over the gated stream.
	StageForecast
	// StageCompress is the in-situ threshold filter (trajectory assembly /
	// compression): it decides whether the report is stored or suppressed.
	StageCompress
	// StageStore is the RDF transformation + sharded store append.
	StageStore
	// StageCER is the serialised analytics stage: density grid + complex
	// event recognition.
	StageCER
	// StageLine is the whole-line pseudo-stage: one span per sampled line
	// covering wire line to fully processed, carrying the line's overall
	// outcome.
	StageLine

	numStages
)

var stageNames = [numStages]string{
	"decode", "gate", "synopsis", "forecast", "compress", "store", "cer", "line",
}

// String returns the stage's wire name as it appears in /debug/trace and
// the {stage=} label of the latency metrics.
func (s Stage) String() string {
	if int(s) < len(stageNames) {
		return stageNames[s]
	}
	return "unknown"
}

// Span is one recorded stage execution of one sampled line.
type Span struct {
	// Trace groups the spans of one line; ids are assigned in sampling
	// order and never reused within a process.
	Trace uint64 `json:"trace"`
	// Stage is the pipeline stage name (decode, gate, synopsis, forecast,
	// compress, store, cer, or the whole-line pseudo-stage "line").
	Stage string `json:"stage"`
	// Entity is the decoded entity id, when the line got far enough to
	// have one.
	Entity string `json:"entity,omitempty"`
	// Outcome records what the stage decided: e.g. "gated", "suppressed",
	// "stored", "bad-line", "events=2". Empty = the stage ran and passed
	// the report on.
	Outcome string `json:"outcome,omitempty"`
	// StartUnixNS is the stage's wall-clock start.
	StartUnixNS int64 `json:"startUnixNs"`
	// DurationUS is the stage's duration in microseconds.
	DurationUS int64 `json:"durationUs"`
}

// TraceConfig parameterises a Tracer.
type TraceConfig struct {
	// SampleEvery traces one line in every SampleEvery; 1 traces
	// everything. An embedder (core.Config) builds a Tracer only when it is
	// positive.
	SampleEvery int
	// RingSize bounds the span ring served by /debug/trace (default 4096
	// spans; old spans are overwritten).
	RingSize int
}

// DefaultSampleEvery is the daemon's tracing sample rate: one line in 64.
const DefaultSampleEvery = 64

// defaultTraceRing is the span-ring capacity when RingSize is not set.
const defaultTraceRing = 4096

// Tracer samples ingest lines and records per-stage spans into a bounded
// ring, feeding per-stage latency histograms. The unsampled path costs one
// atomic increment; all methods are safe for concurrent use from every
// ingest worker. A nil *Tracer is valid and records nothing.
type Tracer struct {
	every   uint64
	lines   atomic.Uint64 // lines seen (sampling clock)
	traces  atomic.Uint64 // trace ids handed out
	sampled atomic.Int64  // lines actually traced

	mu      sync.Mutex
	ring    []Span
	next    int
	wrapped bool

	hists [numStages]*LatencyHist
}

// NewTracer returns a running tracer; cfg.SampleEvery must be positive.
func NewTracer(cfg TraceConfig) *Tracer {
	if cfg.RingSize <= 0 {
		cfg.RingSize = defaultTraceRing
	}
	t := &Tracer{
		every: uint64(cfg.SampleEvery),
		ring:  make([]Span, cfg.RingSize),
	}
	for i := range t.hists {
		t.hists[i] = NewLatencyHist()
	}
	return t
}

// StartLine begins tracing one ingest line, returning nil when the line is
// not sampled (or the tracer itself is nil). All *LineTrace methods are
// nil-safe, so callers instrument unconditionally:
//
//	lt := tracer.StartLine()
//	lt.Begin(obs.StageDecode)
//	... decode ...
//	lt.End("")
//	...
//	lt.Finish("stored")
func (t *Tracer) StartLine() *LineTrace {
	if t == nil {
		return nil
	}
	if (t.lines.Add(1)-1)%t.every != 0 {
		return nil
	}
	t.sampled.Add(1)
	return &LineTrace{
		t:     t,
		id:    t.traces.Add(1),
		start: time.Now(),
		spans: make([]Span, 0, int(numStages)),
	}
}

// LineTrace accumulates the spans of one sampled line locally (no locking
// until Finish). It must only be used by the goroutine processing the line.
type LineTrace struct {
	t      *Tracer
	id     uint64
	entity string
	start  time.Time
	spans  []Span

	cur      Stage
	curStart time.Time
	open     bool
}

// SetEntity tags all spans of this line with the decoded entity id.
func (lt *LineTrace) SetEntity(id string) {
	if lt != nil {
		lt.entity = id
	}
}

// Begin opens a stage span. An already-open span is closed first (with an
// empty outcome), so a forgotten End cannot corrupt the trace.
func (lt *LineTrace) Begin(s Stage) {
	if lt == nil {
		return
	}
	if lt.open {
		lt.End("")
	}
	lt.cur, lt.curStart, lt.open = s, time.Now(), true
}

// End closes the open stage span with the given outcome. Without an open
// span it is a no-op.
func (lt *LineTrace) End(outcome string) {
	if lt == nil || !lt.open {
		return
	}
	lt.open = false
	d := time.Since(lt.curStart)
	lt.spans = append(lt.spans, Span{
		Trace:       lt.id,
		Stage:       lt.cur.String(),
		Outcome:     outcome,
		StartUnixNS: lt.curStart.UnixNano(),
		DurationUS:  d.Microseconds(),
	})
	lt.t.hists[lt.cur].Observe(d)
}

// Finish closes any open span, appends the whole-line span with the line's
// overall outcome and commits everything to the tracer's ring. The
// LineTrace must not be used afterwards.
func (lt *LineTrace) Finish(outcome string) {
	if lt == nil {
		return
	}
	lt.End("")
	d := time.Since(lt.start)
	lt.spans = append(lt.spans, Span{
		Trace:       lt.id,
		Stage:       StageLine.String(),
		Outcome:     outcome,
		StartUnixNS: lt.start.UnixNano(),
		DurationUS:  d.Microseconds(),
	})
	lt.t.hists[StageLine].Observe(d)
	for i := range lt.spans {
		lt.spans[i].Entity = lt.entity
	}
	lt.t.commit(lt.spans)
}

// commit appends spans to the bounded ring, overwriting the oldest.
func (t *Tracer) commit(spans []Span) {
	t.mu.Lock()
	for _, sp := range spans {
		t.ring[t.next] = sp
		t.next++
		if t.next == len(t.ring) {
			t.next = 0
			t.wrapped = true
		}
	}
	t.mu.Unlock()
}

// TraceSnapshot is the /debug/trace payload: the retained spans
// (oldest first) plus the tracer's accounting.
type TraceSnapshot struct {
	// SampleEvery is the configured sampling rate (1 = every line).
	SampleEvery int `json:"sampleEvery"`
	// Lines is how many ingest lines the tracer has seen.
	Lines uint64 `json:"lines"`
	// Sampled is how many of those were traced.
	Sampled int64 `json:"sampled"`
	// RingSize is the span-ring capacity.
	RingSize int `json:"ringSize"`
	// Spans are the retained spans, oldest first.
	Spans []Span `json:"spans"`
}

// Snapshot copies the retained spans (oldest first) with the tracer's
// accounting. Nil-safe: a nil tracer reports an empty snapshot.
func (t *Tracer) Snapshot() TraceSnapshot {
	if t == nil {
		return TraceSnapshot{Spans: []Span{}}
	}
	t.mu.Lock()
	spans := make([]Span, 0, len(t.ring))
	if t.wrapped {
		spans = append(spans, t.ring[t.next:]...)
	}
	spans = append(spans, t.ring[:t.next]...)
	t.mu.Unlock()
	return TraceSnapshot{
		SampleEvery: int(t.every),
		Lines:       t.lines.Load(),
		Sampled:     t.sampled.Load(),
		RingSize:    len(t.ring),
		Spans:       spans,
	}
}

// Sampled returns how many lines have been traced.
func (t *Tracer) Sampled() int64 {
	if t == nil {
		return 0
	}
	return t.sampled.Load()
}

// StageHist returns the latency histogram of one stage (nil on a nil
// tracer). The histograms observe only sampled lines.
func (t *Tracer) StageHist(s Stage) *LatencyHist {
	if t == nil || s >= numStages {
		return nil
	}
	return t.hists[s]
}

// Stages lists every stage in pipeline order (the whole-line pseudo-stage
// last), for metric exporters.
func Stages() []Stage {
	out := make([]Stage, numStages)
	for i := range out {
		out[i] = Stage(i)
	}
	return out
}
