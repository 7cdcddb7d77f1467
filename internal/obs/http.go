package obs

import (
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// RequestIDHeader is the request-identity header: propagated when the
// client sends one, generated otherwise, and always echoed on the response
// so a slow-query log entry or an error can be correlated across hops.
const RequestIDHeader = "X-Request-ID"

// reqIDPrefix makes ids unique across restarts; reqIDSeq within a process.
var (
	reqIDPrefix = func() string {
		var b [4]byte
		if _, err := rand.Read(b[:]); err != nil {
			return "dcr-0000"
		}
		return "dcr-" + hex.EncodeToString(b[:])
	}()
	reqIDSeq atomic.Uint64
)

// EnsureRequestID returns the request's X-Request-ID, generating one when
// the client sent none (or an oversized one), and sets it on the response
// headers. Client-supplied ids are capped at 128 bytes so a hostile header
// cannot bloat logs.
func EnsureRequestID(w http.ResponseWriter, r *http.Request) string {
	id := r.Header.Get(RequestIDHeader)
	if id == "" || len(id) > 128 {
		id = fmt.Sprintf("%s-%d", reqIDPrefix, reqIDSeq.Add(1))
		r.Header.Set(RequestIDHeader, id)
	}
	w.Header().Set(RequestIDHeader, id)
	return id
}

// EndpointStats accumulates per-endpoint request counts, error counts and
// latency histograms. Endpoints are pre-registered (one per route pattern)
// so the hot path is lock-free on the counters and only takes the
// histogram's own lock.
type EndpointStats struct {
	mu    sync.Mutex
	order []string
	byLbl map[string]*Endpoint
}

// Endpoint is one route's accounting.
type Endpoint struct {
	label    string
	Requests atomic.Int64
	// Errors counts 5xx responses (client errors are the client's problem).
	Errors  atomic.Int64
	Latency *LatencyHist
}

// NewEndpointStats returns an empty registry.
func NewEndpointStats() *EndpointStats {
	return &EndpointStats{byLbl: make(map[string]*Endpoint)}
}

// Register adds (or returns) the endpoint with the given label, e.g.
// "/query". Registration order is preserved for stable /metrics output.
func (es *EndpointStats) Register(label string) *Endpoint {
	es.mu.Lock()
	defer es.mu.Unlock()
	if e, ok := es.byLbl[label]; ok {
		return e
	}
	e := &Endpoint{label: label, Latency: NewLatencyHist()}
	es.byLbl[label] = e
	es.order = append(es.order, label)
	return e
}

// Each calls fn for every endpoint in registration order.
func (es *EndpointStats) Each(fn func(label string, e *Endpoint)) {
	es.mu.Lock()
	labels := append([]string(nil), es.order...)
	es.mu.Unlock()
	for _, l := range labels {
		es.mu.Lock()
		e := es.byLbl[l]
		es.mu.Unlock()
		fn(l, e)
	}
}

// Observe records one served request.
func (e *Endpoint) Observe(d time.Duration, status int) {
	e.Requests.Add(1)
	if status >= 500 {
		e.Errors.Add(1)
	}
	e.Latency.Observe(d)
}

// StatusRecorder wraps a ResponseWriter to capture the status code while
// passing Flush through, so SSE streaming keeps working behind the
// observability wrapper.
type StatusRecorder struct {
	http.ResponseWriter
	Status int
}

// WriteHeader records the status.
func (sr *StatusRecorder) WriteHeader(code int) {
	sr.Status = code
	sr.ResponseWriter.WriteHeader(code)
}

// Write defaults the status to 200 on an implicit header.
func (sr *StatusRecorder) Write(p []byte) (int, error) {
	if sr.Status == 0 {
		sr.Status = http.StatusOK
	}
	return sr.ResponseWriter.Write(p)
}

// Flush passes through to the underlying writer when it streams.
func (sr *StatusRecorder) Flush() {
	if f, ok := sr.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// Readiness gates /readyz: not-ready (with a reason) until the daemon has
// finished WAL replay/recovery, ready afterwards. /healthz stays pure
// liveness — a load balancer drains on readiness, a supervisor restarts on
// liveness, and conflating the two makes a long recovery look like a crash
// loop.
type Readiness struct {
	mu     sync.Mutex
	ready  bool
	reason string
}

// NewReadiness returns a not-ready gate with the given reason.
func NewReadiness(reason string) *Readiness { return &Readiness{reason: reason} }

// Ready returns an already-ready gate (for servers with nothing to
// recover).
func Ready() *Readiness { return &Readiness{ready: true} }

// MarkReady flips the gate to ready.
func (r *Readiness) MarkReady() {
	r.mu.Lock()
	r.ready, r.reason = true, ""
	r.mu.Unlock()
}

// SetNotReady flips the gate back to not-ready (e.g. during shutdown
// draining) with a reason.
func (r *Readiness) SetNotReady(reason string) {
	r.mu.Lock()
	r.ready, r.reason = false, reason
	r.mu.Unlock()
}

// State reports the gate.
func (r *Readiness) State() (ready bool, reason string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ready, r.reason
}

// ServeHTTP answers a readiness probe: 200 {"status":"ready"} or
// 503 {"status":"starting","reason":...}. A nil Readiness is always ready.
func (r *Readiness) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	ready, reason := true, ""
	if r != nil {
		ready, reason = r.State()
	}
	w.Header().Set("Content-Type", "application/json")
	if ready {
		w.WriteHeader(http.StatusOK)
		_ = json.NewEncoder(w).Encode(map[string]string{"status": "ready"})
		return
	}
	w.WriteHeader(http.StatusServiceUnavailable)
	_ = json.NewEncoder(w).Encode(map[string]string{"status": "starting", "reason": reason})
}

// SwitchHandler is an atomically swappable http.Handler: the daemon binds
// its listener immediately (serving only liveness + a 503 readiness while
// recovery replays the WAL) and swaps in the full API handler once ready.
type SwitchHandler struct {
	v atomic.Value // http.Handler
}

// Set installs the handler to delegate to.
func (h *SwitchHandler) Set(next http.Handler) { h.v.Store(&next) }

// ServeHTTP delegates to the installed handler (503 before any Set).
func (h *SwitchHandler) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if p, ok := h.v.Load().(*http.Handler); ok {
		(*p).ServeHTTP(w, r)
		return
	}
	http.Error(w, "starting", http.StatusServiceUnavailable)
}
