// Package server is the online serving layer of the datAcron reproduction:
// a long-running HTTP daemon wrapping core.Pipeline that ingests, queries
// and publishes complex events concurrently — the paper's online
// architecture (§2), where surveillance streams flow continuously into the
// distributed spatiotemporal RDF store and are analysed while data arrives.
//
// Endpoints:
//
//	POST /ingest   — raw AIS/SBS wire lines, routed to per-entity-keyed
//	                 ingest workers with bounded queues; 429 on overload.
//	                 With a WAL configured, lines are logged and
//	                 group-committed before the batch is acknowledged.
//	POST /query    — stSPARQL-lite query, JSON result.
//	GET  /range    — spatiotemporal range query over the anchored nodes.
//	GET  /events   — server-sent event stream of recognised complex events,
//	                 critical points ("synopsis" frames, when synopses are
//	                 on) and (with a forecast interval) "forecast" frames.
//	GET  /forecast — predicted future location of one entity: point +
//	                 uncertainty radius, method-tagged (online forecasting).
//	GET  /forecast/batch — forecasts for every live entity.
//	GET  /synopses/{id} — one entity's trajectory synopsis: its critical
//	                 points (stop/turn/speed-change/gap) + compression
//	                 accounting.
//	GET  /synopses/batch — per-entity synopsis summaries + hub-wide
//	                 compression statistics.
//	POST /snapshot — write a full pipeline snapshot (durable mode only).
//	POST /seal     — force a tier-maintenance pass: seal every non-empty
//	                 shard head into an immutable segment and apply the
//	                 retention window.
//	GET  /healthz  — liveness and basic counters.
//	GET  /metrics  — Prometheus-style text metrics.
//
// See DESIGN.md §7 for the endpoint reference with examples, §8 for the
// durability and recovery protocol, and §9 for the online forecasting
// subsystem.
package server

import (
	"log/slog"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/store"
	"github.com/datacron-project/datacron/internal/wal"
)

// readHeaderTimeout is how long a connection may take to send a request
// header before the listener closes it: 10 s, so a client that sends half a
// header cannot hold a connection and its goroutine forever. It is a
// variable only so that a test can shorten it.
var readHeaderTimeout = 10 * time.Second

// NewHTTPServer returns the http.Server every listener of the daemon runs
// (the public API and the debug listener): h behind the header deadline.
// It sets no read, write or idle timeout, since long ingest bodies, /events
// streams and keep-alive peers would trip them.
func NewHTTPServer(addr string, h http.Handler) *http.Server {
	return &http.Server{Addr: addr, Handler: h, ReadHeaderTimeout: readHeaderTimeout}
}

// Config parameterises a server.
type Config struct {
	// Pipeline is the running datAcron instance to serve. Required; areas
	// and entities should already be installed (and Recover already run
	// when serving durably).
	Pipeline *core.Pipeline
	// Workers is the ingest worker count (default GOMAXPROCS).
	Workers int
	// QueueLen bounds each ingest worker's queue (default 1024); a full
	// queue surfaces as HTTP 429.
	QueueLen int

	// WAL, when non-nil, makes ingest durable: every accepted line is
	// appended to the log and the batch is group-committed before the
	// HTTP ack, so a kill -9 never loses an acknowledged line. The caller
	// keeps ownership (Close order: Server first, then the log).
	WAL *wal.Log
	// DataDir is the durability directory (enables POST /snapshot).
	DataDir string
	// Recovery, when non-nil, carries the boot-time recovery stats so
	// /metrics can expose what the restart replayed and skipped.
	Recovery *core.RecoveryStats

	// ForecastInterval, when > 0 and the pipeline has a ForecastHub,
	// publishes a batch forecast as SSE "forecast" frames every interval,
	// each 10 minutes ahead (forecastSSEHorizon).
	ForecastInterval time.Duration

	// Tier is the store's seal/retention policy; POST /seal applies it on
	// demand (force-sealing every non-empty head) and the background
	// maintenance pass applies it periodically.
	Tier store.TierPolicy
	// MaintainInterval is the cadence of the background tier-maintenance
	// pass (0 = only POST /seal maintains; ignored when Tier is inactive).
	MaintainInterval time.Duration

	// Logger receives the server's structured log (slow queries, lifecycle
	// events). nil = discard.
	Logger *slog.Logger
	// Readiness gates GET /readyz (503 until marked ready). nil = a server
	// that is ready as soon as it exists — callers with a recovery phase
	// pass their own gate and mark it ready after replay.
	Readiness *obs.Readiness
	// SlowQuery is the slow-query log threshold: any POST /query at or
	// over it is recorded with its plan facts and served at
	// GET /debug/slowlog. 0 = obs.DefaultSlowQuery; negative disables.
	SlowQuery time.Duration

	// ExtraMetrics, when non-nil, is called at the end of every GET /metrics
	// render to append caller-owned gauges (the cluster layer adds its ring
	// and ownership gauges this way).
	ExtraMetrics func(*obs.MetricsWriter)
}

// Server serves a pipeline over HTTP. Create with New, attach via Handler,
// stop with Close.
type Server struct {
	cfg   Config
	p     *core.Pipeline
	ing   *core.Ingestor
	hub   *hub
	mux   *http.ServeMux
	start time.Time

	wal *wal.Log

	// snapMu serialises POST /snapshot requests.
	snapMu          sync.Mutex
	snapshots       atomic.Int64
	lastSnapshotLSN atomic.Uint64

	// maintMu serialises tier-maintenance passes (ticker vs POST /seal).
	maintMu sync.Mutex

	// accepted counts lines acknowledged by POST /ingest.
	accepted atomic.Int64

	// Binary ingest accounting (frames decoded, records carried, frames
	// rejected as malformed).
	binFrames    atomic.Int64
	binRecords   atomic.Int64
	binBadFrames atomic.Int64

	// Observability: structured log, readiness gate, per-endpoint request
	// accounting (counts + latency histograms) and the slow-query log.
	logger    *slog.Logger
	ready     *obs.Readiness
	endpoints *obs.EndpointStats
	slowLog   *obs.SlowLog

	// Ticker lifecycle (forecast SSE, tier maintenance) and the forecast
	// fan-out counter.
	stopTicker        chan struct{}
	closeOnce         sync.Once
	tickerWG          sync.WaitGroup
	forecastPublished atomic.Int64
}

// New builds the serving layer over cfg.Pipeline and starts the ingest
// workers.
func New(cfg Config) *Server {
	s := &Server{
		cfg:       cfg,
		p:         cfg.Pipeline,
		hub:       newHub(subscriberBuffer),
		mux:       http.NewServeMux(),
		start:     time.Now(),
		wal:       cfg.WAL,
		logger:    cfg.Logger,
		ready:     cfg.Readiness,
		endpoints: obs.NewEndpointStats(),
	}
	if s.logger == nil {
		s.logger = obs.Discard()
	}
	if cfg.SlowQuery >= 0 {
		s.slowLog = obs.NewSlowLog(cfg.SlowQuery, 0, s.logger)
	}
	s.ing = s.p.NewIngestor(core.IngestorConfig{
		Workers:  cfg.Workers,
		QueueLen: cfg.QueueLen,
		OnEvents: s.hub.publishBatch,
	})
	s.handle("POST /ingest", "/ingest", s.handleIngest)
	s.handle("POST /query", "/query", s.handleQuery)
	s.handle("GET /range", "/range", s.handleRange)
	s.handle("GET /events", "/events", s.handleEvents)
	s.handle("GET /forecast", "/forecast", s.handleForecast)
	s.handle("GET /forecast/batch", "/forecast/batch", s.handleForecastBatch)
	s.handle("GET /synopses/batch", "/synopses/batch", s.handleSynopsesBatch)
	s.handle("GET /synopses/{id}", "/synopses/{id}", s.handleSynopsis)
	s.handle("POST /snapshot", "/snapshot", s.handleSnapshot)
	s.handle("POST /seal", "/seal", s.handleSeal)
	s.handle("GET /healthz", "/healthz", s.handleHealthz)
	s.handle("GET /metrics", "/metrics", s.handleMetrics)
	s.handle("GET /readyz", "/readyz", s.handleReadyz)
	s.handle("GET /debug/trace", "/debug/trace", s.handleDebugTrace)
	s.handle("GET /debug/slowlog", "/debug/slowlog", s.handleDebugSlowlog)
	s.stopTicker = make(chan struct{})
	if cfg.ForecastInterval > 0 && s.p.ForecastHub != nil {
		s.tickerWG.Add(1)
		go s.runForecastTicker(cfg.ForecastInterval)
	}
	if cfg.MaintainInterval > 0 && cfg.Tier.Active() {
		s.tickerWG.Add(1)
		go s.runMaintainTicker(cfg.MaintainInterval)
	}
	return s
}

// handle registers a route through the observability wrapper: every request
// gets an X-Request-ID (generated or propagated), and its status + latency
// feed the per-endpoint histograms behind the
// datacron_http_request_latency_seconds metrics. label is the endpoint name
// used in metric labels (the pattern minus the method).
func (s *Server) handle(pattern, label string, fn http.HandlerFunc) {
	ep := s.endpoints.Register(label)
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		obs.EnsureRequestID(w, r)
		sr := &obs.StatusRecorder{ResponseWriter: w}
		start := time.Now()
		fn(sr, r)
		ep.Observe(time.Since(start), sr.Status)
	})
}

// runMaintainTicker applies the tier policy periodically until Close.
func (s *Server) runMaintainTicker(interval time.Duration) {
	defer s.tickerWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopTicker:
			return
		case <-t.C:
			s.maintain(false)
		}
	}
}

// maintain runs one serialised tier-maintenance pass under the ingest
// barrier.
func (s *Server) maintain(force bool) store.MaintainStats {
	s.maintMu.Lock()
	defer s.maintMu.Unlock()
	return s.p.MaintainStore(s.ing, s.cfg.Tier, force)
}

// Handler returns the HTTP handler.
func (s *Server) Handler() http.Handler { return s.mux }

// Ingestor exposes the parallel ingest front-end (for draining in tests
// and benchmarks).
func (s *Server) Ingestor() *core.Ingestor { return s.ing }

// Close drains the ingest queues, stops the workers, stops the forecast
// ticker and disconnects event subscribers. Safe to call more than once.
func (s *Server) Close() {
	s.closeOnce.Do(func() { close(s.stopTicker) })
	s.tickerWG.Wait()
	s.ing.Close()
	s.hub.close()
}
