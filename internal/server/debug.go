package server

import (
	"net/http"
)

// handleReadyz answers readiness probes: 503 while the daemon is still
// recovering (WAL replay in progress — the configured obs.Readiness gate is
// not yet marked ready) or once the term dictionary is full (ingest then
// stores nothing new), 200 while it can serve reads and writes. Load
// balancers drain on this; /healthz stays pure liveness.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.p.Store.Dict().Full() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "full",
			"reason": "term dictionary full: reports with new terms are not stored (datacron_ingest_unstored_total); restart to compact it"})
		return
	}
	s.ready.ServeHTTP(w, r) // nil Readiness = always ready
}

// handleDebugTrace serves the sampled pipeline spans: for each sampled
// ingest line, one span per executed stage (decode, gate, synopsis,
// forecast, compress, store, cer) plus a whole-line span, oldest first,
// with the tracer's sampling accounting. 404s when tracing is off.
func (s *Server) handleDebugTrace(w http.ResponseWriter, r *http.Request) {
	if s.p.Tracer == nil {
		http.Error(w, "tracing disabled (start the pipeline with tracing enabled)", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, s.p.Tracer.Snapshot())
}

// handleDebugSlowlog serves the slow-query ring: every /query over the
// threshold, with its plan facts (shards visited/pruned, segments pruned,
// rows) and request id. 404s when the slow-query log is disabled.
func (s *Server) handleDebugSlowlog(w http.ResponseWriter, r *http.Request) {
	if s.slowLog == nil {
		http.Error(w, "slow-query log disabled", http.StatusNotFound)
		return
	}
	writeJSON(w, http.StatusOK, s.slowLog.Snapshot())
}
