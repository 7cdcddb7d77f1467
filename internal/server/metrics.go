package server

import (
	"net/http"
	"strconv"
	"sync/atomic"
	"time"

	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/synopses"
)

// healthResponse is the GET /healthz body.
type healthResponse struct {
	Status      string `json:"status"`
	Domain      string `json:"domain"`
	UptimeMS    int64  `json:"uptimeMs"`
	Lines       int64  `json:"lines"`
	Triples     int    `json:"triples"`
	Subscribers int    `json:"subscribers"`
}

// handleHealthz reports liveness plus the counters a probe wants at a
// glance. It stays truthful-but-alive during recovery and draining — use
// GET /readyz for load-balancer admission.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	snap := s.p.Stats.Snapshot()
	writeJSON(w, http.StatusOK, healthResponse{
		Status:      "ok",
		Domain:      s.p.Domain().String(),
		UptimeMS:    time.Since(s.start).Milliseconds(),
		Lines:       snap.Lines,
		Triples:     s.p.Store.Len(),
		Subscribers: s.hub.subscribers(),
	})
}

// quantiles are the latency percentiles exported per histogram.
var quantiles = []struct {
	p     float64
	label string
}{{50, "0.5"}, {95, "0.95"}, {99, "0.99"}}

// addQuantiles emits one gauge sample per exported percentile of h, with
// the given extra label, skipping empty histograms entirely (so the family
// header never appears without samples).
func addQuantiles(v *obs.Vec, h *obs.LatencyHist, labelKey, labelVal string) {
	if h == nil || h.Count() == 0 {
		return
	}
	for _, q := range quantiles {
		v.Add(h.Percentile(q.p).Seconds(), labelKey, labelVal, "quantile", q.label)
	}
}

// handleMetrics renders Prometheus text metrics (version 0.0.4, with HELP
// lines and no headers for empty families): ingest counters and rate,
// stream-time watermark and lag, worker queue depths, per-shard loads, tier
// layout, per-stage and per-endpoint latency quantiles, compression ratio,
// event fan-out, durability progress and build identity. See OPERATIONS.md
// "/metrics field reference" for the full table — the conformance test
// cross-checks that every documented metric is emitted.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.p.Stats.Snapshot()
	mw := obs.NewMetricsWriter()

	// Build identity + uptime first, so a scrape of a sick daemon still
	// says what is running.
	mw.Vec("gauge", "datacron_build_info", "Build identity; the value is always 1.").
		Add(1, "version", obs.Version, "domain", s.p.Domain().String())
	mw.Gauge("datacron_uptime_seconds", "Seconds since process start.", time.Since(s.start).Seconds())

	mw.Counter("datacron_ingest_lines_total", "Wire lines processed by the pipeline.", snap.Lines)
	mw.Counter("datacron_ingest_bad_lines_total", "Malformed lines skipped (counted, never fatal).", snap.BadLines)
	mw.Counter("datacron_ingest_decoded_total", "Lines that decoded to a position report.", snap.Decoded)
	mw.Counter("datacron_ingest_gated_total", "Reports dropped by the noise gate.", snap.Gated)
	mw.Counter("datacron_ingest_stored_total", "Reports stored after threshold compression.", snap.Kept)
	mw.Counter("datacron_ingest_suppressed_total", "Reports suppressed by compression.", snap.Suppressed)
	mw.Counter("datacron_ingest_accepted_total", "Lines acknowledged by POST /ingest.", s.accepted.Load())
	mw.Counter("datacron_ingest_rejected_total", "Lines shed by backpressure (429s).", s.ing.Rejected())
	mw.Counter("datacron_ingest_unstored_total", "Kept reports not stored: the term dictionary is full (see /readyz).", atomic.LoadInt64(&s.p.Stats.Unstored))
	mw.Counter("datacron_ingest_frames_total", "Binary ingest frames decoded.", s.binFrames.Load())
	mw.Counter("datacron_ingest_frame_records_total", "Records carried by binary ingest frames.", s.binRecords.Load())
	mw.Counter("datacron_ingest_bad_frames_total", "Binary ingest frames rejected as malformed.", s.binBadFrames.Load())
	mw.Counter("datacron_detections_total", "Complex events detected.", snap.Detections)
	mw.Counter("datacron_events_published_total", "SSE frames fanned out to subscribers.", s.hub.published.Load())
	mw.Counter("datacron_events_dropped_total", "SSE frames dropped on slow subscribers.", s.hub.dropped.Load())
	mw.Gauge("datacron_compression_ratio", "Decoded-past-gate : stored.", s.p.Stats.CompressionRatio())
	mw.Gauge("datacron_ingest_pending", "Lines accepted but not yet fully processed.", float64(s.ing.Pending()))
	mw.Gauge("datacron_event_subscribers", "Live /events connections.", float64(s.hub.subscribers()))
	mw.Gauge("datacron_store_triples", "Store volume across all tiers.", float64(s.p.Store.Len()))
	mw.Gauge("datacron_dict_terms", "Distinct terms interned in the shared dictionary.", float64(s.p.Store.Dict().Len()))

	// Stream time: the watermark is the newest event timestamp any line
	// carried; the lag is wall clock minus watermark (large while replaying
	// history — that is the point); idle is how long ingest has been silent.
	now := time.Now()
	mw.Gauge("datacron_stream_watermark_ms", "Stream-time watermark: newest event timestamp observed (unix ms).", float64(s.p.Watermark.StreamMS()))
	mw.Gauge("datacron_ingest_lag_seconds", "Wall clock minus the stream-time watermark.", float64(s.p.Watermark.LagMS(now))/1000)
	mw.Gauge("datacron_ingest_idle_seconds", "Seconds since the last ingested line.", float64(s.p.Watermark.IdleMS(now))/1000)

	// Per-stage latency from the sampled tracer, the one ingest clock; the
	// "line" stage is the end-to-end per-line latency.
	if tr := s.p.Tracer; tr != nil {
		stageVec := mw.Vec("gauge", "datacron_stage_latency_seconds",
			"Sampled per-stage pipeline latency quantiles (see /debug/trace).")
		for _, st := range obs.Stages() {
			addQuantiles(stageVec, tr.StageHist(st), "stage", st.String())
		}
		mw.Counter("datacron_trace_sampled_total", "Ingest lines traced by the sampler.", tr.Sampled())
	}

	// Tiered storage: head vs sealed volume, live segments, and the
	// lifetime seal/retention counters operators watch to confirm that a
	// retention window actually bounds memory.
	tiers := s.p.Store.TierStats()
	mw.Gauge("datacron_store_segments", "Live sealed segments across shards.", float64(tiers.Segments))
	mw.Gauge("datacron_store_head_triples", "Store volume in mutable heads.", float64(tiers.HeadTriples))
	mw.Gauge("datacron_store_sealed_triples", "Store volume in sealed segments.", float64(tiers.SealedTriples))
	mw.Gauge("datacron_store_global_triples", "Store volume in the never-retained global tier.", float64(tiers.GlobalTriples))
	mw.Gauge("datacron_store_max_anchor_ts", "The stream clock (newest anchor timestamp) retention measures against.", float64(s.p.Store.MaxAnchorTS()))
	mw.Counter("datacron_store_seals_total", "Heads sealed into segments since start.", tiers.Seals)
	mw.Counter("datacron_store_segments_dropped_total", "Segments aged out by retention.", tiers.SegmentsDropped)
	mw.Counter("datacron_store_triples_dropped_total", "Triples aged out by retention.", tiers.TriplesDropped)

	// Online forecasting: warm-state volume, learned-model volume and the
	// SSE forecast fan-out (only when the hub is running).
	if fh := s.p.ForecastHub; fh != nil {
		routeCells, knnPoints := fh.ModelStats()
		mw.Counter("datacron_forecast_observed_total", "Gated reports consumed by the forecast hub.", fh.Observed())
		mw.Counter("datacron_forecast_sse_published_total", "forecast SSE frames published by the ticker.", s.forecastPublished.Load())
		mw.Gauge("datacron_forecast_entities", "Entities with warm forecast history.", float64(fh.Entities()))
		mw.Gauge("datacron_forecast_route_trained_cells", "Route-network cells with learned traffic.", float64(routeCells))
		mw.Gauge("datacron_forecast_knn_indexed_points", "Stream-fed KNN index size.", float64(knnPoints))
	}

	// Trajectory synopses: the raw-vs-critical volume reduction, per-kind
	// detection counters and the SSE fan-out (only when the hub is
	// running).
	if sh := s.p.SynopsisHub; sh != nil {
		st := sh.Stats()
		mw.Counter("datacron_synopses_observed_total", "Gated reports consumed by the synopsis hub.", st.Observed)
		mw.Counter("datacron_synopses_critical_total", "Critical points detected (lifetime).", st.Critical)
		mw.Counter("datacron_synopses_sse_published_total", "synopsis SSE frames published, one per critical point.", s.hub.synopses.Load())
		mw.Gauge("datacron_synopses_entities", "Entities with synopsis state.", float64(st.Entities))
		mw.Gauge("datacron_synopses_compression_ratio", "Observed : critical — the volume-reduction scoreboard.", st.Ratio())
		kindVec := mw.Vec("counter", "datacron_synopses_critical_kind_total", "Critical points by kind.")
		for k, n := range st.ByKind {
			kindVec.Add(float64(n), "kind", synopses.Kind(k).String())
		}
	}

	// Durability: WAL position, snapshot progress and what the boot-time
	// recovery replayed or had to skip.
	if s.wal != nil {
		mw.Gauge("datacron_wal_appended_lsn", "Last assigned log sequence number.", float64(s.wal.Appended()))
		mw.Gauge("datacron_wal_durable_lsn", "Last group-committed LSN.", float64(s.wal.Durable()))
		mw.Gauge("datacron_wal_segments", "WAL segment files on disk.", float64(s.wal.Segments()))
	}
	mw.Counter("datacron_snapshots_total", "Snapshots taken this process.", s.snapshots.Load())
	mw.Gauge("datacron_snapshot_last_lsn", "Cut LSN of the last snapshot.", float64(s.lastSnapshotLSN.Load()))
	if rec := s.cfg.Recovery; rec != nil {
		mw.Counter("datacron_recovery_replayed_total", "Lines replayed from the WAL tail at boot.", rec.Replayed)
		mw.Counter("datacron_recovery_skipped_applied_total", "Scanned records already covered by snapshot offsets.", rec.SkippedApplied)
		mw.Counter("datacron_recovery_events_total", "Events re-detected during replay.", rec.Events)
		mw.Gauge("datacron_recovery_snapshot_lsn", "Cut of the snapshot recovery loaded (0 = none).", float64(rec.SnapshotLSN))
		mw.Gauge("datacron_recovery_tail_truncated_bytes", "Torn tail dropped at boot (normal after kill -9).", float64(rec.TailTruncatedBytes))
		mw.Gauge("datacron_recovery_skipped_bytes", "Bytes skipped past mid-log corruption.", float64(rec.SkippedBytes))
		corrupt := 0.0
		if rec.CorruptStopped {
			corrupt = 1
		}
		mw.Gauge("datacron_recovery_corrupt_stopped", "1 when mid-log corruption stopped replay early. Alert on this.", corrupt)
	}

	queueVec := mw.Vec("gauge", "datacron_ingest_queue_depth", "Per-worker ingest queue depth.")
	for i, d := range s.ing.QueueDepths() {
		queueVec.Add(float64(d), "worker", strconv.Itoa(i))
	}
	shardVec := mw.Vec("gauge", "datacron_shard_load", "Triples per store shard.")
	for i, l := range s.p.Store.ShardLoads() {
		shardVec.Add(float64(l), "shard", strconv.Itoa(i))
	}

	// HTTP serving: request/error counts and latency quantiles per
	// endpoint, from the route wrapper.
	reqVec := mw.Vec("counter", "datacron_http_requests_total", "Requests per endpoint.")
	errVec := mw.Vec("counter", "datacron_http_errors_total", "5xx responses per endpoint.")
	latVec := mw.Vec("gauge", "datacron_http_request_latency_seconds", "Per-endpoint request latency quantiles.")
	s.endpoints.Each(func(label string, e *obs.Endpoint) {
		reqVec.Add(float64(e.Requests.Load()), "path", label)
		errVec.Add(float64(e.Errors.Load()), "path", label)
		addQuantiles(latVec, e.Latency, "path", label)
	})
	if s.slowLog != nil {
		mw.Counter("datacron_slow_queries_total", "Queries over the slow-query threshold (see /debug/slowlog).", s.slowLog.Fired())
	}
	if s.p.Engine != nil {
		hits, misses, entries := s.p.Engine.PlanCacheStats()
		mw.Counter("datacron_query_plan_cache_hits", "Queries answered with a cached plan (canonicalized-text key).", hits)
		mw.Counter("datacron_query_plan_cache_misses", "Queries that had to be parsed and planned fresh.", misses)
		mw.Gauge("datacron_query_plan_cache_entries", "Plans currently held in the bounded LRU plan cache.", float64(entries))
	}
	if s.cfg.ExtraMetrics != nil {
		s.cfg.ExtraMetrics(mw)
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	_, _ = w.Write([]byte(mw.String()))
}
