// Package obs is the observability layer of the serving daemon: sampled
// end-to-end stage tracing over the ingest pipeline (Tracer), structured
// component-tagged logging (NewLogger), latency percentiles over a
// bounded reservoir (LatencyHist), HTTP request identity and
// per-endpoint latency accounting (RequestID, EndpointStats), a slow-query
// log with attached plan facts (SlowLog), readiness gating for load
// balancers (Readiness), stream-time watermarking so operators can see the
// daemon fall behind its sources (Watermark), and a Prometheus text-format
// writer that enforces exposition hygiene (MetricsWriter).
//
// Everything here is designed for the hot path it observes: tracing is
// sampled (one atomic increment per unsampled line), the watermark is two
// atomics, latency histograms are bounded reservoirs (LatencyHist), and
// every collector is bounded — nothing in this package grows with uptime.
//
// See DESIGN.md §12 for the architecture and OPERATIONS.md "Observability"
// for the operator surface.
package obs

import (
	"sync/atomic"
	"time"
)

// Version identifies the build in datacron_build_info and log headers.
// Override at link time:
//
//	go build -ldflags "-X github.com/datacron-project/datacron/internal/obs.Version=v1.2.3"
var Version = "dev"

// Watermark tracks stream time against wall-clock time: the maximum event
// timestamp observed across all ingested lines (the stream-time watermark)
// and when the last line arrived. The ingest lag — wall clock minus
// watermark — is the operator's "is the daemon falling behind its sources"
// gauge: on a live feed it hovers near the end-to-end delivery delay, and
// climbs when ingest stalls while sources keep emitting.
//
// All methods are safe for concurrent use from every ingest worker; a Note
// is two atomic operations.
type Watermark struct {
	streamMS atomic.Int64 // max observed event-time (unix ms); 0 = nothing yet
	wallMS   atomic.Int64 // wall-clock (unix ms) of the last Note
}

// Note records the newest event timestamp (unix ms) of what was just
// ingested — a line, or a drained batch — at one wall-clock read.
func (w *Watermark) Note(tsMS int64) {
	for {
		cur := w.streamMS.Load()
		if tsMS <= cur {
			break
		}
		if w.streamMS.CompareAndSwap(cur, tsMS) {
			break
		}
	}
	w.wallMS.Store(time.Now().UnixMilli())
}

// StreamMS returns the stream-time watermark (unix ms), 0 before any Note.
func (w *Watermark) StreamMS() int64 { return w.streamMS.Load() }

// LagMS returns wall-clock now minus the watermark, or 0 before any Note.
// Replaying historical data legitimately shows a large lag — the gauge
// measures event time, not processing health (see IdleMS for the latter).
func (w *Watermark) LagMS(now time.Time) int64 {
	wm := w.streamMS.Load()
	if wm == 0 {
		return 0
	}
	return now.UnixMilli() - wm
}

// IdleMS returns wall-clock now minus the last Note's wall-clock time, or 0
// before any Note: how long the ingest path has been silent.
func (w *Watermark) IdleMS(now time.Time) int64 {
	last := w.wallMS.Load()
	if last == 0 {
		return 0
	}
	return now.UnixMilli() - last
}
