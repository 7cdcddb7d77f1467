package obs

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// PlanStage is one operator of a physical query plan, in execution order
// (scan first, limit last). Rows is the operator's output cardinality; -1
// means the plan was rendered without executing (EXPLAIN). US is the
// operator's self time in microseconds — its own work, the operators below
// it excluded — and is absent from a plan that was not executed.
type PlanStage struct {
	Op     string `json:"op"`
	Detail string `json:"detail,omitempty"`
	Rows   int    `json:"rows"`
	US     int64  `json:"us,omitempty"`
}

// FormatPlanStages renders a physical plan as the one-operator-per-line
// chain shared by the slow-query log and `datacron-query -explain`.
func FormatPlanStages(stages []PlanStage) string {
	var b strings.Builder
	for i, st := range stages {
		if i > 0 {
			b.WriteString("-> ")
		}
		b.WriteString(st.Op)
		if st.Detail != "" {
			b.WriteString("(" + st.Detail + ")")
		}
		if st.Rows >= 0 {
			fmt.Fprintf(&b, " rows=%d us=%d", st.Rows, st.US)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// SlowQuery is one slow-query log entry: the query together with the plan
// facts that explain where the time went — how many shards the planner
// visited vs pruned, and what the query returned.
type SlowQuery struct {
	// UnixMS is when the query finished.
	UnixMS int64 `json:"unixMs"`
	// RequestID correlates the entry with the HTTP request.
	RequestID string `json:"requestId,omitempty"`
	// Query is the (possibly truncated) query text.
	Query string `json:"query"`
	// DurationUS is the end-to-end evaluation time.
	DurationUS int64 `json:"durationUs"`
	// Rows is the result row count.
	Rows int `json:"rows"`
	// ShardsVisited / ShardsPruned split the store's shards by whether the
	// partitioner's bounds let the planner skip them.
	ShardsVisited int `json:"shardsVisited"`
	ShardsPruned  int `json:"shardsPruned"`
	// Plan is the executed physical operator chain with per-stage output
	// cardinalities, execution order (scan first).
	Plan []PlanStage `json:"plan,omitempty"`
	// CacheHit reports whether the plan came from the engine's plan cache.
	CacheHit bool `json:"cacheHit"`
}

// maxSlowQueryText bounds the retained query text per entry.
const maxSlowQueryText = 2048

// SlowLog keeps the most recent slow queries in a bounded ring and mirrors
// each to the structured log at WARN. Safe for concurrent use; a nil
// *SlowLog records nothing.
type SlowLog struct {
	threshold time.Duration
	logger    *slog.Logger
	fired     atomic.Int64

	mu      sync.Mutex
	ring    []SlowQuery
	next    int
	wrapped bool
}

// DefaultSlowQuery is the slow-query threshold when none is configured.
const DefaultSlowQuery = 500 * time.Millisecond

// NewSlowLog returns a slow-query log firing at the given threshold
// (DefaultSlowQuery when <= 0) and retaining size entries (default 256).
func NewSlowLog(threshold time.Duration, size int, logger *slog.Logger) *SlowLog {
	if threshold <= 0 {
		threshold = DefaultSlowQuery
	}
	if size <= 0 {
		size = 256
	}
	if logger == nil {
		logger = Discard()
	}
	return &SlowLog{threshold: threshold, logger: logger, ring: make([]SlowQuery, size)}
}

// Threshold returns the firing threshold.
func (l *SlowLog) Threshold() time.Duration {
	if l == nil {
		return 0
	}
	return l.threshold
}

// Fired returns how many queries have crossed the threshold.
func (l *SlowLog) Fired() int64 {
	if l == nil {
		return 0
	}
	return l.fired.Load()
}

// Observe records the query if it crossed the threshold and reports whether
// it did. The entry's query text is truncated to a bounded size.
func (l *SlowLog) Observe(q SlowQuery) bool {
	if l == nil || time.Duration(q.DurationUS)*time.Microsecond < l.threshold {
		return false
	}
	if len(q.Query) > maxSlowQueryText {
		q.Query = q.Query[:maxSlowQueryText] + "…"
	}
	if q.UnixMS == 0 {
		q.UnixMS = time.Now().UnixMilli()
	}
	l.fired.Add(1)
	l.mu.Lock()
	l.ring[l.next] = q
	l.next++
	if l.next == len(l.ring) {
		l.next = 0
		l.wrapped = true
	}
	l.mu.Unlock()
	l.logger.Warn("slow query",
		slog.String("requestId", q.RequestID),
		slog.Int64("durationUs", q.DurationUS),
		slog.Int("rows", q.Rows),
		slog.Int("shardsVisited", q.ShardsVisited),
		slog.Int("shardsPruned", q.ShardsPruned),
		slog.Bool("cacheHit", q.CacheHit),
		slog.String("plan", strings.TrimRight(strings.ReplaceAll(FormatPlanStages(q.Plan), "\n", " "), " ")),
		slog.String("query", q.Query),
	)
	return true
}

// SlowLogSnapshot is the /debug/slowlog payload.
type SlowLogSnapshot struct {
	// ThresholdMS is the firing threshold.
	ThresholdMS int64 `json:"thresholdMs"`
	// Fired counts queries over the threshold since process start (the
	// ring only retains the most recent).
	Fired int64 `json:"fired"`
	// Entries are the retained slow queries, oldest first.
	Entries []SlowQuery `json:"entries"`
}

// Snapshot copies the retained entries, oldest first. Nil-safe.
func (l *SlowLog) Snapshot() SlowLogSnapshot {
	if l == nil {
		return SlowLogSnapshot{Entries: []SlowQuery{}}
	}
	l.mu.Lock()
	entries := make([]SlowQuery, 0, len(l.ring))
	if l.wrapped {
		entries = append(entries, l.ring[l.next:]...)
	}
	entries = append(entries, l.ring[:l.next]...)
	l.mu.Unlock()
	return SlowLogSnapshot{
		ThresholdMS: l.threshold.Milliseconds(),
		Fired:       l.fired.Load(),
		Entries:     entries,
	}
}
