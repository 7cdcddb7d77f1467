package obs

import (
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"time"
)

// maxLatencySamples bounds the histogram's reservoir. Batch runs
// (≤ millions of samples) fit comfortably; the long-running serving daemon
// observes on every ingested line, so memory must not grow with uptime.
const maxLatencySamples = 1 << 16

// LatencyHist collects latency samples and reports percentiles. Up to
// maxLatencySamples raw samples are kept, so percentiles are exact at
// experiment scales; beyond that, reservoir sampling (Algorithm R) keeps a
// uniform sample of the whole stream, bounding memory for long-running
// servers. The sorted view is cached and invalidated on Observe, so
// reading several percentiles (p50/p95/p99) sorts once.
type LatencyHist struct {
	mu      sync.Mutex
	samples []time.Duration
	sorted  bool
	n       int64 // total observations, ≥ len(samples)
	rng     *rand.Rand
}

// NewLatencyHist returns an empty histogram.
func NewLatencyHist() *LatencyHist {
	return &LatencyHist{rng: rand.New(rand.NewSource(1))}
}

// Observe records one latency sample.
func (h *LatencyHist) Observe(d time.Duration) {
	h.mu.Lock()
	h.n++
	if len(h.samples) < maxLatencySamples {
		h.samples = append(h.samples, d)
		h.sorted = false
	} else if j := h.rng.Int63n(h.n); j < int64(len(h.samples)) {
		h.samples[j] = d
		h.sorted = false
	}
	h.mu.Unlock()
}

// Count returns the number of observations (not the reservoir size).
func (h *LatencyHist) Count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return int(h.n)
}

// Samples returns the reservoir size: min(Count, maxLatencySamples). It
// is the memory-bound invariant long-running servers rely on.
func (h *LatencyHist) Samples() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.samples)
}

// Percentile returns the p-th percentile (0..100) latency, or 0 with no
// samples.
func (h *LatencyHist) Percentile(p float64) time.Duration {
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.samples) == 0 {
		return 0
	}
	if !h.sorted {
		sort.Slice(h.samples, func(i, j int) bool { return h.samples[i] < h.samples[j] })
		h.sorted = true
	}
	idx := int(p / 100 * float64(len(h.samples)-1))
	if idx < 0 {
		idx = 0
	}
	if idx >= len(h.samples) {
		idx = len(h.samples) - 1
	}
	return h.samples[idx]
}

// Summary renders p50/p95/p99 for reports.
func (h *LatencyHist) Summary() string {
	return fmt.Sprintf("p50=%v p95=%v p99=%v (n=%d)",
		h.Percentile(50), h.Percentile(95), h.Percentile(99), h.Count())
}
