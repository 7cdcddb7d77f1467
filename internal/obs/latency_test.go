package obs

import (
	"math"
	"testing"
	"time"
)

// TestLatencyHistReservoirSpill drives the histogram far past the 64k
// reservoir bound and checks the two properties long-running servers rely
// on: memory stays capped, and quantiles remain accurate estimates of the
// full stream (Algorithm R keeps a uniform sample).
func TestLatencyHistReservoirSpill(t *testing.T) {
	h := NewLatencyHist()
	const n = 1_000_000
	// Uniform 1µs..1s ramp: the true p-quantile is p/100 * n µs.
	for i := 1; i <= n; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}

	if got := h.Count(); got != n {
		t.Errorf("Count = %d, want %d", got, n)
	}
	if got := h.Samples(); got != maxLatencySamples {
		t.Errorf("Samples = %d, want exactly %d (reservoir must stay capped)", got, maxLatencySamples)
	}

	// Quantile accuracy: the reservoir's standard error at 64k samples is
	// ~sqrt(p(1-p)/64k) < 0.2pp, so a 2% relative tolerance is generous.
	for _, tc := range []struct{ p, want float64 }{
		{50, 0.50 * n}, {90, 0.90 * n}, {95, 0.95 * n}, {99, 0.99 * n},
	} {
		got := float64(h.Percentile(tc.p).Microseconds())
		if math.Abs(got-tc.want)/tc.want > 0.02 {
			t.Errorf("p%g = %.0fµs, want %.0fµs ±2%%", tc.p, got, tc.want)
		}
	}
	// Quantiles are monotone and bounded by the observed range.
	p50, p95, p99 := h.Percentile(50), h.Percentile(95), h.Percentile(99)
	if !(p50 <= p95 && p95 <= p99) {
		t.Errorf("quantiles not monotone: p50=%v p95=%v p99=%v", p50, p95, p99)
	}
	if lo, hi := h.Percentile(0), h.Percentile(100); lo < time.Microsecond || hi > n*time.Microsecond {
		t.Errorf("extremes out of range: p0=%v p100=%v", lo, hi)
	}

	// Observations after a Percentile call (which sorts the reservoir in
	// place) must keep the reservoir capped and the quantiles sane — the
	// sort/replace interleaving is the long-uptime steady state.
	for i := 1; i <= 100_000; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if got := h.Samples(); got != maxLatencySamples {
		t.Errorf("Samples after interleaved sort = %d, want %d", got, maxLatencySamples)
	}
	if got := h.Count(); got != n+100_000 {
		t.Errorf("Count = %d, want %d", got, n+100_000)
	}
	if p50b := h.Percentile(50); p50b > p50 {
		// The second ramp only adds values ≤ 100ms, so the median must
		// not increase.
		t.Errorf("median rose after low-valued tail: %v > %v", p50b, p50)
	}
}

// TestLatencyHistPercentileBounds pins the index arithmetic at the
// percentile boundaries: p=0 is the minimum, p=100 the maximum (never an
// out-of-range index), a single sample answers every percentile, and no
// samples answer 0.
func TestLatencyHistPercentileBounds(t *testing.T) {
	empty := NewLatencyHist()
	for _, p := range []float64{0, 50, 100} {
		if got := empty.Percentile(p); got != 0 {
			t.Errorf("empty p%g = %v, want 0", p, got)
		}
	}

	single := NewLatencyHist()
	single.Observe(7 * time.Millisecond)
	for _, p := range []float64{0, 1, 50, 99, 100} {
		if got := single.Percentile(p); got != 7*time.Millisecond {
			t.Errorf("single-sample p%g = %v, want 7ms", p, got)
		}
	}

	h := NewLatencyHist()
	for i := 1; i <= 10; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Percentile(0); got != time.Millisecond {
		t.Errorf("p0 = %v, want the minimum 1ms", got)
	}
	if got := h.Percentile(100); got != 10*time.Millisecond {
		t.Errorf("p100 = %v, want the maximum 10ms", got)
	}
	// Out-of-domain p values clamp instead of indexing out of range.
	if got := h.Percentile(-5); got != time.Millisecond {
		t.Errorf("p-5 = %v, want clamp to minimum", got)
	}
	if got := h.Percentile(250); got != 10*time.Millisecond {
		t.Errorf("p250 = %v, want clamp to maximum", got)
	}
}

// TestLatencyHistJustPastCap drives the reservoir exactly one sample past
// maxLatencySamples — the first Observe that takes the replacement path —
// and checks the transition invariants: the reservoir stays capped, the
// total count keeps advancing, and every percentile still answers a value
// that was actually observed.
func TestLatencyHistJustPastCap(t *testing.T) {
	h := NewLatencyHist()
	for i := 1; i <= maxLatencySamples; i++ {
		h.Observe(time.Duration(i) * time.Microsecond)
	}
	if got := h.Samples(); got != maxLatencySamples {
		t.Fatalf("at the cap: Samples = %d, want %d", got, maxLatencySamples)
	}
	if got := h.Percentile(100); got != maxLatencySamples*time.Microsecond {
		t.Errorf("exact p100 at the cap = %v, want %v", got, maxLatencySamples*time.Microsecond)
	}

	h.Observe((maxLatencySamples + 1) * time.Microsecond)
	if got := h.Samples(); got != maxLatencySamples {
		t.Errorf("one past the cap: Samples = %d, want %d (reservoir must not grow)", got, maxLatencySamples)
	}
	if got := h.Count(); got != maxLatencySamples+1 {
		t.Errorf("one past the cap: Count = %d, want %d", got, maxLatencySamples+1)
	}
	// Whether or not the new sample displaced one, every percentile must
	// come from the observed range and stay monotone.
	lo, hi := h.Percentile(0), h.Percentile(100)
	if lo < time.Microsecond || hi > (maxLatencySamples+1)*time.Microsecond {
		t.Errorf("extremes out of observed range: p0=%v p100=%v", lo, hi)
	}
	if p50 := h.Percentile(50); p50 < lo || p50 > hi {
		t.Errorf("p50=%v outside [p0=%v, p100=%v]", p50, lo, hi)
	}

	// A short burst past the cap keeps the same invariants (several
	// replacement-path iterations, not just the first).
	for i := 0; i < 1000; i++ {
		h.Observe(time.Duration(i%100+1) * time.Microsecond)
	}
	if got := h.Samples(); got != maxLatencySamples {
		t.Errorf("burst past the cap: Samples = %d, want %d", got, maxLatencySamples)
	}
	if got := h.Count(); got != maxLatencySamples+1001 {
		t.Errorf("burst past the cap: Count = %d, want %d", got, maxLatencySamples+1001)
	}
}

// TestLatencyHistSmall keeps exactness below the reservoir bound.
func TestLatencyHistSmall(t *testing.T) {
	h := NewLatencyHist()
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if got := h.Samples(); got != 100 {
		t.Errorf("Samples = %d, want 100 (no sampling below the cap)", got)
	}
	if got := h.Percentile(50); got != 50*time.Millisecond && got != 51*time.Millisecond {
		t.Errorf("exact p50 = %v", got)
	}
	if got := h.Percentile(100); got != 100*time.Millisecond {
		t.Errorf("exact p100 = %v, want 100ms", got)
	}
}

func TestLatencyHist(t *testing.T) {
	h := NewLatencyHist()
	if h.Percentile(50) != 0 {
		t.Error("empty hist percentile should be 0")
	}
	for i := 1; i <= 100; i++ {
		h.Observe(time.Duration(i) * time.Millisecond)
	}
	if p := h.Percentile(50); p < 49*time.Millisecond || p > 52*time.Millisecond {
		t.Errorf("p50 = %v", p)
	}
	if p := h.Percentile(99); p < 98*time.Millisecond {
		t.Errorf("p99 = %v", p)
	}
	if h.Percentile(0) > h.Percentile(100) {
		t.Error("percentile ordering")
	}
	if h.Summary() == "" {
		t.Error("empty summary")
	}
}
