package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0..1) of sorted by nearest rank.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(i, 0), len(sorted)-1)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median returns the middle value of xs (mean of the middle two when even).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

// tailSteps are the percentiles a report may quote, ascending, in per mille.
var tailSteps = []int{900, 950, 990, 999}

// tailPercentile picks the highest percentile of tailSteps that still has at
// least ten samples beyond it, so a quoted tail is never one outlier. With
// fewer than 100 samples no tail is supported and it returns 0.5.
func tailPercentile(n int) float64 {
	best := 0.5
	for _, pm := range tailSteps {
		if n*(1000-pm) >= 10*1000 {
			best = float64(pm) / 1000
		}
	}
	return best
}

// latencies collects one operation class's samples, in milliseconds.
type latencies struct{ ms []float64 }

func (l *latencies) add(d time.Duration) { l.ms = append(l.ms, float64(d)/float64(time.Millisecond)) }

func (l *latencies) n() int { return len(l.ms) }

// at returns the q-quantile in ms.
func (l *latencies) at(q float64) float64 { return quantile(sortedCopy(l.ms), q) }

// summary is what a report prints for one class: quartile, median, the
// supported tail and the sample count behind them.
type summary struct {
	N      int     `json:"n"`
	P25    float64 `json:"p25_ms"`
	P50    float64 `json:"p50_ms"`
	TailP  float64 `json:"tail_percentile"`
	TailMS float64 `json:"tail_ms"`
}

func (l *latencies) summarize() summary {
	s := sortedCopy(l.ms)
	p := tailPercentile(len(s))
	return summary{N: len(s), P25: quantile(s, 0.25), P50: quantile(s, 0.5), TailP: p, TailMS: quantile(s, p)}
}
