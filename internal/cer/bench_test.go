package cer

import (
	"runtime"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
)

// denseWorld is the benchmark's dense fleet: a thousand vessels at the
// default 10 s reporting interval, never repeating.
func denseWorld(d time.Duration) *synth.Scenario {
	return synth.GenMaritime(synth.MaritimeConfig{Seed: 1, Vessels: 1000, Duration: d})
}

var sinkEvents []model.Event

// BenchmarkSuiteDense is the CER layer's micro-evidence: one op is a fresh
// MaritimeSuite over five minutes of the dense world, reported per position.
func BenchmarkSuiteDense(b *testing.B) {
	sc := denseWorld(5 * time.Minute)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite := NewMaritimeSuite(sc.Box, sc.Areas)
		for _, p := range sc.Positions {
			sinkEvents = suite.Process(p)
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(b.N * len(sc.Positions))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/pos")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/pos")
	b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/n, "B/pos")
}

func BenchmarkCERProcess(b *testing.B) {
	sc := synth.GenMaritime(synth.MaritimeConfig{Seed: 5, Vessels: 50, Duration: 30 * time.Minute})
	suite := NewMaritimeSuite(sc.Box, sc.Areas)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		suite.Process(sc.Positions[i%len(sc.Positions)])
	}
}
