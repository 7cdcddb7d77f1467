package experiments

import (
	"fmt"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
)

// E12OnlineForecast measures the online forecasting subsystem (DESIGN.md
// §9) along its two acceptance axes:
//
//  1. Accuracy vs horizon of the serving-path forecasts: while the wire
//     stream is being ingested, the stream-fed ForecastHub (warm history +
//     incrementally-trained models — exactly what GET /forecast serves) is
//     sampled at checkpoints; every prediction is scored against ground
//     truth once the stream has caught up with its target instant.
//  2. Ingest cost of the tap: wall-clock pipeline throughput with the hub
//     on vs off over the identical wire stream.
func E12OnlineForecast(quick bool) *Table {
	vessels, dur := 40, 3*time.Hour
	if quick {
		vessels, dur = 15, time.Hour
	}
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 112, Vessels: vessels, Duration: dur, Rendezvous: -1,
	})
	t := &Table{
		ID:     "E12",
		Title:  "online forecasting: stream-fed accuracy vs horizon, and the ingest cost of the tap",
		Header: []string{"measure", "horizon", "mean error (m) / time", "samples / lines per sec"},
		Notes:  "forecasts sampled live at 10 stream checkpoints; hub fed by the ingest path itself",
	}

	// Throughput with the hub off.
	_, offLines, offTime := runForecastPipeline(sc, core.ForecastConfig{}, len(sc.WireTimed), nil)

	// Throughput with the hub on, sampling forecasts at checkpoints. The
	// sampling callback runs outside the timed region accounting (its cost
	// is subtracted), so the on/off comparison isolates the Observe tap.
	horizons := []time.Duration{5 * time.Minute, 10 * time.Minute, 20 * time.Minute}
	type sample struct {
		entity  string
		horizon int
		target  int64
		pt      geo.Point
	}
	var samples []sample
	checkEvery := len(sc.WireTimed) / 10
	if checkEvery == 0 {
		checkEvery = 1
	}
	var sampleTime time.Duration
	sampler := func(p *core.Pipeline) {
		s0 := time.Now()
		for hi, h := range horizons {
			all, err := p.ForecastHub.ForecastAll(h)
			if err != nil {
				continue
			}
			for _, f := range all {
				samples = append(samples, sample{entity: f.Entity, horizon: hi, target: f.TS, pt: f.Pt})
			}
		}
		sampleTime += time.Since(s0)
	}
	p, onLines, onTime := runForecastPipeline(sc, core.ForecastConfig{Enabled: true}, checkEvery, sampler)
	onTime -= sampleTime
	if p == nil || p.ForecastHub == nil {
		t.AddRow("error", "-", "pipeline without hub", "-")
		return t
	}

	// Score every sampled prediction whose target lies inside its entity's
	// recorded truth.
	errSum := make([]float64, len(horizons))
	n := make([]int, len(horizons))
	for _, s := range samples {
		tr := sc.Truth[s.entity]
		if tr == nil || s.target > tr.End() {
			continue
		}
		actual, ok := tr.At(s.target)
		if !ok || actual.SpeedMS <= 1 {
			continue // moored targets are trivial for every model
		}
		errSum[s.horizon] += geo.Dist3D(s.pt, actual.Pt)
		n[s.horizon]++
	}
	for hi, h := range horizons {
		mean := 0.0
		if n[hi] > 0 {
			mean = errSum[hi] / float64(n[hi])
		}
		t.AddRow("serving-path accuracy", h.String(), f0(mean), itoa(n[hi]))
	}

	t.AddRow("ingest, forecasting off", "-", offTime.Round(time.Millisecond).String(), rate(offLines, offTime))
	t.AddRow("ingest, forecasting on", "-", onTime.Round(time.Millisecond).String(), rate(onLines, onTime))
	if offTime > 0 {
		t.Notes += fmt.Sprintf("; tap overhead %.1f%%", 100*(float64(onTime)-float64(offTime))/float64(offTime))
	}
	routeCells, knnPts := p.ForecastHub.ModelStats()
	t.Notes += fmt.Sprintf("; models learned from the stream: %d route cells, %d knn points", routeCells, knnPts)
	return t
}

// runForecastPipeline ingests the scenario through a one-worker Ingestor
// with the given forecast config, invoking atCheck (when non-nil) after
// every checkEvery lines but the last.
func runForecastPipeline(sc *synth.Scenario, fc core.ForecastConfig, checkEvery int, atCheck func(*core.Pipeline)) (*core.Pipeline, int, time.Duration) {
	p := core.New(core.Config{Domain: model.Maritime, Forecast: fc})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	ing := p.NewIngestor(core.IngestorConfig{Workers: 1})
	defer ing.Close()
	start := time.Now()
	for lines := sc.WireTimed; len(lines) > 0; {
		n := min(checkEvery, len(lines))
		_ = ing.Feed(nil, lines[:n])
		if lines = lines[n:]; len(lines) > 0 && atCheck != nil {
			atCheck(p)
		}
	}
	return p, len(sc.WireTimed), time.Since(start)
}
