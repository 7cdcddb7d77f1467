package experiments

import (
	"fmt"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/hotspot"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
)

// E9Hotspots: "prediction of ... capacity demand, hot spots / paths" (§1).
// Aviation sector occupancy vs the scripted holding episode across
// congestion thresholds, plus maritime Gi* density hotspots.
func E9Hotspots(quick bool) *Table {
	flights, dur := 80, 3*time.Hour
	if quick {
		flights, dur = 30, 2*time.Hour
	}
	sc := synth.GenAviation(synth.AviationConfig{Seed: 110, Flights: flights, Duration: dur, HoldEpisodes: 2})
	grid := synth.SectorGrid()
	occ := hotspot.NewOccupancy((10 * time.Minute).Milliseconds())
	for _, p := range sc.Positions {
		occ.Observe(synth.SectorName(grid.CellID(p.Pt)), p.EntityID, p.TS)
	}
	truth := sc.EventsOfType("hotspot")

	t := &Table{
		ID:     "E9",
		Title:  "hotspot / capacity-demand detection",
		Header: []string{"detector", "param", "flagged", "precision", "recall"},
		Notes:  fmt.Sprintf("%d scripted holding episodes; occupancy windows of 10 min", len(truth)),
	}
	for _, threshold := range []int{6, 8, 10, 14} {
		evs := occ.CongestionEvents(threshold)
		p, r, _ := synth.ScoreDetections(truth, evs)
		t.AddRow("sector-occupancy", fmt.Sprintf("≥%d aircraft", threshold),
			fmt.Sprintf("%d", len(evs)), f2(p), f2(r))
	}

	// Maritime density hotspots over ports and lane crossings.
	mar := synth.GenMaritime(synth.MaritimeConfig{Seed: 111, Vessels: 80, Duration: 2 * time.Hour})
	dm := hotspot.NewDensityGrid(geo.NewGrid(mar.Box, 48, 48))
	for _, p := range mar.Positions {
		dm.AddWeighted(p.Pt, 1)
	}
	for _, z := range []float64{2, 3, 5} {
		spots := dm.Hotspots(z)
		t.AddRow("maritime-Gi*", fmt.Sprintf("z≥%g", z), fmt.Sprintf("%d", len(spots)), "-", "-")
	}
	return t
}

// E10EndToEnd: the "coherent Big Data solution" (§2) under "operational
// latency requirements (i.e. in ms)" (§4). Full wire-to-analytics pipeline
// for both domains: throughput, stage latencies, compression, detections,
// then a post-load query.
func E10EndToEnd(quick bool) *Table {
	t := &Table{
		ID:     "E10",
		Title:  "end-to-end pipeline latency budget (wire → RDF store → CER)",
		Header: []string{"domain", "lines", "lines/s", "p50", "p99", "store-p99", "cer-p99", "ratio", "events"},
		Notes:  "per-report wall latency across decode+gate+compress+transform+store+CER",
	}
	vessels, flights, dur := 150, 60, 2*time.Hour
	if quick {
		vessels, flights, dur = 30, 15, time.Hour
	}
	worlds := []struct {
		name string
		sc   *synth.Scenario
		cfg  core.Config
	}{
		{"maritime", synth.GenMaritime(synth.MaritimeConfig{Seed: 112, Vessels: vessels, Duration: dur, Rendezvous: 2, Loiterers: 2}), core.Config{Domain: model.Maritime}},
		{"aviation", synth.GenAviation(synth.AviationConfig{Seed: 112, Flights: flights, Duration: dur}), core.Config{Domain: model.Aviation}},
	}
	for _, w := range worlds {
		p := core.New(w.cfg)
		start := time.Now()
		p.InstallAreas(w.sc.Areas)
		p.InstallEntities(w.sc.Entities)
		detected := p.Ingest(w.sc.WireTimed)
		elapsed := time.Since(start)
		s := &p.Stats
		t.AddRow(w.name,
			fmt.Sprintf("%d", s.Lines),
			f0(float64(s.Lines)/elapsed.Seconds()),
			s.Latency.Percentile(50).Round(time.Microsecond).String(),
			s.Latency.Percentile(99).Round(time.Microsecond).String(),
			s.StoreLatency.Percentile(99).Round(time.Microsecond).String(),
			s.CERLatency.Percentile(99).Round(time.Microsecond).String(),
			f1(s.CompressionRatio()),
			fmt.Sprintf("%d", len(detected)))
	}
	return t
}
