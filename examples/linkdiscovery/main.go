// Link discovery: the paper's data integration component (§2). Matches the
// AIS fleet against a noisy external vessel registry (identity links) and
// enriches position reports with the nearest contemporaneous weather cell
// (spatiotemporal links), comparing naive and blocked matching.
//
//	go run ./examples/linkdiscovery
package main

import (
	"fmt"
	"time"

	"github.com/datacron-project/datacron/internal/synth"
)

func main() {
	sc := synth.GenMaritime(synth.MaritimeConfig{Seed: 3, Vessels: 200, Duration: 30 * time.Minute})
	registry := synth.GenRegistry(sc, 99, 0.5)
	fmt.Printf("sources: %d AIS entities vs %d registry records (noisy names)\n",
		len(sc.Entities), len(registry))

	var a, b []nameRecord
	truth := groundTruth{}
	for _, e := range sc.Entities {
		a = append(a, nameRecord{ID: e.ID, Name: e.Name, LengthM: e.LengthM})
	}
	for _, r := range registry {
		b = append(b, nameRecord{ID: r.RegID, Name: r.Name, LengthM: r.LengthM})
		truth[r.TruthID] = r.RegID
	}

	for _, mode := range []struct {
		name  string
		match func([]nameRecord, []nameRecord, matchConfig) []link
	}{
		{"naive O(n*m)", matchNaive},
		{"token-blocked", matchBlocked},
	} {
		start := time.Now()
		links := mode.match(a, b, matchConfig{})
		p, r, f1 := score(links, truth)
		fmt.Printf("%-14s %6d links  precision=%.3f recall=%.3f f1=%.3f  in %v\n",
			mode.name, len(links), p, r, f1, time.Since(start))
	}

	// Enrichment: link a sample of positions to weather observations.
	weather := synth.GenWeather(sc.Box, 16, 12, time.UnixMilli(sc.Positions[0].TS).UTC(), time.Hour)
	var pos, wx []spatialRecord
	for i, p := range sc.Positions {
		if i%500 == 0 {
			pos = append(pos, spatialRecord{ID: fmt.Sprintf("pos-%d", i), Pt: p.Pt, TS: p.TS})
		}
	}
	for i, w := range weather {
		wx = append(wx, spatialRecord{ID: fmt.Sprintf("wx-%d", i), Pt: w.Center, TS: w.TS})
	}
	links := linkSpatial(pos, wx, sc.Box, spatialLinkConfig{MaxDistM: 50000})
	fmt.Printf("\nenrichment: %d/%d position samples linked to weather cells\n", len(links), len(pos))
	for i, l := range links {
		if i == 5 {
			break
		}
		fmt.Printf("  %s → %s (score %.2f)\n", l.A, l.B, l.Score)
	}
}
