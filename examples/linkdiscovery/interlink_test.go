package main

import (
	"fmt"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/synth"
)

func TestNormalize(t *testing.T) {
	tests := []struct{ in, want string }{
		{"Blue Star 1", "BLUE STAR 1"},
		{"BLUE-STAR-1", "BLUE STAR 1"},
		{"  M/V  Blue   Star ", "M V BLUE STAR"},
		{"", ""},
		{"---", ""},
	}
	for _, tc := range tests {
		if got := normalize(tc.in); got != tc.want {
			t.Errorf("normalize(%q) = %q, want %q", tc.in, got, tc.want)
		}
	}
}

func TestNameSimilarity(t *testing.T) {
	if s := nameSimilarity("BLUE STAR", "BLUE STAR"); s != 1 {
		t.Errorf("identical names = %f", s)
	}
	if s := nameSimilarity("BLUE STAR", "BLUE-STAR"); s != 1 {
		t.Errorf("punctuation variant = %f", s)
	}
	sim := nameSimilarity("AEGEAN CARGO 12", "AEGEAN CARG0 12") // typo
	if sim < 0.5 || sim >= 1 {
		t.Errorf("typo variant = %f", sim)
	}
	if s := nameSimilarity("BLUE STAR", "XXXXXX"); s > 0.1 {
		t.Errorf("unrelated names = %f", s)
	}
	if s := nameSimilarity("", ""); s != 0 {
		t.Errorf("empty names = %f", s)
	}
}

func TestJaccard(t *testing.T) {
	a := map[string]struct{}{"x": {}, "y": {}}
	b := map[string]struct{}{"y": {}, "z": {}}
	if j := jaccard(a, b); j != 1.0/3.0 {
		t.Errorf("jaccard = %f", j)
	}
	if jaccard(nil, nil) != 0 {
		t.Error("empty sets")
	}
}

func regs(names ...string) []nameRecord {
	out := make([]nameRecord, len(names))
	for i, n := range names {
		out[i] = nameRecord{ID: fmt.Sprintf("a%d", i), Name: n}
	}
	return out
}

func TestMatchNaiveFindsBestMatch(t *testing.T) {
	a := regs("BLUE STAR", "RED MOON")
	b := []nameRecord{
		{ID: "b0", Name: "BLUE-STAR"},
		{ID: "b1", Name: "RED MOON II"},
		{ID: "b2", Name: "GREEN SUN"},
	}
	links := matchNaive(a, b, matchConfig{Threshold: 0.3})
	if len(links) != 2 {
		t.Fatalf("links = %v", links)
	}
	if links[0].B != "b0" || links[1].B != "b1" {
		t.Errorf("wrong matches: %v", links)
	}
}

func TestMatchThresholdSuppressesWeakLinks(t *testing.T) {
	a := regs("ALPHA")
	b := []nameRecord{{ID: "b0", Name: "OMEGA ZZZ"}}
	if links := matchNaive(a, b, matchConfig{Threshold: 0.5}); len(links) != 0 {
		t.Errorf("weak link kept: %v", links)
	}
}

func TestLengthBonusBreaksTies(t *testing.T) {
	a := []nameRecord{{ID: "a0", Name: "STAR", LengthM: 100}}
	b := []nameRecord{
		{ID: "short", Name: "STAR", LengthM: 30},
		{ID: "match", Name: "STAR", LengthM: 101},
	}
	links := matchNaive(a, b, matchConfig{Threshold: 0.5})
	if len(links) != 1 || links[0].B != "match" {
		t.Errorf("length bonus did not break tie: %v", links)
	}
}

// Naive and token-blocked matching against a noisy registry: naive is
// accurate, blocking loses little. The link discovery claim ("link
// discovery techniques for automatically computing associations", §2)
// adds a 150-vessel fleet against a registry with 0.5 name noise, where
// both matchers keep F1 ≥ 0.75: on the world the claim was first measured
// on (fleet seed 105, registry seed 7) and three held-out seed pairs.
func TestMatchBlockedAgreesWithNaive(t *testing.T) {
	type world struct {
		seed, regSeed int64
		vessels       int
		noise         float64
	}
	worlds := []world{{31, 7, 30, 0.4}}
	for _, off := range []int64{0, 1000, 2000, 3000} {
		worlds = append(worlds, world{105 + off, 7 + off, 150, 0.5})
	}
	for _, w := range worlds {
		t.Run(fmt.Sprintf("seed %d", w.seed), func(t *testing.T) {
			sc := synth.GenMaritime(synth.MaritimeConfig{Seed: w.seed, Vessels: w.vessels, Duration: 10 * time.Minute})
			var a, b []nameRecord
			truth := groundTruth{}
			for _, e := range sc.Entities {
				a = append(a, nameRecord{ID: e.ID, Name: e.Name, LengthM: e.LengthM})
			}
			for _, r := range synth.GenRegistry(sc, w.regSeed, w.noise) {
				b = append(b, nameRecord{ID: r.RegID, Name: r.Name, LengthM: r.LengthM})
				truth[r.TruthID] = r.RegID
			}
			pn, rn, fn := score(matchNaive(a, b, matchConfig{}), truth)
			pb, rb, fb := score(matchBlocked(a, b, matchConfig{}), truth)
			t.Logf("seed %d: naive P %.3f R %.3f F1 %.3f, blocked P %.3f R %.3f F1 %.3f", w.seed, pn, rn, fn, pb, rb, fb)
			if rn < 0.8 {
				t.Errorf("seed %d: naive recall %f too low on mild noise", w.seed, rn)
			}
			if pn < 0.8 {
				t.Errorf("seed %d: naive precision %f too low", w.seed, pn)
			}
			// Blocking may lose a little recall but must stay close.
			if rb < rn-0.15 {
				t.Errorf("seed %d: blocked recall %f much worse than naive %f", w.seed, rb, rn)
			}
			if pb < pn-0.1 {
				t.Errorf("seed %d: blocked precision %f much worse than naive %f", w.seed, pb, pn)
			}
			if fn < 0.75 || fb < 0.75 {
				t.Errorf("seed %d: F1 %.3f naive, %.3f blocked; want both ≥ 0.75", w.seed, fn, fb)
			}
		})
	}
}

func TestMatchParallelismDeterministic(t *testing.T) {
	a := regs("ALPHA ONE", "BETA TWO", "GAMMA THREE", "DELTA FOUR")
	b := []nameRecord{
		{ID: "b0", Name: "ALPHA-ONE"}, {ID: "b1", Name: "BETA 2"},
		{ID: "b2", Name: "GAMMA THREE"}, {ID: "b3", Name: "DELTA IV"},
	}
	l1 := matchNaive(a, b, matchConfig{Threshold: 0.2, Parallelism: 1})
	l8 := matchNaive(a, b, matchConfig{Threshold: 0.2, Parallelism: 8})
	if len(l1) != len(l8) {
		t.Fatalf("parallelism changed result count: %d vs %d", len(l1), len(l8))
	}
	for i := range l1 {
		if l1[i] != l8[i] {
			t.Errorf("link %d differs: %v vs %v", i, l1[i], l8[i])
		}
	}
}

func TestScore(t *testing.T) {
	truth := groundTruth{"a0": "b0", "a1": "b1"}
	links := []link{{A: "a0", B: "b0"}, {A: "a1", B: "bX"}}
	p, r, f1 := score(links, truth)
	if p != 0.5 || r != 0.5 {
		t.Errorf("p=%f r=%f", p, r)
	}
	if f1 != 0.5 {
		t.Errorf("f1=%f", f1)
	}
	if p, r, _ := score(nil, truth); p != 0 || r != 0 {
		t.Error("empty links")
	}
	if p, r, _ := score(links, nil); p != 0 || r != 0 {
		t.Error("empty truth")
	}
}

func TestLinkSpatial(t *testing.T) {
	box := geo.NewBBox(22, 34, 30, 42)
	// Positions and weather cells: each position links to nearest cell.
	a := []spatialRecord{
		{ID: "p0", Pt: geo.Pt(23.1, 37.1), TS: 1000},
		{ID: "p1", Pt: geo.Pt(25.0, 38.0), TS: 1000},
		{ID: "far", Pt: geo.Pt(29.9, 41.9), TS: 1000},
	}
	b := []spatialRecord{
		{ID: "w0", Pt: geo.Pt(23.12, 37.08), TS: 500},
		{ID: "w1", Pt: geo.Pt(25.05, 38.02), TS: 500},
	}
	links := linkSpatial(a, b, box, spatialLinkConfig{MaxDistM: 15_000})
	if len(links) != 2 {
		t.Fatalf("links = %v", links)
	}
	if links[0].A != "p0" || links[0].B != "w0" {
		t.Errorf("p0 link = %v", links[0])
	}
	if links[1].A != "p1" || links[1].B != "w1" {
		t.Errorf("p1 link = %v", links[1])
	}
}

func TestLinkSpatialTemporalCutoff(t *testing.T) {
	box := geo.NewBBox(22, 34, 30, 42)
	a := []spatialRecord{{ID: "p0", Pt: geo.Pt(23, 37), TS: 0}}
	b := []spatialRecord{{ID: "w0", Pt: geo.Pt(23, 37), TS: 10 * 3600_000}} // 10h later
	if links := linkSpatial(a, b, box, spatialLinkConfig{}); len(links) != 0 {
		t.Errorf("stale observation linked: %v", links)
	}
}

func TestLinkSpatialWithWeatherGrid(t *testing.T) {
	box := geo.NewBBox(22, 34, 30, 42)
	obs := synth.GenWeather(box, 8, 8, time.Date(2017, 3, 21, 6, 0, 0, 0, time.UTC), time.Hour)
	var b []spatialRecord
	for i, w := range obs {
		b = append(b, spatialRecord{ID: fmt.Sprintf("w%d", i), Pt: w.Center, TS: w.TS})
	}
	a := []spatialRecord{{ID: "p0", Pt: geo.Pt(24.6, 36.9), TS: obs[0].TS + 60_000}}
	links := linkSpatial(a, b, box, spatialLinkConfig{MaxDistM: 80_000})
	if len(links) != 1 {
		t.Fatalf("links = %v", links)
	}
	// The linked cell must actually be the nearest one.
	var bestID string
	bestD := 1e18
	for i, w := range obs {
		dt := a[0].TS - w.TS
		if dt < 0 {
			dt = -dt
		}
		if dt > 30*60000 {
			continue
		}
		if d := geo.Haversine(a[0].Pt, w.Center); d < bestD {
			bestD = d
			bestID = fmt.Sprintf("w%d", i)
		}
	}
	if links[0].B != bestID {
		t.Errorf("linked %s, nearest is %s", links[0].B, bestID)
	}
}
