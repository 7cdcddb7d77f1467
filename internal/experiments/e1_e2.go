package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/datacron-project/datacron/internal/cer"
	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/insitu"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
)

// e1Scenario builds the E1 world.
func e1Scenario(quick bool) *synth.Scenario {
	vessels, dur := 120, 3*time.Hour
	if quick {
		vessels, dur = 20, time.Hour
	}
	return synth.GenMaritime(synth.MaritimeConfig{
		Seed: 101, Vessels: vessels, Duration: dur,
		Rendezvous: 3, Loiterers: 3, GapProb: 1e-9, OutlierProb: 1e-9,
	})
}

// E1Compression: "high rates of data compression without affecting the
// quality of analytics" (§2). Sweeps the online threshold compressor and
// compares against SQUISH and the offline DP/TD-TR references: compression
// ratio, SED reconstruction error, and CER quality (loitering+rendezvous
// F1) on the compressed stream.
func E1Compression(quick bool) *Table {
	sc := e1Scenario(quick)
	byEntity := model.GroupByEntity(sc.Positions)
	truth := append(sc.EventsOfType("loitering"), sc.EventsOfType("rendezvous")...)

	t := &Table{
		ID:     "E1",
		Title:  `in-situ compression "without affecting the quality of analytics"`,
		Header: []string{"compressor", "ratio", "meanSED(m)", "maxSED(m)", "CER-F1", "CER-recall"},
		Notes:  "CER = loitering+rendezvous detection on the compressed stream vs scripted ground truth",
	}

	// Uncompressed baseline.
	f1Base, recBase := cerQuality(sc, sc.Positions, truth)
	t.AddRow("none", "1.0", "0.0", "0.0", f2(f1Base), f2(recBase))

	// Online threshold compressor at several deviation thresholds. The
	// heartbeat stays at 60s so pair analytics keep seeing both vessels.
	for _, distM := range []float64{25, 50, 100, 200, 400} {
		cfg := insitu.ThresholdConfig{DistM: distM, CourseDeg: 8, SpeedMS: 1, MaxGapMS: 60_000}
		var kept []model.Position
		filter := insitu.NewThresholdFilter(cfg)
		for _, p := range sc.Positions {
			if filter.Keep(p) {
				kept = append(kept, p)
			}
		}
		stats := compressionStats(byEntity, kept)
		f1c, rec := cerQuality(sc, kept, truth)
		t.AddRow(fmt.Sprintf("threshold(%gm)", distM),
			f1(insitu.Ratio(len(sc.Positions), len(kept))),
			f1(stats.MeanM), f0(stats.MaxM), f2(f1c), f2(rec))
	}

	// SQUISH with a per-trajectory budget of 10% of points.
	var squishAll []model.Position
	for _, tr := range byEntity {
		cap := tr.Len() / 10
		if cap < 8 {
			cap = 8
		}
		squishAll = append(squishAll, insitu.CompressSQUISH(tr.Points, cap)...)
	}
	sortByTS(squishAll)
	stats := compressionStats(byEntity, squishAll)
	f1s, recS := cerQuality(sc, squishAll, truth)
	t.AddRow("squish(10%)", f1(insitu.Ratio(len(sc.Positions), len(squishAll))),
		f1(stats.MeanM), f0(stats.MaxM), f2(f1s), f2(recS))

	// Offline references (cannot run in-situ; quality ceiling).
	for _, alg := range []struct {
		name string
		fn   func([]model.Position, float64) []model.Position
	}{
		{"douglas-peucker(50m)", insitu.DouglasPeucker},
		{"td-tr(50m)", insitu.TDTR},
	} {
		var all []model.Position
		for _, tr := range byEntity {
			all = append(all, alg.fn(tr.Points, 50)...)
		}
		sortByTS(all)
		st := compressionStats(byEntity, all)
		f1o, recO := cerQuality(sc, all, truth)
		t.AddRow(alg.name, f1(insitu.Ratio(len(sc.Positions), len(all))),
			f1(st.MeanM), f0(st.MaxM), f2(f1o), f2(recO))
	}
	return t
}

// compressionStats aggregates SED error per entity.
func compressionStats(byEntity map[string]*model.Trajectory, kept []model.Position) insitu.ErrorStats {
	keptBy := model.GroupByEntity(kept)
	var stats []insitu.ErrorStats
	for id, orig := range byEntity {
		k := keptBy[id]
		if k == nil {
			continue
		}
		stats = append(stats, insitu.CompressionError(orig.Points, k.Points))
	}
	return insitu.Aggregate(stats)
}

// cerQuality runs the maritime CER suite over a position stream and scores
// loitering+rendezvous against ground truth.
func cerQuality(sc *synth.Scenario, positions []model.Position, truth []model.Event) (f1v, recall float64) {
	suite := cer.NewMaritimeSuite(sc.Box, sc.Areas)
	// Pair analytics need a wider pairing clock on compressed streams.
	suite.Pairer.MaxDeltaT = 2 * time.Minute
	var detected []model.Event
	for _, p := range positions {
		detected = append(detected, suite.Process(p)...)
	}
	_, recall, f1v = synth.ScoreDetections(truth, detected)
	return f1v, recall
}

func sortByTS(ps []model.Position) {
	sort.SliceStable(ps, func(i, j int) bool { return ps[i].TS < ps[j].TS })
}

// e2Scenario builds the E2 world.
func e2Scenario(quick bool) *synth.Scenario {
	vessels, dur := 300, time.Hour
	if quick {
		vessels, dur = 60, 30*time.Minute
	}
	return synth.GenMaritime(synth.MaritimeConfig{Seed: 102, Vessels: vessels, Duration: dur})
}

// E2StreamThroughput: "primitive operators ... applied directly on the data
// streams" at "extremely high rates" (§1,2). Feeds a generated maritime
// wire stream to core.Ingestor, the keyed decode → gate → compress → store
// front the daemon runs, at 1, 2 and 4 workers. No areas are installed, so
// the CER stage is skipped; E10 measures the full chain.
func E2StreamThroughput(quick bool) *Table {
	sc := e2Scenario(quick)
	lines := sc.WireTimed
	t := &Table{
		ID:     "E2",
		Title:  "in-situ stream operators at high rates (core.Ingestor)",
		Header: []string{"workers", "lines", "elapsed", "lines/s", "decoded", "gated", "kept"},
		Notes:  "wire line → AIS decode → noise gate → threshold compression → RDF store, 512-line batches, no CER",
	}
	for _, workers := range []int{1, 2, 4} {
		p := core.New(core.Config{Domain: model.Maritime})
		p.InstallEntities(sc.Entities)
		ing := p.NewIngestor(core.IngestorConfig{Workers: workers, QueueLen: len(lines)})
		start := time.Now()
		for i := 0; i < len(lines); i += 512 {
			batch := lines[i:min(i+512, len(lines))]
			if n, err := ing.SubmitBatch(nil, batch); err != nil || n != len(batch) {
				panic(fmt.Sprintf("E2: submitted %d of %d lines: %v", n, len(batch), err))
			}
		}
		ing.Quiesce(0)
		elapsed := time.Since(start)
		ing.Close()
		s := p.Stats.Snapshot()
		t.AddRow(fmt.Sprintf("%d", workers), fmt.Sprintf("%d", s.Lines),
			elapsed.Round(time.Millisecond).String(),
			f0(float64(s.Lines)/elapsed.Seconds()),
			fmt.Sprintf("%d", s.Decoded), fmt.Sprintf("%d", s.Gated), fmt.Sprintf("%d", s.Kept))
	}
	return t
}
