package experiments

import (
	"fmt"
	"sort"
	"time"

	"github.com/datacron-project/datacron/internal/cer"
	"github.com/datacron-project/datacron/internal/forecast"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/synth"
)

// E6TrajForecast: "reconstruction and forecasting of moving entities'
// trajectories in the challenging Maritime (2D) and Aviation (3D) domains"
// (§1). Horizon sweep per model per domain; the route network trains on
// half the fleet and predicts the other half.
func E6TrajForecast(quick bool) *Table {
	horizons := []time.Duration{1 * time.Minute, 5 * time.Minute, 10 * time.Minute, 20 * time.Minute, 30 * time.Minute}
	t := &Table{
		ID:     "E6",
		Title:  "trajectory forecasting error by horizon (mean metres)",
		Header: []string{"domain", "model", "1m", "5m", "10m", "20m", "30m"},
		Notes:  "route network trained on half the fleet, evaluated on the other half",
	}

	vessels, dur := 150, 3*time.Hour
	flights := 60
	if quick {
		vessels, dur, flights = 70, 2*time.Hour, 20
	}
	mar := synth.GenMaritime(synth.MaritimeConfig{Seed: 106, Vessels: vessels, Duration: dur})
	avi := synth.GenAviation(synth.AviationConfig{Seed: 106, Flights: flights, Duration: dur})

	for _, dom := range []struct {
		name  string
		truth map[string]*model.Trajectory
		grid  int
	}{
		{"maritime", mar.Truth, 128},
		{"aviation", avi.Truth, 96},
	} {
		// Split fleet into train/test halves deterministically.
		train := map[string]*model.Trajectory{}
		test := map[string]*model.Trajectory{}
		i := 0
		for _, id := range sortedKeys(dom.truth) {
			if i%2 == 0 {
				train[id] = dom.truth[id]
			} else {
				test[id] = dom.truth[id]
			}
			i++
		}
		box := mar.Box
		if dom.name == "aviation" {
			box = avi.Box
		}
		rn := forecast.NewRouteNetwork(box, dom.grid, dom.grid)
		knn := forecast.NewHistoryKNN(box, dom.grid, dom.grid)
		for _, tr := range train {
			rn.Train(tr)
			knn.Train(tr)
		}
		for _, pred := range []forecast.Predictor{forecast.DeadReckoning{}, forecast.Kinematic{}, rn, knn} {
			errs, _ := forecast.HorizonError(pred, test, horizons, 15*time.Minute)
			row := []string{dom.name, pred.Name()}
			for _, e := range errs {
				row = append(row, f0(e))
			}
			t.AddRow(row...)
		}
	}
	return t
}

func sortedKeys(m map[string]*model.Trajectory) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// E7EventRecognition: "recognition ... of complex events" (§1) under
// "operational latency requirements (i.e. in ms)" (§4). Runs the full
// maritime CER suite over the observed stream; reports throughput, per-
// event wall-clock latency percentiles, and detection quality per type.
func E7EventRecognition(quick bool) *Table {
	vessels, dur := 300, 2*time.Hour
	if quick {
		vessels, dur = 40, time.Hour
	}
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 107, Vessels: vessels, Duration: dur,
		Rendezvous: 4, Loiterers: 4, GapProb: 0.05,
	})
	suite := cer.NewMaritimeSuite(sc.Box, sc.Areas)
	lat := obs.NewLatencyHist()
	var detected []model.Event
	start := time.Now()
	for _, p := range sc.Positions {
		t0 := time.Now()
		evs := suite.Process(p)
		lat.Observe(time.Since(t0))
		detected = append(detected, evs...)
	}
	elapsed := time.Since(start)

	t := &Table{
		ID:     "E7",
		Title:  "complex event recognition: quality and ms-scale latency",
		Header: []string{"metric", "value"},
	}
	t.AddRow("reports processed", fmt.Sprintf("%d", len(sc.Positions)))
	t.AddRow("throughput", f0(float64(len(sc.Positions))/elapsed.Seconds())+" reports/s")
	t.AddRow("per-report p50", lat.Percentile(50).String())
	t.AddRow("per-report p99", lat.Percentile(99).String())
	for _, typ := range []string{"loitering", "rendezvous", "gap"} {
		truth := sc.EventsOfType(typ)
		var dets []model.Event
		for _, ev := range detected {
			if ev.Type == typ {
				dets = append(dets, ev)
			}
		}
		p, r, f := synth.ScoreDetections(truth, dets)
		t.AddRow(typ+" P/R/F1", fmt.Sprintf("%.2f / %.2f / %.2f (truth %d, detected %d)", p, r, f, len(truth), len(dets)))
	}
	return t
}

// E8EventForecast: "forecasting of complex events and patterns" (§1).
// Trains the symbol Markov chain on one world, forecasts loitering
// completion on another; precision/recall of high-confidence alarms per
// horizon.
func E8EventForecast(quick bool) *Table {
	vessels, dur := 100, 2*time.Hour
	if quick {
		vessels, dur = 24, time.Hour
	}
	train := synth.GenMaritime(synth.MaritimeConfig{Seed: 108, Vessels: vessels, Duration: dur, Loiterers: 4})
	test := synth.GenMaritime(synth.MaritimeConfig{Seed: 109, Vessels: vessels, Duration: dur, Loiterers: 4})

	sym, n := forecast.SpeedSymbols(1.0)
	chain := forecast.NewMarkovChain(n)
	for _, tr := range train.Truth {
		seq := make([]int, tr.Len())
		for i, p := range tr.Points {
			seq[i] = sym(p)
		}
		chain.TrainSequence(seq)
	}
	const K = 30 // 5 minutes of slow reports at 10s cadence
	pf := &forecast.PatternForecaster{K: K, Match: func(s int) bool { return s == 0 }, Chain: chain}

	t := &Table{
		ID:     "E8",
		Title:  "event forecasting: P(loitering completes within horizon)",
		Header: []string{"horizon", "alarms", "precision", "recall", "base-rate"},
		Notes:  "alarm when P>0.8; actual = slow-run reaches 5 min within horizon (per report)",
	}
	// Precompute per-entity symbol sequences of the test truth.
	for _, horizon := range []int{6, 12, 30, 60} {
		var tp, fp, fn, actualTotal, total int
		for _, tr := range test.Truth {
			seq := make([]int, tr.Len())
			for i, p := range tr.Points {
				seq[i] = sym(p)
			}
			// runLen[i]: consecutive matches ending at i.
			runLen := make([]int, len(seq))
			for i := range seq {
				if seq[i] == 0 {
					if i > 0 {
						runLen[i] = runLen[i-1] + 1
					} else {
						runLen[i] = 1
					}
				}
			}
			// completes[i]: does a run reach K within (i, i+horizon]?
			for i := range seq {
				if runLen[i] >= K {
					continue // already complete: no forecast needed
				}
				actual := false
				for j := i + 1; j <= i+horizon && j < len(seq); j++ {
					if runLen[j] >= K {
						actual = true
						break
					}
				}
				prob := pf.CompletionProb(seq[i], runLen[i], horizon)
				alarm := prob > 0.8
				total++
				if actual {
					actualTotal++
				}
				switch {
				case alarm && actual:
					tp++
				case alarm && !actual:
					fp++
				case !alarm && actual:
					fn++
				}
			}
		}
		precision, recall := 0.0, 0.0
		if tp+fp > 0 {
			precision = float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			recall = float64(tp) / float64(tp+fn)
		}
		t.AddRow(fmt.Sprintf("%d reports", horizon), fmt.Sprintf("%d", tp+fp),
			f2(precision), f2(recall), f2(float64(actualTotal)/float64(total)))
	}
	return t
}
