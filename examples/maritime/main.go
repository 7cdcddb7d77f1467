// Maritime situational awareness: the paper's maritime use case (§3).
// Generates a busy Aegean world with scripted rendezvous and loitering,
// detects them from the AIS wire stream, scores detections against ground
// truth, forecasts vessel positions, counts traffic hotspots and renders
// a density heatmap.
//
//	go run ./examples/maritime
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/forecast"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/synth"
)

func main() {
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 7, Vessels: 40, Duration: 2 * time.Hour,
		Rendezvous: 2, Loiterers: 3,
	})
	fmt.Printf("Aegean world: %d vessels, %d reports, %d scripted events\n",
		len(sc.Entities), len(sc.Positions), len(sc.Events))

	pipeline := core.New(core.Config{Domain: model.Maritime, Trace: obs.TraceConfig{SampleEvery: obs.DefaultSampleEvery}})
	pipeline.InstallAreas(sc.Areas)
	pipeline.InstallEntities(sc.Entities)
	detected := pipeline.Ingest(sc.WireTimed)
	fmt.Println(pipeline.Report())

	// Score CER against the scripted ground truth.
	for _, typ := range []string{"loitering", "rendezvous"} {
		truth := sc.EventsOfType(typ)
		var dets []model.Event
		for _, ev := range detected {
			if ev.Type == typ {
				dets = append(dets, ev)
			}
		}
		p, r, f1 := synth.ScoreDetections(truth, dets)
		fmt.Printf("%-11s truth=%d detected=%d precision=%.2f recall=%.2f f1=%.2f\n",
			typ, len(truth), len(dets), p, r, f1)
	}

	// Trajectory forecasting: train a route network on the first half of
	// the data, predict 10 minutes ahead on the second half.
	rn := forecast.NewRouteNetwork(sc.Box, 128, 128)
	for _, tr := range sc.Truth {
		mid := (tr.Start() + tr.End()) / 2
		rn.Train(tr.Slice(tr.Start(), mid))
	}
	horizons := []time.Duration{time.Minute, 5 * time.Minute, 15 * time.Minute}
	fmt.Println("\ntrajectory forecast mean error (m):")
	fmt.Printf("%-16s", "model")
	for _, h := range horizons {
		fmt.Printf("%12v", h)
	}
	fmt.Println()
	for _, pred := range []forecast.Predictor{forecast.DeadReckoning{}, forecast.Kinematic{}, rn} {
		errs, _ := forecast.HorizonError(pred, sc.Truth, horizons, 10*time.Minute)
		fmt.Printf("%-16s", pred.Name())
		for _, e := range errs {
			fmt.Printf("%12.0f", e)
		}
		fmt.Println()
	}

	// Traffic hotspots, and a density heatmap as a PPM image.
	spots := pipeline.Density.Hotspots(3)
	fmt.Printf("\n%d traffic hotspots (Gi* z≥3)\n", len(spots))
	f, err := os.Create("maritime-density.ppm")
	if err != nil {
		log.Fatalf("heatmap: %v", err)
	}
	defer f.Close()
	if err := heatmapPPM(f, pipeline.Density, 8); err != nil {
		log.Fatalf("heatmap: %v", err)
	}
	fmt.Println("wrote maritime-density.ppm")
}
