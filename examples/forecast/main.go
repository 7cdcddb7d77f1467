// Example forecast: the online forecasting subsystem end to end. A
// forecast-enabled pipeline ingests a generated AIS wire stream; the
// ForecastHub taps every gated report, warming per-entity history and
// incrementally training the shared route-network/KNN/Markov models. The
// program then asks the hub for forecasts the way GET /forecast would —
// per entity at several horizons, with the model chosen by the fallback
// ladder — and scores them against the generator's noise-free ground
// truth. Finally it snapshots, recovers into a fresh pipeline, and shows
// the recovered hub forecasting identically (the kill -9 guarantee).
package main

import (
	"fmt"
	"log"
	"os"
	"sort"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

func main() {
	log.SetFlags(0)

	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 7, Vessels: 12, Duration: 2 * time.Hour, Rendezvous: -1,
	})
	cfg := core.Config{
		Domain:   model.Maritime,
		Forecast: core.ForecastConfig{Enabled: true},
	}
	p := core.New(cfg)
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)

	// Feed 80% of the stream; the remaining 20% is the hidden future the
	// forecasts are scored against.
	cut := len(sc.WireTimed) * 8 / 10
	ing := p.NewIngestor(core.IngestorConfig{Workers: 1})
	defer ing.Close()
	if err := ing.Feed(nil, sc.WireTimed[:cut]); err != nil {
		log.Fatal(err)
	}
	routeCells, knnPts := p.ForecastHub.ModelStats()
	fmt.Printf("ingested %d lines; hub: %d entities, %d reports observed\n",
		cut, p.ForecastHub.Entities(), p.ForecastHub.Observed())
	fmt.Printf("stream-trained models: %d route cells, %d knn points\n\n", routeCells, knnPts)

	// Forecast every live entity at three horizons and score against truth.
	for _, horizon := range []time.Duration{5 * time.Minute, 10 * time.Minute, 20 * time.Minute} {
		all, err := p.ForecastHub.ForecastAll(horizon)
		if err != nil {
			log.Fatal(err)
		}
		sort.Slice(all, func(i, j int) bool { return all[i].Entity < all[j].Entity })
		var sum float64
		n := 0
		byMethod := map[string]int{}
		for _, f := range all {
			tr := sc.Truth[f.Entity]
			if tr == nil || f.TS > tr.End() {
				continue
			}
			actual, ok := tr.At(f.TS)
			if !ok {
				continue
			}
			sum += geo.Haversine(f.Pt, actual.Pt)
			n++
			byMethod[f.Method]++
		}
		if n == 0 {
			continue
		}
		fmt.Printf("horizon %-4v mean error %6.0f m over %2d entities (methods: %v)\n",
			horizon, sum/float64(n), n, byMethod)
	}

	// One entity in detail: the serving response shape.
	all, err := p.ForecastHub.ForecastAll(10 * time.Minute)
	if err != nil || len(all) == 0 {
		log.Fatal("no live entities")
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Entity < all[j].Entity })
	f := all[0]
	fmt.Printf("\nGET /forecast?entity=%s&horizon=10m →\n", f.Entity)
	fmt.Printf("  method=%s pt=(%.4f, %.4f) radius=%.0fm history=%d eventProb=%.2f\n\n",
		f.Method, f.Pt.Lon, f.Pt.Lat, f.RadiusM, f.HistoryLen, f.EventProb)

	// Durability: snapshot, recover, forecast again — identically.
	dataDir, err := os.MkdirTemp("", "datacron-forecast-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	walLog, err := wal.Open(core.WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		log.Fatal(err)
	}
	if _, err := p.WriteSnapshot(dataDir, ing, walLog); err != nil {
		log.Fatal(err)
	}
	walLog.Close()

	p2 := core.New(cfg)
	p2.InstallAreas(sc.Areas)
	p2.InstallEntities(sc.Entities)
	if _, err := p2.Recover(dataDir); err != nil {
		log.Fatal(err)
	}
	g, err := p2.ForecastHub.Forecast(f.Entity, 10*time.Minute)
	if err != nil {
		log.Fatal(err)
	}
	if g == f {
		fmt.Println("recovered pipeline forecasts identically: kill -9 loses no forecast state")
	} else {
		fmt.Printf("MISMATCH after recovery:\n  %+v\n  %+v\n", f, g)
	}
}
