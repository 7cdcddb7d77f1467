// Air traffic management: the paper's aviation use case (§3). Generates
// flights over the Aegean FIR with a scripted holding episode, detects the
// resulting sector hotspot from occupancy analytics, and queries the 3D
// trajectory store.
//
//	go run ./examples/aviation
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/hotspot"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/synth"
)

func main() {
	sc := synth.GenAviation(synth.AviationConfig{
		Seed: 11, Flights: 60, Duration: 2 * time.Hour, HoldEpisodes: 1,
	})
	fmt.Printf("aviation world: %d flights, %d SBS messages\n",
		len(sc.Entities), len(sc.WireLines))

	pipeline := core.New(core.Config{Domain: model.Aviation, Trace: obs.TraceConfig{SampleEvery: obs.DefaultSampleEvery}})
	pipeline.InstallAreas(sc.Areas)
	pipeline.InstallEntities(sc.Entities)
	pipeline.Ingest(sc.WireTimed)
	fmt.Println(pipeline.Report())

	// Sector occupancy (capacity demand) from the decoded stream.
	grid := synth.SectorGrid()
	occ := hotspot.NewOccupancy((10 * time.Minute).Milliseconds())
	for _, p := range sc.Positions {
		occ.Observe(synth.SectorName(grid.CellID(p.Pt)), p.EntityID, p.TS)
	}
	fmt.Println("\nsector congestion events (≥8 aircraft / 10 min):")
	for _, ev := range occ.CongestionEvents(8) {
		fmt.Printf("  %s %s..%s\n", ev.Area,
			time.UnixMilli(ev.StartTS).UTC().Format("15:04"),
			time.UnixMilli(ev.EndTS).UTC().Format("15:04"))
	}
	truth := sc.EventsOfType("hotspot")
	if len(truth) > 0 {
		fmt.Printf("scripted hold: %s %s..%s (ground truth)\n", truth[0].Area,
			time.UnixMilli(truth[0].StartTS).UTC().Format("15:04"),
			time.UnixMilli(truth[0].EndTS).UTC().Format("15:04"))
	}

	// 3D query: aircraft above FL300 near Athens.
	res, err := pipeline.Engine.Execute(`SELECT ?who ?alt WHERE {
		?n rdf:type dat:SemanticNode .
		?n dat:ofMovingObject ?who .
		?n dat:altitude ?alt .
		?n dat:longitude ?lon . ?n dat:latitude ?lat .
		FILTER st:dwithin(?lon, ?lat, 23.94, 37.94, 150000)
		FILTER (?alt > 9144)
	} LIMIT 8`)
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	fmt.Printf("\nhigh-altitude aircraft within 150km of Athens (%v):\n", res.Elapsed)
	for _, row := range res.Rows {
		fmt.Printf("  %s at %sm\n", row[0].Value, row[1].Value)
	}
}
