// Quickstart: generate a small maritime world, run the full datAcron
// pipeline over its AIS wire stream, then query the parallel RDF store and
// print the detected complex events.
//
//	go run ./examples/quickstart
package main

import (
	"fmt"
	"log"
	"time"

	"github.com/datacron-project/datacron"
)

func main() {
	// A deterministic world: 20 vessels for one hour of simulated time.
	scenario := datacron.GenerateMaritime(42, 20, time.Hour)
	fmt.Printf("world: %d vessels, %d AIS sentences, %d scripted events\n",
		len(scenario.Entities), len(scenario.WireLines), len(scenario.Events))

	// Run the architecture: decode → in-situ compress → RDF → store → CER.
	pipeline := datacron.NewMaritimePipeline()
	pipeline.InstallAreas(scenario.Areas)
	pipeline.InstallEntities(scenario.Entities)
	detected := pipeline.Ingest(scenario.WireTimed)
	fmt.Println(pipeline.Report())

	fmt.Printf("\ndetected %d complex events; first few:\n", len(detected))
	for i, ev := range detected {
		if i == 5 {
			break
		}
		fmt.Printf("  %s\n", ev)
	}

	// Spatio-temporal query: vessels seen in the central Aegean.
	res, err := pipeline.Engine.Execute(`SELECT ?who WHERE {
		?n rdf:type dat:SemanticNode .
		?n dat:ofMovingObject ?who .
		?n dat:longitude ?lon . ?n dat:latitude ?lat .
		FILTER st:within(?lon, ?lat, 24.0, 36.5, 26.0, 38.5)
	} LIMIT 10`)
	if err != nil {
		log.Fatalf("query: %v", err)
	}
	fmt.Printf("\nvessels in the central Aegean (%d shards visited, %v):\n",
		res.ShardsVisited, res.Elapsed)
	for _, row := range res.Rows {
		fmt.Printf("  %s\n", row[0].Value)
	}
}
