// datacron-query loads a generated wire dataset into the parallel RDF
// store and runs ad-hoc stSPARQL-lite queries against it.
//
//	datacron-gen -domain maritime -out aegean
//	datacron-query -wire aegean.wire -query 'SELECT ?v WHERE { ?v rdf:type dat:Vessel . } LIMIT 5'
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/query"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wire"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("datacron-query: ")
	var (
		wirePath = flag.String("wire", "", "wire file from datacron-gen (\"<ts> <line>\" per row)")
		domain   = flag.String("domain", "maritime", "maritime or aviation")
		q        = flag.String("query", "", "stSPARQL-lite query; empty drops into a demo query")
		shards   = flag.Int("shards", 4, "store shard count")
		explain  = flag.Bool("explain", false, "print the physical plan without executing")
	)
	flag.Parse()
	if *wirePath == "" {
		log.Fatal("-wire is required (generate one with datacron-gen)")
	}

	dom := model.Maritime
	if *domain == "aviation" {
		dom = model.Aviation
	}
	p := core.New(core.Config{Domain: dom, Shards: *shards})

	body, err := os.ReadFile(*wirePath)
	if err != nil {
		log.Fatal(err)
	}
	var lines []synth.TimedLine
	// The text ingest format of POST /ingest; a line without a timestamp
	// is stamped 0.
	if _, err := wire.EachRecord(body, "", 0, func(ts int64, line string) {
		if line != "" {
			lines = append(lines, synth.TimedLine{TS: ts, Line: line})
		}
	}); err != nil {
		log.Fatal(err)
	}
	p.Ingest(lines)
	log.Printf("ingested %d lines: %s", len(lines), p.Report())

	src := *q
	if src == "" {
		src = `SELECT ?v ?name WHERE { ?v rdf:type dat:Vessel . ?v dat:name ?name . } LIMIT 10`
		log.Printf("no -query given; running demo: %s", src)
	}
	if *explain {
		// Lower to the physical operator chain without executing — the same
		// renderer the slow-query log uses (row counts print only after an
		// execution, so -explain shows the shape and the scan's real
		// shard-pruning facts from the loaded store).
		parsed, perr := query.Parse(src)
		if perr != nil {
			log.Fatal(perr)
		}
		fmt.Print(obs.FormatPlanStages(p.Engine.Explain(parsed)))
		return
	}
	res, err := p.Engine.Execute(src)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(query.FormatTable(res))
}
