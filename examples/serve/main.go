// Example serve: the online serving layer end to end. Starts a
// datacron-serve instance in-process, drives it with 8 concurrent ingest
// clients replaying a generated AIS wire stream, subscribes to the complex
// event stream, and interleaves queries — the datAcron online architecture
// (ingest, query and event recognition all concurrent) in one program.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"log"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"github.com/datacron-project/datacron/internal/ais"
	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/server"
	"github.com/datacron-project/datacron/internal/synth"
)

func main() {
	log.SetFlags(0)

	// A maritime world with scripted loitering and rendezvous.
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 7, Vessels: 30, Duration: 2 * time.Hour, Loiterers: 2, Rendezvous: 1,
	})
	p := core.New(core.Config{Domain: model.Maritime, Shards: 8, Trace: obs.TraceConfig{SampleEvery: obs.DefaultSampleEvery}})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)

	srv := server.New(server.Config{Pipeline: p, QueueLen: 8192})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	httpSrv := &http.Server{Handler: srv.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()
	fmt.Printf("serving on %s\n", base)

	// Subscribe to the live event stream before traffic starts.
	var evMu sync.Mutex
	evCounts := map[string]int{}
	shown := 0
	go func() {
		resp, err := http.Get(base + "/events")
		if err != nil {
			return
		}
		defer resp.Body.Close()
		scn := bufio.NewScanner(resp.Body)
		for scn.Scan() {
			line := scn.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev struct {
				Type, Entity, Other string
			}
			if json.Unmarshal([]byte(line[len("data: "):]), &ev) != nil {
				continue
			}
			evMu.Lock()
			evCounts[ev.Type]++
			if shown < 5 {
				shown++
				fmt.Printf("  event: %-10s %s %s\n", ev.Type, ev.Entity, ev.Other)
			}
			evMu.Unlock()
		}
	}()

	// Partition the wire stream by entity routing key across 8 clients so
	// each entity's reports stay in order within one client.
	const clients = 8
	parts := make([][]synth.TimedLine, clients)
	for _, tl := range sc.WireTimed {
		key, ok := ais.RoutingKey(tl.Line)
		if !ok {
			key = tl.Line
		}
		h := fnv.New32a()
		h.Write([]byte(key))
		i := int(h.Sum32() % clients)
		parts[i] = append(parts[i], tl)
	}

	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(lines []synth.TimedLine) {
			defer wg.Done()
			const batch = 2000
			for i := 0; i < len(lines); i += batch {
				end := i + batch
				if end > len(lines) {
					end = len(lines)
				}
				// On 429 the server stops at the first shed line, so
				// `accepted` is the exact resume offset within the batch.
				pending := lines[i:end]
				for len(pending) > 0 {
					var b strings.Builder
					for _, tl := range pending {
						fmt.Fprintf(&b, "%d %s\n", tl.TS, tl.Line)
					}
					resp, err := http.Post(base+"/ingest", "text/plain", strings.NewReader(b.String()))
					if err != nil {
						log.Fatal(err)
					}
					var ir struct{ Accepted, Rejected int }
					json.NewDecoder(resp.Body).Decode(&ir)
					resp.Body.Close()
					if resp.StatusCode != http.StatusTooManyRequests {
						break
					}
					pending = pending[ir.Accepted:]
					time.Sleep(50 * time.Millisecond) // backpressure: resend the rest
				}
			}
		}(parts[c])
	}

	// Query while ingest is in flight.
	time.Sleep(50 * time.Millisecond)
	q := `SELECT ?v ?name WHERE { ?v rdf:type dat:Vessel . ?v dat:name ?name . } LIMIT 3`
	resp, err := http.Post(base+"/query", "text/plain", strings.NewReader(q))
	if err != nil {
		log.Fatal(err)
	}
	var mid struct{ Rows [][]string }
	json.NewDecoder(resp.Body).Decode(&mid)
	resp.Body.Close()
	fmt.Printf("mid-ingest query returned %d vessels while %d lines pending\n",
		len(mid.Rows), srv.Ingestor().Pending())

	wg.Wait()
	srv.Ingestor().Quiesce(time.Minute)
	el := time.Since(start)
	snap := p.Stats.Snapshot()
	fmt.Printf("ingested %d lines from %d clients in %v (%.0f lines/sec)\n",
		snap.Lines, clients, el.Round(time.Millisecond), float64(snap.Lines)/el.Seconds())

	// Spatiotemporal range over the whole run.
	world := p.WorldBox()
	rurl := fmt.Sprintf("%s/range?minlon=%f&minlat=%f&maxlon=%f&maxlat=%f&limit=1",
		base, world.MinLon-1, world.MinLat-1, world.MaxLon+1, world.MaxLat+1)
	rr, err := http.Get(rurl)
	if err != nil {
		log.Fatal(err)
	}
	var rng struct {
		Count         int
		ShardsVisited int
	}
	json.NewDecoder(rr.Body).Decode(&rng)
	rr.Body.Close()
	fmt.Printf("range query: %d anchored fragments across %d shards\n", rng.Count, rng.ShardsVisited)

	evMu.Lock()
	fmt.Printf("live events by type: %v\n", evCounts)
	evMu.Unlock()
	fmt.Println(p.Report())

	httpSrv.Close()
	srv.Close()
}
