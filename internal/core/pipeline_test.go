package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/synth"
)

func maritimeScenario(t testing.TB) *synth.Scenario {
	t.Helper()
	return synth.GenMaritime(synth.MaritimeConfig{
		Seed: 77, Vessels: 14, Duration: 90 * time.Minute,
		Rendezvous: 1, Loiterers: 2, GapProb: 0.0001, OutlierProb: 0.002,
	})
}

// runScenario primes p with sc's world and ingests its wire stream through
// a one-worker Ingestor, returning the detected events in line order.
func runScenario(p *Pipeline, sc *synth.Scenario) []model.Event {
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	return p.Ingest(sc.WireTimed)
}

// tracedConfig is a pipeline config for sc's domain whose tracer times
// every line into a ring that holds the whole run (a line records at most
// one span per stage).
func tracedConfig(sc *synth.Scenario) Config {
	return Config{Domain: sc.Domain, Trace: obs.TraceConfig{
		SampleEvery: 1, RingSize: len(sc.WireTimed) * len(obs.Stages()),
	}}
}

// cerP99 returns the p99 latency, wire line to CER, of the lines p traced
// that reached CER: the whole-line spans whose outcome is stored or
// suppressed. It fails t when the ring lost a traced line.
func cerP99(t testing.TB, p *Pipeline) time.Duration {
	t.Helper()
	snap := p.Tracer.Snapshot()
	var lat []time.Duration
	var lines int64
	for _, sp := range snap.Spans {
		if sp.Stage != obs.StageLine.String() {
			continue
		}
		lines++
		if sp.Outcome == "stored" || sp.Outcome == "suppressed" {
			lat = append(lat, time.Duration(sp.DurationUS)*time.Microsecond)
		}
	}
	if lines != snap.Sampled || len(lat) == 0 {
		t.Fatalf("ring holds %d of %d traced lines, %d reached CER", lines, snap.Sampled, len(lat))
	}
	slices.Sort(lat)
	return lat[(len(lat)-1)*99/100]
}

// latencyP99 primes a traced pipeline of sc's domain with sc's world,
// ingests its wire stream and returns the per-report p99 latency, wire line
// to CER.
func latencyP99(t testing.TB, sc *synth.Scenario) time.Duration {
	p := New(tracedConfig(sc))
	runScenario(p, sc)
	return cerP99(t, p)
}

// The end-to-end claim, a "coherent Big Data solution" (§2) under
// "operational latency requirements (i.e. in ms)" (§4), is checked in each
// domain on the world it was first measured on (seed 112) and three
// held-out seeds: per-report p99 latency within 100 ms.
var latencySeeds = []int64{112, 1112, 2112, 3112}

func TestMaritimeEndToEnd(t *testing.T) {
	sc := maritimeScenario(t)
	p := New(tracedConfig(sc))
	detected := runScenario(p, sc)
	if p.Stats.Decoded == 0 || p.Stats.Kept == 0 {
		t.Fatalf("nothing flowed: %+v", p.Stats)
	}
	// Compression must actually compress realistic traffic.
	if r := p.Stats.CompressionRatio(); r < 1.5 {
		t.Errorf("compression ratio %.2f too low", r)
	}
	// Outliers exist in the stream; the gate must catch some.
	if p.Stats.Gated == 0 {
		t.Error("noise gate caught nothing despite injected outliers")
	}
	// Scripted loitering must be detected end-to-end (from the wire).
	_, recall, _ := synth.ScoreDetections(sc.EventsOfType("loitering"), detected)
	if recall < 0.99 {
		t.Errorf("end-to-end loitering recall = %f", recall)
	}
	// The paper's ms requirement: per-report processing latency p99 under
	// 50ms on any hardware this test runs on.
	if p99 := cerP99(t, p); p99 > 50*time.Millisecond {
		t.Errorf("p99 per-report latency %v exceeds 50ms", p99)
	}
	// The store answers queries over what was ingested.
	res, err := p.Engine.Execute(`SELECT ?v WHERE { ?v rdf:type dat:Vessel . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 14 {
		t.Errorf("queried vessels = %d, want 14", len(res.Rows))
	}
	// Detected events landed in the store as RDF.
	res, err = p.Engine.Execute(`SELECT ?e WHERE { ?e dat:eventType "loitering" . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("no loitering events in RDF store")
	}
	if r := p.Report(); !strings.Contains(r, "ratio=") || !strings.Contains(r, "latency: line p50=") {
		t.Error("report malformed")
	}

	for _, seed := range latencySeeds {
		t.Run(fmt.Sprintf("latency seed %d", seed), func(t *testing.T) {
			p99 := latencyP99(t, synth.GenMaritime(synth.MaritimeConfig{
				Seed: seed, Vessels: 30, Duration: time.Hour, Rendezvous: 2, Loiterers: 2,
			}))
			if p99 > 100*time.Millisecond {
				t.Errorf("seed %d: p99 per-report latency %v exceeds 100ms", seed, p99)
			}
		})
	}
}

func TestAviationEndToEnd(t *testing.T) {
	sc := synth.GenAviation(synth.AviationConfig{Seed: 5, Flights: 12, Duration: time.Hour})
	p := New(Config{Domain: model.Aviation})
	runScenario(p, sc)
	if p.Stats.Decoded == 0 {
		t.Fatal("no SBS messages decoded")
	}
	if int(p.Stats.Decoded) != len(sc.Positions) {
		t.Errorf("decoded %d, want %d fused positions", p.Stats.Decoded, len(sc.Positions))
	}
	// Aircraft queried back with altitude.
	res, err := p.Engine.Execute(`SELECT ?n ?alt WHERE {
		?n rdf:type dat:SemanticNode .
		?n dat:altitude ?alt .
		FILTER (?alt > 5000)
	} LIMIT 5`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) == 0 {
		t.Error("no high-altitude nodes stored")
	}

	for _, seed := range latencySeeds {
		t.Run(fmt.Sprintf("latency seed %d", seed), func(t *testing.T) {
			p99 := latencyP99(t, synth.GenAviation(synth.AviationConfig{Seed: seed, Flights: 15, Duration: time.Hour}))
			if p99 > 100*time.Millisecond {
				t.Errorf("seed %d: p99 per-report latency %v exceeds 100ms", seed, p99)
			}
		})
	}
}

func TestIngestLineLenientByDefault(t *testing.T) {
	p := New(Config{Domain: model.Maritime})
	if _, err := p.IngestLine(synth.TimedLine{TS: 0, Line: "garbage"}); err != nil {
		t.Errorf("lenient mode must skip, got %v", err)
	}
	if p.Stats.BadLines != 1 {
		t.Errorf("BadLines = %d", p.Stats.BadLines)
	}
}

// Failure injection: a realistically dirty feed (corrupted checksums,
// truncated sentences, binary noise) must neither stop the pipeline nor
// ruin detection quality.
func TestPipelineSurvivesCorruptedFeed(t *testing.T) {
	sc := maritimeScenario(t)
	p := New(Config{Domain: model.Maritime})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	var injected int64
	lines := make([]synth.TimedLine, 0, len(sc.WireTimed))
	for i, tl := range sc.WireTimed {
		switch i % 97 {
		case 13: // flip a payload byte (checksum failure)
			b := []byte(tl.Line)
			b[len(b)/2] ^= 0x5
			tl.Line = string(b)
			injected++
		case 31: // truncate
			tl.Line = tl.Line[:len(tl.Line)/2]
			injected++
		case 59: // binary garbage
			tl.Line = "\x00\xff\x13garbage"
			injected++
		}
		lines = append(lines, tl)
	}
	detected := p.Ingest(lines)
	if p.Stats.BadLines < injected*9/10 {
		t.Errorf("BadLines = %d, injected ≈ %d", p.Stats.BadLines, injected)
	}
	// Losing ~3% of reports must not lose the scripted loitering events.
	_, recall, _ := synth.ScoreDetections(sc.EventsOfType("loitering"), detected)
	if recall < 0.99 {
		t.Errorf("recall on dirty feed = %f", recall)
	}
}

func TestStaticMessagesLearnEntities(t *testing.T) {
	sc := maritimeScenario(t)
	p := New(Config{Domain: model.Maritime})
	p.InstallAreas(sc.Areas)
	// No InstallEntities: the pipeline must learn them from AIS msg 5.
	p.Ingest(sc.WireTimed)
	res, err := p.Engine.Execute(`SELECT ?v ?name WHERE { ?v rdf:type dat:Vessel . ?v dat:name ?name . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 14 {
		t.Errorf("learned vessels = %d, want 14", len(res.Rows))
	}
}

func TestDensityAccumulates(t *testing.T) {
	sc := maritimeScenario(t)
	p := New(Config{Domain: model.Maritime})
	runScenario(p, sc)
	if p.Density.Total() == 0 {
		t.Error("density grid empty after ingestion")
	}
}
