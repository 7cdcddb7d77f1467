package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/ais"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synopses"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

// operatorState renders p's per-entity operator state and applied offsets
// as a snapshot's state.json holds them.
func operatorState(t testing.TB, p *Pipeline) []byte {
	t.Helper()
	front, applied := p.exportGroups()
	b, err := json.Marshal(struct {
		Front   frontState
		Applied map[string]uint64
	}{front, applied})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// eventMultiset renders events as a sorted list: equal multisets, equal
// lists.
func eventMultiset(evs []model.Event) []string {
	out := make([]string, len(evs))
	for i, ev := range evs {
		out[i] = fmt.Sprintf("%+v", ev)
	}
	slices.Sort(out)
	return out
}

// ingestWorkers runs lines, unlogged, through an Ingestor of the given
// worker count with queues deep enough to hand the whole stream off at
// once, and returns the detected events.
func ingestWorkers(t testing.TB, p *Pipeline, workers int, lines []synth.TimedLine) []model.Event {
	t.Helper()
	var mu sync.Mutex
	var evs []model.Event
	ing := p.NewIngestor(IngestorConfig{Workers: workers, QueueLen: 1 << 16, OnEvents: func(e []model.Event, _ []synopses.CriticalPoint) {
		mu.Lock()
		evs = append(evs, e...)
		mu.Unlock()
	}})
	feed(t, ing, nil, lines)
	ing.Close()
	return evs
}

// The synchronous driver kept for the benchmark (IngestLine) and the
// Ingestor at 1, 2 and 4 workers run one world through the same key groups,
// so they must agree on the store, the exported operator state, the
// counters and the detections. The durable world is primed with its areas,
// and its events are all per-entity, so none of these depends on how
// workers interleave entities. The stream worlds carry the claim that the
// in-situ operators run "directly on the data streams" (§2): 60 vessels
// for 30 min, seed 102 and three held-out seeds, primed with entities only
// (no areas, so no CER); every line is processed, and the gate and filter
// keep some reports but not all.
func TestIngestPathsAgree(t *testing.T) {
	type world struct {
		name  string
		sc    *synth.Scenario
		areas bool
	}
	worlds := []world{{"durable", durableWorld(t), true}}
	for _, seed := range []int64{102, 1102, 2102, 3102} {
		sc := synth.GenMaritime(synth.MaritimeConfig{Seed: seed, Vessels: 60, Duration: 30 * time.Minute})
		worlds = append(worlds, world{fmt.Sprintf("stream seed %d", seed), sc, false})
	}
	for _, w := range worlds {
		t.Run(w.name, func(t *testing.T) {
			primed := func() *Pipeline {
				if w.areas {
					return newPrimed(w.sc)
				}
				p := New(Config{Domain: model.Maritime})
				p.InstallEntities(w.sc.Entities)
				return p
			}
			ref := primed()
			var refEvs []model.Event
			for _, tl := range w.sc.WireTimed {
				evs, err := ref.IngestLine(tl)
				if err != nil {
					t.Fatal(err)
				}
				refEvs = append(refEvs, evs...)
			}
			wantNT, wantState, wantEvs := exportNT(t, ref), operatorState(t, ref), eventMultiset(refEvs)
			if w.areas && len(wantEvs) == 0 {
				t.Fatalf("%s: the world produced no events; the test is vacuous", w.name)
			}
			s := ref.Stats.Snapshot()
			t.Logf("%s: %d lines, %d decoded, %d gated, %d kept", w.name, s.Lines, s.Decoded, s.Gated, s.Kept)
			if s.Lines != int64(len(w.sc.WireTimed)) || s.Kept <= 0 || s.Kept >= s.Lines {
				t.Errorf("%s: %d of %d lines processed, %d kept", w.name, s.Lines, len(w.sc.WireTimed), s.Kept)
			}
			for _, workers := range []int{1, 2, 4} {
				p := primed()
				evs := eventMultiset(ingestWorkers(t, p, workers, w.sc.WireTimed))
				if got, want := p.Stats.Snapshot(), ref.Stats.Snapshot(); got != want {
					t.Errorf("%s, %d workers: counters %+v, IngestLine %+v", w.name, workers, got, want)
				}
				if !bytes.Equal(exportNT(t, p), wantNT) {
					t.Errorf("%s, %d workers: N-Triples export differs from IngestLine's", w.name, workers)
				}
				if !bytes.Equal(operatorState(t, p), wantState) {
					t.Errorf("%s, %d workers: exported operator state differs from IngestLine's", w.name, workers)
				}
				if !slices.Equal(evs, wantEvs) {
					t.Errorf("%s, %d workers: %d detections, IngestLine %d; the multisets differ", w.name, workers, len(evs), len(wantEvs))
				}
			}
		})
	}
}

// A snapshot taken under four racing workers, then a logged tail, recovers
// at any worker count with each entity's gate and filter entry resident
// once, in the group its lines route to (the one worker w owns the groups
// g with g % workers == w), and the rest of the stream, ingested at that
// count, lands on the uninterrupted run.
func TestRecoverAtAnyWorkerCount(t *testing.T) {
	sc := durableWorld(t)
	dataDir := t.TempDir()
	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	snapAt, crashAt := len(sc.WireTimed)/2, len(sc.WireTimed)*8/10
	p1 := newPrimed(sc)
	ing := p1.NewIngestor(IngestorConfig{Workers: 4, QueueLen: 1 << 16})
	feed(t, ing, log, sc.WireTimed[:snapAt])
	if _, err := p1.WriteSnapshot(dataDir, ing, log); err != nil {
		t.Fatal(err)
	}
	feed(t, ing, log, sc.WireTimed[snapAt:crashAt])
	ing.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	whole := newPrimed(sc)
	whole.Ingest(sc.WireTimed)
	for _, workers := range []int{1, 2, 4} {
		p := newPrimed(sc)
		if rs, err := p.Recover(dataDir); err != nil || rs.SnapshotLSN == 0 || rs.Replayed == 0 {
			t.Fatalf("%d workers: recovery did not load a snapshot and replay a tail: %+v, %v", workers, rs, err)
		}
		entries := 0
		for g := range p.groups {
			for _, ids := range []map[string]model.Position{p.groups[g].gate.ExportState(), p.groups[g].filter.ExportState()} {
				for id := range ids {
					entries++
					if want := groupOf(p.entityKey(id)); want != g {
						t.Errorf("%d workers: %s's entry is in group %d (worker %d), its lines route to %d (worker %d)",
							workers, id, g, g%workers, want, want%workers)
					}
				}
			}
		}
		if entries == 0 {
			t.Fatalf("%d workers: no gate or filter state recovered", workers)
		}
		ing := p.NewIngestor(IngestorConfig{Workers: workers})
		feed(t, ing, nil, sc.WireTimed[crashAt:])
		ing.Close()
		if got, want := p.Stats.Snapshot(), whole.Stats.Snapshot(); got != want {
			t.Errorf("%d workers: counters after the rest of the stream %+v, uninterrupted %+v", workers, got, want)
		}
		if !bytes.Equal(exportNT(t, p), exportNT(t, whole)) {
			t.Errorf("%d workers: store after the rest of the stream differs from the uninterrupted run", workers)
		}
	}
}

// Recovery places a restored gate or filter entry by entityKey, live ingest
// by the routing key of the entity's lines: the two must name one group,
// or a restart strands the entry where its entity's lines never look. The
// generated worlds' MMSIs have nine digits, so this covers the short,
// zero-padded ones and padded, lower-case SBS idents.
func TestEntityKeyIsTheRoutingKey(t *testing.T) {
	var lines []string
	for _, mmsi := range []uint32{0, 7, 1234, 23700001, 237000001} {
		payload, fill, err := ais.PositionReport{MsgType: 1, MMSI: mmsi, Lon: 25, Lat: 37, SOG: 10, COG: 90, Heading: 90, Second: 1}.Encode()
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, ais.ToSentences(payload, fill, 0, "A")[0])
	}
	check := func(domain model.Domain, lines []string) {
		p := New(Config{Domain: domain})
		keys := make(map[string]bool)
		for _, line := range lines {
			if _, err := p.IngestLine(synth.TimedLine{TS: 1000, Line: line}); err != nil {
				t.Fatal(err)
			}
			keys[p.RoutingKey(line)] = true
		}
		seen := 0
		for g := range p.groups {
			for id := range p.groups[g].gate.ExportState() {
				seen++
				if key := p.entityKey(id); !keys[key] || groupOf(key) != g {
					t.Errorf("%s entity %q: entityKey %q (group %d), gate entry in group %d", domain, id, key, groupOf(key), g)
				}
			}
		}
		if seen != len(keys) {
			t.Errorf("%s: %d gate entries for %d routing keys", domain, seen, len(keys))
		}
	}
	check(model.Maritime, lines)
	check(model.Aviation, []string{
		"MSG,3,1,1, 4ca1fa ,1,2026/01/02,03:04:05.250,2026/01/02,03:04:05.250,,35000,,,51.1,-0.5,,,,,,0",
		"MSG,4,1,1, 4ca1fa ,1,2026/01/02,03:04:05.250,2026/01/02,03:04:05.250,,,450,90,,,0,,,,,0",
		"MSG,3,1,1,abc123,1,2026/01/02,03:04:05.250,2026/01/02,03:04:05.250,,35000,,,51.2,-0.5,,,,,,0",
		"MSG,4,1,1,abc123,1,2026/01/02,03:04:05.250,2026/01/02,03:04:05.250,,,450,90,,,0,,,,,0",
	})
}
