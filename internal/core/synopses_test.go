package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synopses"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

// synopsesWorld is a maritime scenario with the mobility features the
// detector keys on: port calls (stops), waypoint routes (turns) and
// scripted AIS gaps.
func synopsesWorld(t testing.TB) *synth.Scenario {
	t.Helper()
	return synth.GenMaritime(synth.MaritimeConfig{
		Seed: 777, Vessels: 12, Duration: 2 * time.Hour,
		Rendezvous: -1, Loiterers: 2, GapProb: 0.2, OutlierProb: 0.001,
	})
}

// ingestAll runs the whole wire stream through a one-worker Ingestor.
func ingestAll(t testing.TB, p *Pipeline, sc *synth.Scenario) {
	t.Helper()
	p.Ingest(sc.WireTimed)
}

// reconstruct rebuilds an approximate trajectory from a synopsis: the
// critical points in time order, the first of each timestamp, whose At()
// interpolation stands in for the dropped reports.
func reconstruct(points []synopses.CriticalPoint) *model.Trajectory {
	tr := &model.Trajectory{}
	for _, cp := range points {
		tr.Points = append(tr.Points, cp.Pos)
	}
	slices.SortStableFunc(tr.Points, func(a, b model.Position) int { return cmp.Compare(a.TS, b.TS) })
	tr.Points = slices.CompactFunc(tr.Points, func(a, b model.Position) bool { return a.TS == b.TS })
	return tr
}

// synopsisRMSE scores, at a 10 s cadence inside each entity's synopsis
// span, the trajectory reconstructed from its critical points and the raw
// observed stream against the noise-free truth: root mean square error in
// metres of each. The raw stream still carries the outliers the noise gate
// removes before the synopsis tap, so the synopsis can beat it.
func synopsisRMSE(t *testing.T, hub *SynopsisHub, sc *synth.Scenario) (rec, raw float64) {
	observed := map[string]*model.Trajectory{}
	for _, p := range sc.Positions {
		if observed[p.EntityID] == nil {
			observed[p.EntityID] = &model.Trajectory{}
		}
		observed[p.EntityID].Points = append(observed[p.EntityID].Points, p)
	}
	var recN, rawN int
	for _, s := range hub.Summaries() {
		es, err := hub.Synopsis(s.Entity)
		if err != nil {
			t.Fatal(err)
		}
		truth, r := sc.Truth[s.Entity], reconstruct(es.Points)
		if truth == nil || r.Len() < 2 {
			continue
		}
		for ts := r.Start(); ts <= r.End(); ts += 10_000 {
			actual, ok := truth.At(ts)
			if !ok {
				continue
			}
			if pos, ok := r.At(ts); ok {
				rec += math.Pow(geo.Haversine(pos.Pt, actual.Pt), 2)
				recN++
			}
			if pos, ok := observed[s.Entity].At(ts); ok {
				raw += math.Pow(geo.Haversine(pos.Pt, actual.Pt), 2)
				rawN++
			}
		}
	}
	if recN == 0 || rawN == 0 {
		t.Fatalf("no samples scored: %d reconstructed, %d raw", recN, rawN)
	}
	return math.Sqrt(rec / float64(recN)), math.Sqrt(raw / float64(rawN))
}

// TestSynopsisHubCompressesStream is the subsystem acceptance in miniature:
// the hub sees every gated report, emits an order of magnitude fewer
// critical points, and serves consistent per-entity synopses. It runs on
// the synopses world and on the worlds of the volume-reduction claim
// (critical points cut the surveillance stream by an order of magnitude
// without destroying the trajectory signal): 15 vessels for an hour with
// frequent AIS gaps, on the world the claim was first measured on (seed
// 141) and three held-out seeds, where the trajectory rebuilt from the
// critical points alone also stays within 10× (+500 m) of the raw
// stream's RMSE against the truth. The rings are sized to keep every
// critical point, so the rebuild sees the whole synopsis.
func TestSynopsisHubCompressesStream(t *testing.T) {
	t.Run("seed 777", func(t *testing.T) { synopsisHubCompresses(t, synopsesWorld(t)) })
	for _, seed := range []int64{141, 1141, 2141, 3141} {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) {
			synopsisHubCompresses(t, synth.GenMaritime(synth.MaritimeConfig{
				Seed: seed, Vessels: 15, Duration: time.Hour, Rendezvous: -1, GapProb: 0.15,
			}))
		})
	}
}

func synopsisHubCompresses(t *testing.T, sc *synth.Scenario) {
	p := New(Config{Domain: model.Maritime, Synopses: SynopsesConfig{Enabled: true, RingLen: 1 << 16}})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	ingestAll(t, p, sc)

	hub := p.SynopsisHub
	if hub == nil {
		t.Fatal("SynopsisHub not constructed")
	}
	st := hub.Stats()
	gated := p.Stats.Snapshot()
	if st.Observed != gated.Decoded-gated.Gated {
		t.Errorf("hub observed %d, want every gated report (%d)", st.Observed, gated.Decoded-gated.Gated)
	}
	if st.Critical == 0 {
		t.Fatal("no critical points on a scenario with stops, turns and gaps")
	}
	if r := st.Ratio(); r < 5 {
		t.Errorf("compression ratio = %.1f, want ≥ 5x on synthetic maritime traffic", r)
	}
	var perKind int64
	for _, n := range st.ByKind {
		perKind += n
	}
	if perKind != st.Critical {
		t.Errorf("per-kind counters sum to %d, total says %d", perKind, st.Critical)
	}

	// Per-entity reads agree with the batch view.
	sums := hub.Summaries()
	if len(sums) != st.Entities || len(sums) == 0 {
		t.Fatalf("summaries = %d entities, stats say %d", len(sums), st.Entities)
	}
	if !sort.SliceIsSorted(sums, func(i, j int) bool { return sums[i].Entity < sums[j].Entity }) {
		t.Error("summaries not sorted by entity")
	}
	var raw, critical int64
	for _, s := range sums {
		raw += s.Raw
		critical += s.Critical
		es, err := hub.Synopsis(s.Entity)
		if err != nil {
			t.Fatalf("Synopsis(%s): %v", s.Entity, err)
		}
		if es.Raw != s.Raw || es.Critical != s.Critical || int64(len(es.Points))+es.Evicted != es.Critical {
			t.Errorf("entity %s: detail %+v disagrees with summary %+v", s.Entity, es, s)
		}
		for i := 1; i < len(es.Points); i++ {
			if es.Points[i].Pos.TS < es.Points[i-1].Pos.TS {
				t.Errorf("entity %s: ring out of time order at %d", s.Entity, i)
			}
		}
	}
	if raw != st.Observed || critical != st.Critical {
		t.Errorf("entity totals raw=%d critical=%d, hub says %d/%d", raw, critical, st.Observed, st.Critical)
	}

	if _, err := hub.Synopsis("999999999"); !errors.Is(err, ErrNoSynopsis) {
		t.Errorf("unknown entity error = %v, want ErrNoSynopsis", err)
	}

	rebuilt, observed := synopsisRMSE(t, hub, sc)
	t.Logf("ratio %.1f (%v), RMSE %.0f m rebuilt, %.0f m raw", st.Ratio(), st.ByKind, rebuilt, observed)
	if rebuilt <= 0 || observed <= 0 || rebuilt > 10*observed+500 {
		t.Errorf("RMSE %.0f m rebuilt from critical points, %.0f m raw; want both above 0 and the first within 10× +500 m of the second", rebuilt, observed)
	}
}

// TestSynopsisRingBound: an entity exceeding RingLen keeps only the newest
// points, counts the overflow, and lifetime accounting stays exact.
func TestSynopsisRingBound(t *testing.T) {
	hub := NewSynopsisHub(model.Maritime, SynopsesConfig{Enabled: true, RingLen: 4})
	// Alternate speed levels hard enough that every other report is a
	// speed change.
	for i := 0; i < 100; i++ {
		speed := 5.0
		if i%2 == 1 {
			speed = 15.0
		}
		hub.Observe(model.Position{EntityID: "V", TS: int64(i+1) * 10_000, SpeedMS: speed, CourseDeg: 90})
	}
	es, err := hub.Synopsis("V")
	if err != nil {
		t.Fatal(err)
	}
	if len(es.Points) != 4 {
		t.Fatalf("ring = %d points, want the 4-point bound", len(es.Points))
	}
	if es.Evicted == 0 || es.Critical != int64(len(es.Points))+es.Evicted {
		t.Errorf("accounting: %+v", es)
	}
	// The ring holds the newest points.
	if last := es.Points[len(es.Points)-1].Pos.TS; last != 100*10_000 {
		t.Errorf("newest ring point TS = %d, want 1000000", last)
	}
}

// TestSynopsisFanoutGating: critical points leave with their batch through
// the Ingestor's one callback — every point the hub records reaches it
// exactly once, in each entity's ring order, at 1 and 4 workers — and the
// compression ratio reads observed:1 while no critical point has been
// detected (a low ratio must mean weak compression, never perfect
// compression).
func TestSynopsisFanoutGating(t *testing.T) {
	sc := synopsesWorld(t)
	for _, workers := range []int{1, 4} {
		p := New(Config{Domain: model.Maritime, Synopses: SynopsesConfig{Enabled: true, RingLen: 1 << 16}})
		var mu sync.Mutex
		got := map[string][]synopses.CriticalPoint{}
		ing := p.NewIngestor(IngestorConfig{Workers: workers, QueueLen: 1 << 16, OnEvents: func(_ []model.Event, cps []synopses.CriticalPoint) {
			mu.Lock()
			for _, cp := range cps {
				got[cp.Pos.EntityID] = append(got[cp.Pos.EntityID], cp)
			}
			mu.Unlock()
		}})
		feed(t, ing, nil, sc.WireTimed)
		ing.Close()
		st := p.SynopsisHub.Stats()
		if st.Critical == 0 {
			t.Fatal("stream produced no critical points; test is vacuous")
		}
		for _, es := range p.SynopsisHub.Summaries() {
			full, err := p.SynopsisHub.Synopsis(es.Entity)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got[es.Entity], full.Points) {
				t.Errorf("%d workers, entity %s: callback got %d points, ring holds %d", workers, es.Entity, len(got[es.Entity]), len(full.Points))
			}
		}
		delivered := 0
		for _, cps := range got {
			delivered += len(cps)
		}
		if int64(delivered) != st.Critical {
			t.Errorf("%d workers: callback got %d points, hub detected %d", workers, delivered, st.Critical)
		}
	}

	// Ratio semantics at zero critical points: a steadily cruising entity
	// reads observed:1, not 0.
	cruise := NewSynopsisHub(model.Maritime, SynopsesConfig{Enabled: true})
	for i := 0; i < 50; i++ {
		cruise.Observe(model.Position{EntityID: "C", TS: int64(i+1) * 10_000, SpeedMS: 8, CourseDeg: 90})
	}
	st := cruise.Stats()
	if st.Critical != 0 {
		t.Fatalf("cruise emitted %d critical points", st.Critical)
	}
	if st.Ratio() != float64(st.Observed) || st.Ratio() == 0 {
		t.Errorf("zero-critical ratio = %v, want observed (%d):1", st.Ratio(), st.Observed)
	}
	es, err := cruise.Synopsis("C")
	if err != nil {
		t.Fatal(err)
	}
	if es.Ratio() != float64(es.Raw) {
		t.Errorf("zero-critical entity ratio = %v, want raw (%d):1", es.Ratio(), es.Raw)
	}
}

// TestSynopsisStaleEviction: entities silent past the staleness horizon are
// dropped on the periodic sweep.
func TestSynopsisStaleEviction(t *testing.T) {
	hub := NewSynopsisHub(model.Maritime, SynopsesConfig{Enabled: true, MaxStale: time.Minute})
	hub.Observe(model.Position{EntityID: "OLD", TS: 1000, SpeedMS: 8, CourseDeg: 90})
	// Fresh entity advances stream time far past OLD's horizon and trips
	// the sweep counter.
	for i := 0; i < evictCheckEvery; i++ {
		hub.Observe(model.Position{
			EntityID: "NEW", TS: int64(10*time.Minute.Milliseconds()) + int64(i)*1000,
			SpeedMS: 8, CourseDeg: 90,
		})
	}
	if _, err := hub.Synopsis("OLD"); !errors.Is(err, ErrNoSynopsis) {
		t.Errorf("stale entity still present: err = %v", err)
	}
	if _, err := hub.Synopsis("NEW"); err != nil {
		t.Errorf("live entity evicted: %v", err)
	}
}

// TestSynopsisDurableRecovery: serial logged ingest with a mid-stream
// snapshot, crash, recover + tail replay — the recovered hub must export
// bit-identical state to the uninterrupted run.
func TestSynopsisDurableRecovery(t *testing.T) {
	sc := synopsesWorld(t)
	dataDir := t.TempDir()
	cfg := Config{Domain: model.Maritime, Synopses: SynopsesConfig{Enabled: true}}

	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p1 := New(cfg)
	p1.InstallAreas(sc.Areas)
	p1.InstallEntities(sc.Entities)
	cutAt := len(sc.WireTimed) * 6 / 10
	ing := p1.NewIngestor(IngestorConfig{Workers: 1})
	feed(t, ing, log, sc.WireTimed[:cutAt+1])
	if err := log.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := p1.WriteSnapshot(dataDir, ing, log); err != nil {
		t.Fatal(err)
	}
	feed(t, ing, log, sc.WireTimed[cutAt+1:])
	ing.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	p2 := New(cfg)
	p2.InstallAreas(sc.Areas)
	p2.InstallEntities(sc.Entities)
	rs, err := p2.Recover(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotLSN == 0 || rs.Replayed == 0 {
		t.Fatalf("recovery did not exercise snapshot + tail: %+v", rs)
	}

	want, got := p1.SynopsisHub.exportState(), p2.SynopsisHub.exportState()
	if !reflect.DeepEqual(want, got) {
		t.Errorf("recovered synopsis state diverges: %d vs %d entities, observed %d vs %d, critical %d vs %d",
			len(want.Entities), len(got.Entities), want.Observed, got.Observed, want.Critical, got.Critical)
	}
	// And the serving read path agrees entity by entity.
	for _, s := range p1.SynopsisHub.Summaries() {
		a, errA := p1.SynopsisHub.Synopsis(s.Entity)
		b, errB := p2.SynopsisHub.Synopsis(s.Entity)
		if errA != nil || errB != nil {
			t.Fatalf("synopsis(%s): %v / %v", s.Entity, errA, errB)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("entity %s synopsis diverges after recovery", s.Entity)
		}
	}
}
