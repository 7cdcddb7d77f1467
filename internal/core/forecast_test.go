package core

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

// straightTrack builds a constant-velocity history heading east at the
// given report cadence.
func straightTrack(entity string, n int, stepS int, speedMS float64) []model.Position {
	out := make([]model.Position, n)
	pt := geo.Pt(24.0, 37.5)
	for i := range out {
		out[i] = model.Position{
			EntityID: entity, TS: int64(i*stepS) * 1000, Pt: pt,
			SpeedMS: speedMS, CourseDeg: 90, Status: model.StatusUnderway,
		}
		pt = geo.Destination(pt, 90, speedMS*float64(stepS))
	}
	return out
}

// The online forecasting claim: the forecasts GET /forecast serves, read
// from the stream-fed hub at ten checkpoints while a 15-vessel hour is
// ingested, are scored against the noise-free truth at their target
// instants (underway targets only). Every horizon gets samples, 5 min
// forecasts err less than 20 min ones, and under 1 km. On the world the
// claim was first measured on (seed 112) and three held-out seeds.
func TestServingForecastAccuracyOnSyntheticWorld(t *testing.T) {
	horizons := []time.Duration{5 * time.Minute, 10 * time.Minute, 20 * time.Minute}
	for _, seed := range []int64{112, 1112, 2112, 3112} {
		sc := synth.GenMaritime(synth.MaritimeConfig{Seed: seed, Vessels: 15, Duration: time.Hour, Rendezvous: -1})
		p := New(Config{Domain: model.Maritime, Forecast: ForecastConfig{Enabled: true}})
		p.InstallAreas(sc.Areas)
		p.InstallEntities(sc.Entities)
		ing := p.NewIngestor(IngestorConfig{Workers: 1})
		errSum := make([]float64, len(horizons))
		n := make([]int, len(horizons))
		for lines, step := sc.WireTimed, len(sc.WireTimed)/10; len(lines) > 0; {
			k := min(step, len(lines))
			feed(t, ing, nil, lines[:k])
			if lines = lines[k:]; len(lines) == 0 {
				break
			}
			for hi, h := range horizons {
				all, err := p.ForecastHub.ForecastAll(h)
				if err != nil {
					t.Fatal(err)
				}
				for _, f := range all {
					tr := sc.Truth[f.Entity]
					if tr == nil || f.TS > tr.End() {
						continue
					}
					if actual, ok := tr.At(f.TS); ok && actual.SpeedMS > 1 {
						errSum[hi] += geo.Dist3D(f.Pt, actual.Pt)
						n[hi]++
					}
				}
			}
		}
		ing.Close()
		for hi := range horizons {
			if n[hi] == 0 {
				t.Fatalf("seed %d: horizon %v has no samples", seed, horizons[hi])
			}
			errSum[hi] /= float64(n[hi])
		}
		t.Logf("seed %d: mean error %.0f / %.0f / %.0f m at 5 / 10 / 20 min", seed, errSum[0], errSum[1], errSum[2])
		if errSum[0] >= errSum[2] || errSum[0] > 1000 {
			t.Errorf("seed %d: mean error %.0f m at 5 min, %.0f m at 20 min; want growing, and under 1 km at 5 min", seed, errSum[0], errSum[2])
		}
	}
}

// TestChooseMethodLadder is the table-driven model-selection policy test:
// the fallback ladder climbs dead-reckoning → kinematic → route-network →
// knn-history with history length, and never chooses a model that has
// learned nothing.
func TestChooseMethodLadder(t *testing.T) {
	h := NewForecastHub(synth.MaritimeBox(), ForecastConfig{
		Enabled:             true,
		KinematicMinHistory: 3,
		RouteMinHistory:     8,
		KNNMinHistory:       16,
	})
	cases := []struct {
		name               string
		histLen            int
		routeCells, knnPts int
		want               string
	}{
		{"no history", 0, 100, 100, MethodDeadReckoning},
		{"single report", 1, 100, 100, MethodDeadReckoning},
		{"below kinematic floor", 2, 100, 100, MethodDeadReckoning},
		{"kinematic floor", 3, 100, 100, MethodKinematic},
		{"below route floor", 7, 100, 100, MethodKinematic},
		{"route floor", 8, 100, 100, MethodRouteNetwork},
		{"route floor, untrained route", 8, 0, 100, MethodKinematic},
		{"below knn floor", 15, 100, 100, MethodRouteNetwork},
		{"knn floor", 16, 100, 100, MethodHistoryKNN},
		{"knn floor, empty knn", 16, 100, 0, MethodRouteNetwork},
		{"knn floor, both models empty", 16, 0, 0, MethodKinematic},
		{"long history, everything empty", 100, 0, 0, MethodKinematic},
	}
	for _, tc := range cases {
		if got := h.ChooseMethod(tc.histLen, tc.routeCells, tc.knnPts); got != tc.want {
			t.Errorf("%s: ChooseMethod(%d, %d, %d) = %s, want %s",
				tc.name, tc.histLen, tc.routeCells, tc.knnPts, got, tc.want)
		}
	}
}

// TestForecastHubStraightTrack checks the acceptance bound: a constant-
// velocity track forecast at a 10-minute horizon lands within 1% of the
// distance travelled of the ground-truth position.
func TestForecastHubStraightTrack(t *testing.T) {
	h := NewForecastHub(synth.MaritimeBox(), ForecastConfig{Enabled: true})
	const speed, stepS = 8.0, 10
	track := straightTrack("V1", 40, stepS, speed)
	for _, p := range track {
		h.Observe(p)
	}
	last := track[len(track)-1]
	horizon := 10 * time.Minute
	res, err := h.Forecast("V1", horizon)
	if err != nil {
		t.Fatal(err)
	}
	truth := geo.Destination(last.Pt, 90, speed*horizon.Seconds())
	travelled := speed * horizon.Seconds()
	if d := geo.Haversine(res.Pt, truth); d > travelled/100 {
		t.Errorf("forecast error %.1f m, want within 1%% of %.0f m travelled", d, travelled)
	}
	if res.TS != last.TS+horizon.Milliseconds() {
		t.Errorf("target TS = %d, want %d", res.TS, last.TS+horizon.Milliseconds())
	}
	if res.Method == "" || res.RadiusM <= 0 || res.HistoryLen == 0 {
		t.Errorf("degenerate result: %+v", res)
	}

	// Unknown entity and out-of-range horizons are rejected, not guessed.
	if _, err := h.Forecast("NOPE", horizon); err == nil {
		t.Error("unknown entity must error")
	}
	if _, err := h.Forecast("V1", 0); err == nil {
		t.Error("zero horizon must error")
	}
	if _, err := h.Forecast("V1", maxHorizon+time.Second); err == nil {
		t.Error("beyond-cap horizon must error")
	}
}

// TestForecastMethodTagHonest pins the fallback-at-prediction-time
// behaviour: an entity with KNN-grade history whose surroundings hold no
// course-compatible archival future must NOT be tagged knn-history — the
// ladder falls through to a model that actually produced the point.
func TestForecastMethodTagHonest(t *testing.T) {
	h := NewForecastHub(synth.MaritimeBox(), ForecastConfig{Enabled: true})
	// A distant entity populates the KNN index far away.
	for _, p := range straightTrack("REMOTE", 40, 10, 8) {
		p.EntityID = "REMOTE"
		p.Pt.Lat += 3
		h.Observe(p)
	}
	// The queried entity has plenty of history (>= KNNMinHistory) but no
	// archival neighbour has recorded future near it.
	for _, p := range straightTrack("LOCAL", 20, 10, 8) {
		h.Observe(p)
	}
	res, err := h.Forecast("LOCAL", 10*time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.Method == MethodHistoryKNN {
		t.Errorf("method = %s for an entity the KNN cannot actually serve", res.Method)
	}
}

// TestForecastHubHistoryRing checks that the per-entity history stays
// bounded and keeps the newest reports.
func TestForecastHubHistoryRing(t *testing.T) {
	h := NewForecastHub(synth.MaritimeBox(), ForecastConfig{Enabled: true, HistoryLen: 8})
	track := straightTrack("V1", 50, 10, 8)
	for _, p := range track {
		h.Observe(p)
	}
	res, err := h.Forecast("V1", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.HistoryLen != 8 {
		t.Errorf("history len = %d, want ring bound 8", res.HistoryLen)
	}
	if res.LastTS != track[len(track)-1].TS {
		t.Errorf("last TS = %d, want newest report %d", res.LastTS, track[len(track)-1].TS)
	}
}

// TestForecastAllLiveEntities checks the batch path: only entities with a
// recent report are forecast.
func TestForecastAllLiveEntities(t *testing.T) {
	h := NewForecastHub(synth.MaritimeBox(), ForecastConfig{Enabled: true, MaxStale: 10 * time.Minute})
	for _, p := range straightTrack("LIVE", 20, 10, 8) {
		p.TS += 2 * 3600 * 1000 // ends two hours in
		h.Observe(p)
	}
	for _, p := range straightTrack("STALE", 20, 10, 8) {
		h.Observe(p) // ends at t≈190s, hours before LIVE's last report
	}
	all, err := h.ForecastAll(5 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 1 || all[0].Entity != "LIVE" {
		t.Errorf("ForecastAll = %+v, want exactly the live entity", all)
	}
}

// TestForecastSnapshotRoundTrip is the durability contract at the core
// level: a pipeline with forecasting enabled snapshots its hub, and a fresh
// pipeline recovering from that snapshot (no WAL tail) forecasts
// identically — warm history, learned models and Markov state all survive.
func TestForecastSnapshotRoundTrip(t *testing.T) {
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 7, Vessels: 8, Duration: time.Hour, Rendezvous: -1,
	})
	cfg := Config{Domain: model.Maritime, Forecast: ForecastConfig{Enabled: true}}
	dataDir := t.TempDir()
	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p := New(cfg)
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	ing := p.NewIngestor(IngestorConfig{Workers: 1})
	feed(t, ing, log, sc.WireTimed)
	ing.Close()
	if _, err := idleSnapshot(p, dataDir, log); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	if p.ForecastHub.Observed() == 0 || p.ForecastHub.Entities() == 0 {
		t.Fatal("hub saw nothing — the ingest tap is dead")
	}

	p2 := New(cfg)
	p2.InstallAreas(sc.Areas)
	p2.InstallEntities(sc.Entities)
	rs, err := p2.Recover(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.Replayed != 0 {
		t.Fatalf("expected snapshot-only recovery, replayed %d", rs.Replayed)
	}

	if got, want := p2.ForecastHub.Observed(), p.ForecastHub.Observed(); got != want {
		t.Errorf("recovered observed = %d, want %d", got, want)
	}
	if got, want := p2.ForecastHub.Entities(), p.ForecastHub.Entities(); got != want {
		t.Errorf("recovered entities = %d, want %d", got, want)
	}
	r1, k1 := p.ForecastHub.ModelStats()
	r2, k2 := p2.ForecastHub.ModelStats()
	if r1 != r2 || k1 != k2 {
		t.Errorf("recovered model stats (%d,%d), want (%d,%d)", r2, k2, r1, k1)
	}
	// Every live entity forecasts identically pre- and post-recovery.
	before, err := p.ForecastHub.ForecastAll(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("no live entities to compare")
	}
	for _, bf := range before {
		af, err := p2.ForecastHub.Forecast(bf.Entity, 10*time.Minute)
		if err != nil {
			t.Fatalf("recovered hub lost %s: %v", bf.Entity, err)
		}
		if af != bf {
			t.Errorf("forecast diverged after recovery:\n got %+v\nwant %+v", af, bf)
		}
	}

	// A state.json that still carries each track's packed history, as
	// snapshots written before the field went did, recovers to the same hub.
	addTrackHistory(t, dataDir, p.ForecastHub)
	p3 := New(cfg)
	p3.InstallAreas(sc.Areas)
	p3.InstallEntities(sc.Entities)
	if _, err := p3.Recover(dataDir); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(p3.ForecastHub.exportState(), p2.ForecastHub.exportState()) {
		t.Error("a state.json with track histories recovers to a different hub")
	}
}

// addTrackHistory rewrites the newest snapshot's state.json so that every
// forecast track carries "history", its entity's last HistoryLen reports
// packed as they once were.
func addTrackHistory(t *testing.T, dataDir string, h *ForecastHub) {
	t.Helper()
	dir, _, ok := latestSnapshot(SnapshotsDir(dataDir))
	if !ok {
		t.Fatal("no snapshot")
	}
	path := filepath.Join(dir, "state.json")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]json.RawMessage
	var fs map[string]json.RawMessage
	var tracks map[string]map[string]any
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(st["forecast"], &fs); err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(fs["tracks"], &tracks); err != nil {
		t.Fatal(err)
	}
	if len(tracks) == 0 {
		t.Fatal("no forecast tracks in state.json")
	}
	for id, tr := range tracks {
		tr["history"] = model.PackPositions(h.knn.Recent(id, h.cfg.HistoryLen, nil))
	}
	mustRaw := func(v any) json.RawMessage {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	fs["tracks"] = mustRaw(tracks)
	st["forecast"] = mustRaw(fs)
	if err := os.WriteFile(path, mustRaw(st), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestForecastRecoverWithTailReplay proves the replay path rebuilds hub
// state the snapshot missed: snapshot mid-stream, keep ingesting, recover,
// and the recovered hub must equal the uninterrupted one.
func TestForecastRecoverWithTailReplay(t *testing.T) {
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 8, Vessels: 6, Duration: time.Hour, Rendezvous: -1,
	})
	cfg := Config{Domain: model.Maritime, Forecast: ForecastConfig{Enabled: true}}
	dataDir := t.TempDir()
	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p := New(cfg)
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	snapAt := len(sc.WireTimed) / 2
	ing := p.NewIngestor(IngestorConfig{Workers: 1})
	feed(t, ing, log, sc.WireTimed[:snapAt+1])
	if _, err := p.WriteSnapshot(dataDir, ing, log); err != nil {
		t.Fatal(err)
	}
	feed(t, ing, log, sc.WireTimed[snapAt+1:])
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
	if rs.Replayed == 0 {
		t.Fatal("tail replay did not run")
	}
	if got, want := p2.ForecastHub.Observed(), p.ForecastHub.Observed(); got != want {
		t.Errorf("recovered observed = %d, want %d", got, want)
	}
	before, err := p.ForecastHub.ForecastAll(10 * time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	for _, bf := range before {
		af, err := p2.ForecastHub.Forecast(bf.Entity, 10*time.Minute)
		if err != nil {
			t.Fatalf("recovered hub lost %s: %v", bf.Entity, err)
		}
		if af != bf {
			t.Errorf("forecast diverged after snapshot+tail recovery:\n got %+v\nwant %+v", af, bf)
		}
	}
}

// TestForecastReadsLastReports is the specification of an entity's
// history: its last HistoryLen reports since the hub last admitted it. The
// test keeps that slice itself, through KNN halvings and stale-entity
// sweeps, and every forecast must be the ladder run over it — before and
// after a snapshot round trip, which must also leave the route network's
// section byte for byte as it was.
func TestForecastReadsLastReports(t *testing.T) {
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 11, Vessels: 20, Duration: 3 * time.Hour, GapProb: 0.6, Rendezvous: -1,
	})
	cfg := ForecastConfig{Enabled: true, HistoryLen: 16, KNNMaxPerEntity: 40, MaxStale: time.Minute}
	h := NewForecastHub(sc.Box, cfg)
	histLen := h.Config().HistoryLen
	horizons := []time.Duration{time.Minute, 10 * time.Minute}

	want := map[string][]model.Position{} // each admitted entity's last reports
	since := map[string]int{}             // reports since admission
	check := func(h *ForecastHub, when string) {
		t.Helper()
		if got := h.Entities(); got != len(want) {
			t.Fatalf("%s: hub holds %d entities, the specification %d", when, got, len(want))
		}
		for id, hist := range want {
			for _, hz := range horizons {
				got, err := h.Forecast(id, hz)
				if err != nil {
					t.Fatalf("%s: %s: %v", when, id, err)
				}
				h.mu.RLock()
				spec := h.forecastLocked(id, h.tracks[id], hist, hz)
				h.mu.RUnlock()
				if got != spec {
					t.Fatalf("%s: %s at %v:\n got %+v\nwant %+v", when, id, hz, got, spec)
				}
			}
		}
	}

	var newest int64
	observed, evicted, halved := 0, 0, false
	for _, p := range sc.Positions {
		if hist := want[p.EntityID]; len(hist) > 0 && p.TS < hist[len(hist)-1].TS {
			continue // the noise gate's per-entity time order
		}
		h.Observe(p)
		observed++
		hist := append(want[p.EntityID], p)
		if len(hist) > histLen {
			hist = hist[len(hist)-histLen:]
		}
		want[p.EntityID] = hist
		since[p.EntityID]++
		halved = halved || since[p.EntityID] > h.Config().KNNMaxPerEntity
		newest = max(newest, p.TS)
		if observed%evictCheckEvery == 0 {
			floor := newest - evictAfterStale*h.Config().MaxStale.Milliseconds()
			for id, hist := range want {
				if hist[len(hist)-1].TS < floor {
					delete(want, id)
					delete(since, id)
					evicted++
				}
			}
		}
		if observed%3000 == 0 {
			check(h, fmt.Sprintf("after %d reports", observed))
		}
	}
	if !halved || evicted == 0 {
		t.Fatalf("halved=%v evicted=%d: the world does not exercise the cap and the sweep", halved, evicted)
	}
	check(h, "at the end")

	data, err := json.Marshal(h.exportState())
	if err != nil {
		t.Fatal(err)
	}
	if streamed := hubStateJSON(t, h); !bytes.Equal(streamed, data) {
		t.Fatalf("the streamed hub state (%d bytes) differs from encoding/json's (%d bytes)", len(streamed), len(data))
	}
	var st forecastHubState
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	h2 := NewForecastHub(sc.Box, cfg)
	if err := h2.restoreState(st); err != nil {
		t.Fatal(err)
	}
	check(h2, "after restore")
	for id := range want {
		if *h2.tracks[id] != *h.tracks[id] {
			t.Fatalf("%s: Markov state after restore %+v, want %+v", id, *h2.tracks[id], *h.tracks[id])
		}
		for _, hz := range horizons {
			before, _ := h.Forecast(id, hz)
			if after, _ := h2.Forecast(id, hz); after != before {
				t.Fatalf("%s at %v after restore:\n got %+v\nwant %+v", id, hz, after, before)
			}
		}
	}
	before, _ := json.Marshal(st.Route)
	after, _ := json.Marshal(h2.exportState().Route)
	if !bytes.Equal(before, after) {
		t.Error("the route section changed across restore → export")
	}
}

// exportState is the hub's forecastHubState as a value, the form a
// snapshot reads and writeState streams.
func (h *ForecastHub) exportState() forecastHubState {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return forecastHubState{
		Tracks:   h.trackStates(),
		Route:    h.route.ExportState(),
		KNN:      h.knn.ExportState(),
		Markov:   h.chain.ExportCounts(),
		Observed: h.observed.Load(),
	}
}

// hubStateJSON returns what writeState writes for h.
func hubStateJSON(t *testing.T, h *ForecastHub) []byte {
	t.Helper()
	var buf bytes.Buffer
	s := &jsonStream{w: bufio.NewWriter(&buf)}
	h.writeState(s)
	if s.fail(s.w.Flush()); s.err != nil {
		t.Fatal(s.err)
	}
	return buf.Bytes()
}

// TestForecastHistorySurvivesHalving: a KNN trajectory halves when it
// outgrows KNNMaxPerEntity, and the history is its tail, so the cap is
// raised to twice the history: a HistoryLen of 3000 under the 4096
// default would otherwise halve to 2 049 reports.
func TestForecastHistorySurvivesHalving(t *testing.T) {
	h := NewForecastHub(synth.MaritimeBox(), ForecastConfig{Enabled: true, HistoryLen: 3000})
	if got := h.Config().KNNMaxPerEntity; got != 6000 {
		t.Fatalf("KNNMaxPerEntity = %d, want 2 × HistoryLen = 6000", got)
	}
	for _, p := range straightTrack("V1", 5000, 10, 8) {
		h.Observe(p)
	}
	res, err := h.Forecast("V1", time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if res.HistoryLen != 3000 {
		t.Errorf("history len = %d, want 3000", res.HistoryLen)
	}
}

// TestForecastHubBytesPerReport bounds the hub's resident heap per gated
// report, on a few long tracks and on many short ones. Each report is held
// once, as a 40-byte pointer-free KNN point, and a vessel's consecutive
// reports in one cell share an index entry; a second copy, an altitude
// column for vessels, an index entry per report, a per-entity
// preallocation or a dense route grid each break one of the bounds.
func TestForecastHubBytesPerReport(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	for _, tc := range []struct {
		entities, reports int
		maxBytes          float64
	}{
		{50, 2000, 60},
		{1000, 20, 100},
	} {
		perReport := hubBytesPerReport(tc.entities, tc.reports)
		t.Logf("%d entities × %d reports: %.0f B/report", tc.entities, tc.reports, perReport)
		if perReport > tc.maxBytes {
			t.Errorf("%d entities × %d reports: %.0f B/report, want at most %.0f",
				tc.entities, tc.reports, perReport, tc.maxBytes)
		}
	}
}

// hubBytesPerReport feeds a default hub entities moving tracks of reports
// reports each, at 10 s cadence, and returns the live heap it holds per
// report.
func hubBytesPerReport(entities, reports int) float64 {
	box := synth.MaritimeBox()
	ids := make([]string, entities)
	pts := make([]geo.Point, entities)
	for v := range ids {
		ids[v] = fmt.Sprintf("2370%05d", v)
		f := float64(v) / float64(entities)
		pts[v] = geo.Pt(box.MinLon+(0.1+0.8*f)*(box.MaxLon-box.MinLon), box.MinLat+(0.9-0.8*f)*(box.MaxLat-box.MinLat))
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	h := NewForecastHub(box, ForecastConfig{Enabled: true})
	for i := 0; i < reports; i++ {
		for v, id := range ids {
			course := float64(v*37%360) + float64(i%60)
			h.Observe(model.Position{
				EntityID: id, TS: int64(i) * 10_000, Pt: pts[v],
				SpeedMS: 6, CourseDeg: course, Status: model.StatusUnderway,
			})
			pts[v] = geo.Destination(pts[v], course, 60)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(h)
	return float64(after.HeapAlloc-before.HeapAlloc) / float64(entities*reports)
}
