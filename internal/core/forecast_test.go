package core

import (
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
	if _, err := h.Forecast("V1", h.Config().MaxHorizon+time.Second); err == nil {
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

// TestForecastHubHistoryRing checks that the per-entity ring stays bounded
// and keeps the newest reports.
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
	cfg := Config{Domain: model.Maritime, Forecast: ForecastConfig{Enabled: true, GridCols: 64, GridRows: 64}}
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
}

// TestForecastRecoverWithTailReplay proves the replay path rebuilds hub
// state the snapshot missed: snapshot mid-stream, keep ingesting, recover,
// and the recovered hub must equal the uninterrupted one.
func TestForecastRecoverWithTailReplay(t *testing.T) {
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 8, Vessels: 6, Duration: time.Hour, Rendezvous: -1,
	})
	cfg := Config{Domain: model.Maritime, Forecast: ForecastConfig{Enabled: true, GridCols: 64, GridRows: 64}}
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
