package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

// fullConfig is a pipeline with every stage that snapshots state on.
var fullConfig = Config{
	Domain:   model.Maritime,
	Forecast: ForecastConfig{Enabled: true},
	Synopses: SynopsesConfig{Enabled: true},
}

// snapshotNames lists the snapshot root.
func snapshotNames(t *testing.T, dataDir string) []string {
	t.Helper()
	ents, err := os.ReadDir(SnapshotsDir(dataDir))
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestSecondSnapshotAtTheSameCut: two snapshots with no append between them
// share a cut and so a directory name, and the first has already pruned the
// log below it. A crash between the steps that swap the second in must leave
// a completed snapshot behind, or every line under the cut is gone.
func TestSecondSnapshotAtTheSameCut(t *testing.T) {
	sc := durableWorld(t)
	dataDir := t.TempDir()
	// Small segments, so that the first snapshot really deletes log.
	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true, SegmentBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	p1 := newPrimed(sc)
	lines := sc.WireTimed[:3000]
	ing := p1.NewIngestor(IngestorConfig{Workers: 1})
	feed(t, ing, log, lines)
	ing.Close()
	if err := log.Commit(); err != nil {
		t.Fatal(err)
	}
	before := log.Segments()
	first, err := idleSnapshot(p1, dataDir, log)
	if err != nil {
		t.Fatal(err)
	}
	if log.Segments() >= before {
		t.Fatalf("the first snapshot pruned no log (%d segments before, %d after)", before, log.Segments())
	}

	// The second snapshot dies after moving the first aside.
	calls := 0
	renameDir = func(from, to string) error {
		if calls++; calls > 1 {
			return errors.New("injected crash")
		}
		return os.Rename(from, to)
	}
	t.Cleanup(func() { renameDir = os.Rename })
	if _, err := idleSnapshot(p1, dataDir, log); err == nil || calls != 2 {
		t.Fatalf("second snapshot: err %v after %d renames, want the injected failure at the second", err, calls)
	}
	if names := snapshotNames(t, dataDir); len(names) != 1 || names[0] != filepath.Base(first.Dir)+prevSuffix {
		t.Fatalf("snapshot root after the crash: %v", names)
	}
	p2 := newPrimed(sc)
	rs, err := p2.Recover(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotLSN != first.CutLSN || p2.Stats.Snapshot() != p1.Stats.Snapshot() || !bytes.Equal(exportNT(t, p2), exportNT(t, p1)) {
		t.Errorf("recovery after the crash: %+v, counters %+v, want the first snapshot's state %+v", rs, p2.Stats.Snapshot(), p1.Stats.Snapshot())
	}

	// The next snapshot at that cut goes through and leaves only itself.
	renameDir = os.Rename
	third, err := idleSnapshot(p1, dataDir, log)
	if err != nil {
		t.Fatal(err)
	}
	if names := snapshotNames(t, dataDir); third.Dir != first.Dir || len(names) != 1 || names[0] != filepath.Base(first.Dir) {
		t.Errorf("snapshot root after a third snapshot at the cut: %v", names)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestStaleSnapshotTempsAreSwept: a kill -9 mid-snapshot leaves a .tmp-*
// directory of up to a snapshot's size. Recovery and the next snapshot
// remove it; neither is disturbed by it.
func TestStaleSnapshotTempsAreSwept(t *testing.T) {
	sc := durableWorld(t)
	dataDir := t.TempDir()
	log, err := wal.Open(WALDir(dataDir), wal.Options{}) // fsync on: the snapshot syncs too
	if err != nil {
		t.Fatal(err)
	}
	if !log.Syncs() {
		t.Fatal("a log opened with default options does not sync")
	}
	p1 := newPrimed(sc)
	ing := p1.NewIngestor(IngestorConfig{Workers: 1})
	feed(t, ing, log, sc.WireTimed[:1500])
	ing.Close()
	if err := log.Commit(); err != nil {
		t.Fatal(err)
	}
	plant := func() string {
		stale := filepath.Join(SnapshotsDir(dataDir), ".tmp-1234567")
		if err := os.MkdirAll(stale, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(stale, "shard-000.blk"), []byte(strings.Repeat("x", 1<<16)), 0o644); err != nil {
			t.Fatal(err)
		}
		return stale
	}
	stale := plant()
	info, err := idleSnapshot(p1, dataDir, log)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("the snapshot left the stale temp directory behind (%v)", err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	plant()
	p2 := newPrimed(sc)
	rs, err := p2.Recover(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if names := snapshotNames(t, dataDir); len(names) != 1 || names[0] != filepath.Base(info.Dir) {
		t.Errorf("snapshot root after recovery: %v", names)
	}
	if rs.SnapshotLSN != info.CutLSN || p2.Stats.Snapshot() != p1.Stats.Snapshot() || !bytes.Equal(exportNT(t, p2), exportNT(t, p1)) {
		t.Errorf("recovery beside a stale temp directory: %+v, counters %+v, want %+v", rs, p2.Stats.Snapshot(), p1.Stats.Snapshot())
	}
}

// The benchmark's sparse world (bench/world.go): fifty vessels reporting
// every second with 5 m of GPS noise, forecasting and synopses on — the
// durable-sparse workload's daemon at the moment of its snapshot.
const sparseLines = 54500

func sparseWorld(tb testing.TB, lines int) (*Pipeline, *synth.Scenario, string, *wal.Log) {
	tb.Helper()
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 2, Vessels: 50, Duration: time.Duration(lines/2500+2) * time.Minute,
		ReportEvery: time.Second, NoiseSigmaM: 5,
	})
	if len(sc.WireTimed) < lines {
		tb.Fatalf("world has %d lines, want %d", len(sc.WireTimed), lines)
	}
	dataDir := tb.TempDir()
	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		tb.Fatal(err)
	}
	tb.Cleanup(func() { log.Close() })
	p := New(fullConfig)
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	ing := p.NewIngestor(IngestorConfig{Workers: 1})
	feed(tb, ing, log, sc.WireTimed[:lines])
	ing.Close()
	if err := log.Commit(); err != nil {
		tb.Fatal(err)
	}
	return p, sc, dataDir, log
}

// treeBytes sums the sizes of the files under dir.
func treeBytes(tb testing.TB, dir string) (n int64) {
	tb.Helper()
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() {
			var fi fs.FileInfo
			if fi, err = d.Info(); err == nil {
				n += fi.Size()
			}
		}
		return err
	})
	if err != nil {
		tb.Fatal(err)
	}
	return n
}

// BenchmarkSnapshot is one WriteSnapshot of the sparse world: what ingest
// waits for on POST /snapshot, and what the daemon's peak memory is made of.
func BenchmarkSnapshot(b *testing.B) {
	p, _, dataDir, log := sparseWorld(b, sparseLines)
	b.ReportAllocs()
	b.ResetTimer()
	var info SnapshotInfo
	for i := 0; i < b.N; i++ {
		var err error
		if info, err = idleSnapshot(p, dataDir, log); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(treeBytes(b, info.Dir))/sparseLines, "bytes/line")
}

// BenchmarkRecover is one Recover from that snapshot (no log tail).
func BenchmarkRecover(b *testing.B) {
	p, sc, dataDir, log := sparseWorld(b, sparseLines)
	if _, err := idleSnapshot(p, dataDir, log); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		p2 := New(fullConfig)
		p2.InstallAreas(sc.Areas)
		p2.InstallEntities(sc.Entities)
		b.StartTimer()
		if rs, err := p2.Recover(dataDir); err != nil || rs.SnapshotTriples == 0 {
			b.Fatalf("recover: %+v, %v", rs, err)
		}
	}
}

// TestSnapshotAllocBudget: a snapshot is written while ingest waits and its
// garbage is the daemon's peak memory, so what it allocates is bounded by
// what it writes. (The text formats before format 3 allocated five times
// their 31 MB.)
func TestSnapshotAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	p, _, dataDir, log := sparseWorld(t, 12000)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	info, err := idleSnapshot(p, dataDir, log)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	wrote := treeBytes(t, info.Dir)
	allocated := int64(after.TotalAlloc - before.TotalAlloc)
	t.Logf("snapshot of %d lines: wrote %d bytes (%d a line), allocated %d", 12000, wrote, wrote/12000, allocated)
	if allocated > 2*wrote {
		t.Errorf("one snapshot allocated %d bytes to write %d: over 2×", allocated, wrote)
	}
}

// TestStateJSONIsStreamedByteForByte: writeState streams state.json a
// section at a time; the file is byte for byte what encoding/json writes
// for the same pipelineState — on an empty pipeline, on the sparse world
// (forecast and synopses hubs, CER) and on a maritime world whose CER
// suite holds loitering and gap state.
func TestStateJSONIsStreamedByteForByte(t *testing.T) {
	sparse, _, _, _ := sparseWorld(t, 3000)
	sc := durableWorld(t)
	withCER := New(fullConfig)
	withCER.InstallAreas(sc.Areas)
	withCER.InstallEntities(sc.Entities)
	ing := withCER.NewIngestor(IngestorConfig{Workers: 2})
	feed(t, ing, nil, sc.WireTimed)
	ing.Close()
	for name, p := range map[string]*Pipeline{"empty": New(fullConfig), "sparse": sparse, "maritime with CER": withCER} {
		st := p.exportState()
		path := filepath.Join(t.TempDir(), "state.json")
		if err := writeState(path, &st, p.ForecastHub); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fs := p.ForecastHub.exportState()
		st.Forecast = &fs
		var want bytes.Buffer
		if err := json.NewEncoder(&want).Encode(st); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.Bytes()) {
			i := 0
			for i < min(len(got), want.Len()) && got[i] == want.Bytes()[i] {
				i++
			}
			t.Errorf("%s: streamed state.json (%d bytes) departs from encoding/json's (%d bytes) at byte %d: %.40q", name, len(got), want.Len(), i, got[i:])
		}
		if name != "empty" && (st.Suite == nil || len(fs.KNN.Trajectories) == 0 || len(st.Synopses.Entities) == 0) {
			t.Errorf("%s: the world leaves a section empty", name)
		}
	}
}
