package core

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

// durableWorld is a scenario with loiterers (per-entity events) but no
// scripted rendezvous (Rendezvous: -1 disables the default pairs): all of
// its complex events are per-entity and thus arrival-order-independent, so
// a recovered pipeline must match an uninterrupted one exactly. Pair-based
// events (rendezvous) are sensitive to cross-entity arrival order in the
// parallel path; recovery replays the log in one order, so two recoveries
// of one image agree, which server.FuzzCrashEquivalence checks.
func durableWorld(t testing.TB) *synth.Scenario {
	t.Helper()
	return synth.GenMaritime(synth.MaritimeConfig{
		Seed: 1234, Vessels: 10, Duration: time.Hour,
		Rendezvous: -1, Loiterers: 2, GapProb: 0.0005, OutlierProb: 0.002,
	})
}

// exportNT renders the canonical store dump.
func exportNT(t testing.TB, p *Pipeline) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := p.Store.ExportNT(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// feed runs lines through ing, each logged to log (when non-nil), and fails
// tb on an error.
func feed(tb testing.TB, ing *Ingestor, log *wal.Log, lines []synth.TimedLine) {
	tb.Helper()
	if err := ing.Feed(log, lines); err != nil {
		tb.Fatal(err)
	}
}

// idleSnapshot snapshots the quiescent p under a fresh Ingestor's barrier,
// as a restarted daemon's POST /snapshot does.
func idleSnapshot(p *Pipeline, dataDir string, log *wal.Log) (SnapshotInfo, error) {
	ing := p.NewIngestor(IngestorConfig{Workers: 1})
	defer ing.Close()
	return p.WriteSnapshot(dataDir, ing, log)
}

// newPrimed builds a pipeline primed with sc's world.
func newPrimed(sc *synth.Scenario) *Pipeline {
	p := New(Config{Domain: model.Maritime})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	return p
}

// TestSerialDurableRecovery ingests a session through the synchronous
// logged driver kept for the benchmark (IngestLineLogged, WriteSnapshot
// without an Ingestor), snapshots 60% in, "crashes", and verifies that a recovered
// pipeline (snapshot + tail replay) is byte-identical to the uninterrupted
// one: same canonical store dump, same counters, same density mass.
func TestSerialDurableRecovery(t *testing.T) {
	sc := durableWorld(t)
	dataDir := t.TempDir()

	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p1 := newPrimed(sc)
	cutAt := len(sc.WireTimed) * 6 / 10
	for i, tl := range sc.WireTimed {
		if _, err := p1.IngestLineLogged(log, tl); err != nil {
			t.Fatal(err)
		}
		if i == cutAt {
			if err := log.Commit(); err != nil {
				t.Fatal(err)
			}
			info, err := p1.WriteSnapshot(dataDir, nil, log)
			if err != nil {
				t.Fatal(err)
			}
			if info.CutLSN == 0 || info.ReplayFrom != info.CutLSN+1 {
				t.Fatalf("serial snapshot info = %+v", info)
			}
		}
	}
	if err := log.Close(); err != nil { // flush: every line was "acked"
		t.Fatal(err)
	}
	wantNT := exportNT(t, p1)
	wantSnap := p1.Stats.Snapshot()
	if wantSnap.Detections == 0 {
		t.Fatal("scenario produced no events; test is vacuous")
	}

	// Recover into a fresh pipeline.
	p2 := newPrimed(sc)
	rs, err := p2.Recover(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotLSN == 0 {
		t.Fatal("snapshot not loaded")
	}
	if rs.Replayed == 0 {
		t.Fatal("no tail replayed")
	}
	if rs.SkippedApplied != 0 {
		t.Errorf("serial snapshot should leave no overlap, skipped %d", rs.SkippedApplied)
	}
	if got := p2.Stats.Snapshot(); got != wantSnap {
		t.Errorf("recovered counters = %+v, want %+v", got, wantSnap)
	}
	if got := exportNT(t, p2); !bytes.Equal(got, wantNT) {
		t.Errorf("recovered store dump differs: %d vs %d bytes", len(got), len(wantNT))
	}
	if p2.Density.Total() != p1.Density.Total() {
		t.Errorf("density total %v, want %v", p2.Density.Total(), p1.Density.Total())
	}
}

// loggedSession feeds sc's first n lines through a one-worker Ingestor,
// each logged to a fresh data directory, and returns the directory and the
// pipeline that ran the session.
func loggedSession(t *testing.T, sc *synth.Scenario, n int) (string, *Pipeline) {
	t.Helper()
	dataDir := t.TempDir()
	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p := newPrimed(sc)
	ing := p.NewIngestor(IngestorConfig{Workers: 1})
	feed(t, ing, log, sc.WireTimed[:n])
	ing.Close()
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	return dataDir, p
}

// TestReplayDeterminism replays one log twice through fresh pipelines;
// each replay must equal the session that wrote the log, byte for byte.
func TestReplayDeterminism(t *testing.T) {
	sc := durableWorld(t)
	dataDir, p0 := loggedSession(t, sc, len(sc.WireTimed))
	prime := func(p *Pipeline) {
		p.InstallAreas(sc.Areas)
		p.InstallEntities(sc.Entities)
	}
	for i := range 2 {
		p, rs, err := Replay(dataDir, Config{Domain: model.Maritime}, prime)
		if err != nil {
			t.Fatal(err)
		}
		if rs.Replayed != int64(len(sc.WireTimed)) {
			t.Errorf("replay %d: replayed %d lines, want %d", i, rs.Replayed, len(sc.WireTimed))
		}
		if p.Stats.Snapshot() != p0.Stats.Snapshot() {
			t.Errorf("replay %d: counters %+v, original %+v", i, p.Stats.Snapshot(), p0.Stats.Snapshot())
		}
		if !bytes.Equal(exportNT(t, p), exportNT(t, p0)) {
			t.Errorf("replay %d: store differs from the original session", i)
		}
	}
}

// TestParallelDurableRecovery drives the parallel logged path (the one the
// HTTP layer uses) from four goroutines submitting multi-worker batches
// that share entities, with a snapshot taken while a backlog is queued and
// submitters are appending, then recovers and compares against the
// uninterrupted run. Which goroutine wins the race for an entity's next
// lines is arbitrary, but each worker's queue order must equal LSN order,
// so the serial LSN-order replay lands on exactly the live run's state — an
// applied offset that jumped over a still-queued LSN would skip that line
// on recovery.
func TestParallelDurableRecovery(t *testing.T) {
	sc := durableWorld(t)
	dataDir := t.TempDir()
	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p1 := newPrimed(sc)
	ing := p1.NewIngestor(IngestorConfig{Workers: 4, QueueLen: 1 << 16})

	// submit starts four goroutines that stripe tls between them in
	// 61-line batches, so every batch spans workers and every entity's
	// lines arrive from all four.
	var wg sync.WaitGroup
	submit := func(tls []synth.TimedLine) {
		const submitters, chunk = 4, 61
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := g * chunk; i < len(tls); i += submitters * chunk {
					batch := tls[i:min(i+chunk, len(tls))]
					if n, err := ing.SubmitBatch(log, batch); n != len(batch) || err != nil {
						t.Errorf("batch at %d: accepted %d of %d with oversized queues, err %v", i, n, len(batch), err)
						return
					}
				}
			}(g)
		}
	}
	half := len(sc.WireTimed) / 2
	// First half against stalled workers: everything stays queued, so the
	// LSN FIFOs show the order the racing appends were enqueued in.
	release := ing.Barrier()
	submit(sc.WireTimed[:half])
	wg.Wait()
	for i, w := range ing.workers {
		if !slices.IsSorted(w.lsns) {
			t.Errorf("worker %d: queue order diverges from LSN order", i)
		}
	}
	// Snapshot mid-stream: the backlog still draining, the second half's
	// submitters appending. The scheduler may let both finish before the
	// cut, so the last lines go in only after the snapshot, and the tail
	// replay never comes out empty by chance.
	tail := len(sc.WireTimed) - 500
	submit(sc.WireTimed[half:tail])
	release()
	_, snapErr := p1.WriteSnapshot(dataDir, ing, log)
	wg.Wait()
	if snapErr != nil {
		t.Fatal(snapErr)
	}
	submit(sc.WireTimed[tail:])
	wg.Wait()
	if !ing.Quiesce(30 * time.Second) {
		t.Fatal("ingest did not drain")
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	ing.Close()
	wantNT := exportNT(t, p1)
	wantSnap := p1.Stats.Snapshot()

	p2 := newPrimed(sc)
	rs, err := p2.Recover(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotLSN == 0 {
		t.Fatal("snapshot not loaded")
	}
	if wantSnap.Lines != int64(len(sc.WireTimed)) {
		t.Fatalf("live run processed %d of %d lines", wantSnap.Lines, len(sc.WireTimed))
	}
	if got := p2.Stats.Snapshot(); got != wantSnap {
		t.Errorf("recovered counters = %+v, want %+v", got, wantSnap)
	}
	if got := exportNT(t, p2); !bytes.Equal(got, wantNT) {
		t.Error("recovered store differs from uninterrupted parallel run")
	}
	// The WAL was pruned to the snapshot's replay floor, but the tail kept
	// every record needed: replayed + skipped covers [ReplayFrom, end].
	if rs.Replayed == 0 {
		t.Error("expected a non-empty tail replay")
	}
}

// TestRecoverTornTail cuts the last WAL record short, as a kill -9
// mid-write does: recovery keeps everything before it and reports the
// torn bytes as a tail, not as mid-log corruption.
func TestRecoverTornTail(t *testing.T) {
	sc := durableWorld(t)
	const n = 2000
	dataDir, _ := loggedSession(t, sc, n)
	segs, err := filepath.Glob(filepath.Join(WALDir(dataDir), "*.seg"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no WAL segment: %v", err)
	}
	last := segs[len(segs)-1]
	st, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(last, st.Size()-7); err != nil {
		t.Fatal(err)
	}
	p := newPrimed(sc)
	rs, err := p.Recover(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.TailTruncatedBytes == 0 || rs.CorruptStopped {
		t.Errorf("torn tail not reported as one: %+v", rs)
	}
	if rs.Replayed != n-1 || p.Stats.Snapshot().Lines != n-1 {
		t.Errorf("replayed %d, recovered %d lines; want %d (all but the torn record)", rs.Replayed, p.Stats.Snapshot().Lines, n-1)
	}
}
