package core

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/store"
	"github.com/datacron-project/datacron/internal/wal"
)

// fixedQuery is the recovery-equality probe: a spatiotemporally-bounded
// join whose rows must be bit-identical across restart.
const fixedQuery = `SELECT ?n ?t WHERE {
	?n rdf:type dat:SemanticNode .
	?n dat:timestamp ?t .
	FILTER st:during(?t, 0, 4000000000000)
} LIMIT 50`

func runFixedQuery(t *testing.T, p *Pipeline) string {
	t.Helper()
	res, err := p.Engine.Execute(fixedQuery)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, row := range res.Rows {
		for _, term := range row {
			b.WriteString(term.String())
			b.WriteByte('\t')
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// TestTieredDurableRecovery is the kill -9 walkthrough with sealed
// segments: serial logged ingest with a forced seal mid-stream, a v2
// snapshot, more ingest, then recovery — the restored pipeline must match
// the uninterrupted one byte-for-byte (canonical dump, counters, fixed
// query), restore the tier structure, and have the v2 artifacts on disk.
func TestTieredDurableRecovery(t *testing.T) {
	sc := durableWorld(t)
	dataDir := t.TempDir()
	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p1 := newPrimed(sc)
	sealAt := len(sc.WireTimed) * 4 / 10
	cutAt := len(sc.WireTimed) * 6 / 10
	var info SnapshotInfo
	for i, tl := range sc.WireTimed {
		if _, err := p1.IngestLineLogged(log, tl); err != nil {
			t.Fatal(err)
		}
		if i == sealAt {
			if st := p1.MaintainStore(nil, store.TierPolicy{}, true); st.Sealed == 0 {
				t.Fatal("forced seal sealed nothing")
			}
		}
		if i == cutAt {
			if err := log.Commit(); err != nil {
				t.Fatal(err)
			}
			if info, err = p1.WriteSnapshot(dataDir, nil, log); err != nil {
				t.Fatal(err)
			}
			if info.Segments == 0 {
				t.Fatalf("v2 snapshot references no segments: %+v", info)
			}
		}
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	wantNT := exportNT(t, p1)
	wantSnap := p1.Stats.Snapshot()
	wantQuery := runFixedQuery(t, p1)
	wantTiers := p1.Store.TierStats()

	// Artifacts on disk: the manifest's version, per-shard segment lists,
	// hard links into the shared cache.
	var m manifest
	if err := readJSON(filepath.Join(info.Dir, "MANIFEST.json"), &m); err != nil {
		t.Fatal(err)
	}
	if m.Version != snapshotFormatVersion || m.Segments != info.Segments {
		t.Fatalf("manifest = %+v", m)
	}
	if _, err := os.Stat(filepath.Join(info.Dir, "shard-000.segments")); err != nil {
		t.Fatalf("segment list missing: %v", err)
	}
	cache, err := os.ReadDir(SegmentsDir(dataDir))
	if err != nil || len(cache) == 0 {
		t.Fatalf("segment cache empty: %v", err)
	}

	p2 := newPrimed(sc)
	rs, err := p2.Recover(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotLSN == 0 || rs.Replayed == 0 {
		t.Fatalf("recovery stats: %+v", rs)
	}
	if got := p2.Stats.Snapshot(); got != wantSnap {
		t.Errorf("recovered counters = %+v, want %+v", got, wantSnap)
	}
	if got := exportNT(t, p2); !bytes.Equal(got, wantNT) {
		t.Error("recovered canonical dump differs from uninterrupted run")
	}
	if got := runFixedQuery(t, p2); got != wantQuery {
		t.Errorf("recovered query result differs:\n%s\nvs\n%s", got, wantQuery)
	}
	gotTiers := p2.Store.TierStats()
	if gotTiers.Segments != wantTiers.Segments || gotTiers.SealedTriples != wantTiers.SealedTriples {
		t.Errorf("tier structure not restored: %+v vs %+v", gotTiers, wantTiers)
	}
	// The stream clock survived recovery: a retention pass on the restored
	// pipeline can age out the sealed history.
	if p2.Store.MaxAnchorTS() == 0 {
		t.Fatal("stream clock lost across recovery")
	}
	if st := p2.MaintainStore(nil, store.TierPolicy{Retention: time.Millisecond}, false); st.Dropped == 0 {
		t.Error("retention on the recovered store dropped nothing")
	}

	// A second snapshot from the recovered pipeline reuses the cached
	// segment files (write-once): same inode, higher link count.
	log2, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	p3 := newPrimed(sc)
	if _, err := p3.Recover(dataDir); err != nil {
		t.Fatal(err)
	}
	before := map[string]os.FileInfo{}
	for _, e := range cache {
		fi, err := os.Stat(filepath.Join(SegmentsDir(dataDir), e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		before[e.Name()] = fi
	}
	info3, err := p3.WriteSnapshot(dataDir, nil, log2)
	if err != nil {
		t.Fatal(err)
	}
	if info3.Segments == 0 {
		t.Fatal("second snapshot lost the segments")
	}
	for name, fi := range before {
		fi2, err := os.Stat(filepath.Join(info3.Dir, name))
		if err != nil {
			t.Fatalf("segment %s not linked into second snapshot: %v", name, err)
		}
		if !os.SameFile(fi, fi2) {
			t.Errorf("segment %s was rewritten, not linked", name)
		}
	}
}

// treeListing renders every entry under dir as its path, its size and, for
// a file, a hash of its content, in path order.
func treeListing(t *testing.T, dir string) []string {
	t.Helper()
	var out []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(dir, path)
		if d.IsDir() {
			out = append(out, rel+"/")
			return nil
		}
		data, err := os.ReadFile(path)
		out = append(out, fmt.Sprintf("%s %d %x", rel, len(data), sha256.Sum256(data)))
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// TestV1SnapshotRecovery: recovery reads snapshot format 3 only. An older or
// a newer format, another shard count and a lost segment list are each
// refused with an error naming the cause — and before recovery changes
// anything under the data directory, so that a refused directory is still
// whole for the build or the flags that can open it. The directory holds a
// sealed segment and a crashed snapshot attempt's temp directory, which an
// accepted recovery sweeps.
func TestV1SnapshotRecovery(t *testing.T) {
	sc := durableWorld(t)
	dataDir := t.TempDir()
	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p1 := newPrimed(sc)
	lines := sc.WireTimed[:len(sc.WireTimed)/2]
	for i, tl := range lines {
		if _, err := p1.IngestLineLogged(log, tl); err != nil {
			t.Fatal(err)
		}
		if i == len(lines)/2 {
			p1.MaintainStore(nil, store.TierPolicy{}, true)
		}
	}
	if err := log.Commit(); err != nil {
		t.Fatal(err)
	}
	info, err := p1.WriteSnapshot(dataDir, nil, log)
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	// The files the cases damage: the manifest, and a segment list that
	// names a segment. Before each case they are as written, and a crashed
	// snapshot attempt has left its temp directory.
	mpath := filepath.Join(info.Dir, "MANIFEST.json")
	var m manifest
	if err := readJSON(mpath, &m); err != nil || m.Segments == 0 {
		t.Fatalf("manifest %+v (%v), want one that references segments", m, err)
	}
	var list string
	lists, _ := filepath.Glob(filepath.Join(info.Dir, "shard-*.segments"))
	for _, f := range lists {
		if data, err := os.ReadFile(f); err == nil && len(data) > 0 {
			list = f
			break
		}
	}
	if list == "" {
		t.Fatal("no shard links a segment")
	}
	written := map[string][]byte{}
	for _, f := range []string{mpath, list} {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		written[f] = data
	}
	stale := filepath.Join(SnapshotsDir(dataDir), ".tmp-1234567")
	reset := func() {
		for f, data := range written {
			if err := os.WriteFile(f, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		if err := os.MkdirAll(stale, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(stale, "shard-000.blk"), []byte("torn"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	rewrite := func(edit func(*manifest)) func() {
		return func() {
			m2 := m
			edit(&m2)
			if err := writeJSON(mpath, m2); err != nil {
				t.Fatal(err)
			}
		}
	}
	format := func(v int) func() { return rewrite(func(m *manifest) { m.Version = v }) }

	for _, tc := range []struct {
		name   string
		damage func()
		shards int    // of the recovering pipeline; 0 is the default
		want   string // what the error must name
	}{
		{"format 1", format(1), 0, "snapshot format 1,"},
		{"format 2", format(2), 0, "snapshot format 2,"},
		{"format 4", format(4), 0, "snapshot format 4,"},
		{"another shard count", func() {}, 2 * m.Shards, fmt.Sprintf("-shards %d", m.Shards)},
		{"a lost segment list", func() { os.Remove(list) }, 0, filepath.Base(list)},
		{"a replay floor of 0", rewrite(func(m *manifest) { m.ReplayFrom = 0 }), 0, "replay floor 0 outside"},
		{"a replay floor above the cut", rewrite(func(m *manifest) { m.ReplayFrom = m.CutLSN + 2 }), 0, fmt.Sprintf("replay floor %d outside", m.CutLSN+2)},
		{"another cut", rewrite(func(m *manifest) { m.CutLSN++ }), 0, fmt.Sprintf("cut %d in a directory named for cut %d", m.CutLSN+1, m.CutLSN)},
	} {
		reset()
		tc.damage()
		before := treeListing(t, dataDir)
		p := New(Config{Domain: model.Maritime, Shards: tc.shards})
		_, err := p.Recover(dataDir)
		switch {
		case err == nil:
			t.Errorf("%s: recovered, with %d of the %d sealed segments written", tc.name, p.Store.TierStats().Segments, m.Segments)
		case !strings.Contains(err.Error(), tc.want):
			t.Errorf("%s: error %q, want one naming %q", tc.name, err, tc.want)
		}
		after := treeListing(t, dataDir)
		gone := slices.DeleteFunc(slices.Clone(before), func(e string) bool { return slices.Contains(after, e) })
		added := slices.DeleteFunc(after, func(e string) bool { return slices.Contains(before, e) })
		if len(gone)+len(added) > 0 {
			t.Errorf("%s: recovery changed the data directory: %q gone, %q new", tc.name, gone, added)
		}
	}

	// The directory as written recovers, and the temp directory goes.
	reset()
	p2 := newPrimed(sc)
	rs, err := p2.Recover(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotLSN != info.CutLSN || p2.Stats.Snapshot() != p1.Stats.Snapshot() || !bytes.Equal(exportNT(t, p2), exportNT(t, p1)) {
		t.Errorf("recovery of the undamaged directory: %+v, counters %+v, want %+v", rs, p2.Stats.Snapshot(), p1.Stats.Snapshot())
	}
	if _, err := os.Stat(stale); !os.IsNotExist(err) {
		t.Errorf("recovery left the stale temp directory behind (%v)", err)
	}
}

// FuzzManifest feeds fuzzed bytes to recovery as a snapshot's
// MANIFEST.json. Recovery must not panic, and a manifest it refuses must
// leave the data directory (a sealed segment, the log, a crashed attempt's
// temp directory) exactly as it was.
func FuzzManifest(f *testing.F) {
	sc := durableWorld(f)
	dataDir := f.TempDir()
	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	p1 := newPrimed(sc)
	for i, tl := range sc.WireTimed[:600] {
		if _, err := p1.IngestLineLogged(log, tl); err != nil {
			f.Fatal(err)
		}
		if i == 300 {
			p1.MaintainStore(nil, store.TierPolicy{}, true)
		}
	}
	if err := log.Commit(); err != nil {
		f.Fatal(err)
	}
	info, err := p1.WriteSnapshot(dataDir, nil, log)
	if err != nil {
		f.Fatal(err)
	}
	if err := log.Close(); err != nil {
		f.Fatal(err)
	}
	mpath := filepath.Join(info.Dir, "MANIFEST.json")
	written, err := os.ReadFile(mpath)
	if err != nil {
		f.Fatal(err)
	}
	var m manifest
	if err := readJSON(mpath, &m); err != nil {
		f.Fatal(err)
	}
	f.Add(written)
	for _, edit := range []func(*manifest){
		func(m *manifest) { m.ReplayFrom = 0 },
		func(m *manifest) { m.ReplayFrom = m.CutLSN + 2 },
		func(m *manifest) { m.ReplayFrom = m.CutLSN },
		func(m *manifest) { m.CutLSN++ },
		func(m *manifest) { m.Version = 2 },
		func(m *manifest) { m.Shards = 0 },
		func(m *manifest) { m.Domain = "aviation" },
	} {
		m2 := m
		edit(&m2)
		data, err := json.Marshal(m2)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Add([]byte(`{"version":3,"cutLSN":18446744073709551615,"replayFrom":0}`))
	f.Add([]byte("{"))

	stale := filepath.Join(SnapshotsDir(dataDir), ".tmp-1234567")
	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(mpath, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(stale, 0o755); err != nil {
			t.Fatal(err)
		}
		before := treeListing(t, dataDir)
		if _, err := New(Config{Domain: model.Maritime}).Recover(dataDir); err != nil {
			if after := treeListing(t, dataDir); !slices.Equal(before, after) {
				t.Fatalf("refused manifest %q (%v) changed the data directory:\n%q\n%q", data, err, before, after)
			}
		}
	})
}

// TestRecoverySweepsStaleSegmentCache plants leftovers of a crashed
// snapshot attempt — a completed segment file whose id the recovered
// counter will re-issue, and a torn .tmp — and checks recovery sweeps both
// before any new seal can collide with them, while keeping every file the
// loaded snapshot references.
func TestRecoverySweepsStaleSegmentCache(t *testing.T) {
	sc := durableWorld(t)
	dataDir := t.TempDir()
	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p1 := newPrimed(sc)
	for _, tl := range sc.WireTimed[:len(sc.WireTimed)/2] {
		if _, err := p1.IngestLineLogged(log, tl); err != nil {
			t.Fatal(err)
		}
	}
	p1.MaintainStore(nil, store.TierPolicy{}, true)
	if _, err := p1.WriteSnapshot(dataDir, nil, log); err != nil {
		t.Fatal(err)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	referenced := p1.Store.SegmentFiles()
	if len(referenced) == 0 {
		t.Fatal("no referenced segments")
	}
	// A crashed later snapshot left a completed file with the next id and a
	// torn temp file.
	stale := filepath.Join(SegmentsDir(dataDir), fmt.Sprintf("seg-%016x.seg", len(referenced)+1))
	torn := filepath.Join(SegmentsDir(dataDir), fmt.Sprintf("seg-%016x.seg.tmp", len(referenced)+2))
	for _, f := range []string{stale, torn} {
		if err := os.WriteFile(f, []byte("bogus pre-crash content"), 0o644); err != nil {
			t.Fatal(err)
		}
	}

	p2 := newPrimed(sc)
	if _, err := p2.Recover(dataDir); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{stale, torn} {
		if _, err := os.Stat(f); !os.IsNotExist(err) {
			t.Errorf("stale cache file %s survived recovery", filepath.Base(f))
		}
	}
	for _, name := range referenced {
		if _, err := os.Stat(filepath.Join(SegmentsDir(dataDir), name)); err != nil {
			t.Errorf("referenced segment %s swept: %v", name, err)
		}
	}
	// The re-issued id now serialises the real segment, and recovery from
	// it round-trips.
	log2, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log2.Close()
	for _, tl := range sc.WireTimed[len(sc.WireTimed)/2:] {
		if _, err := p2.IngestLineLogged(log2, tl); err != nil {
			t.Fatal(err)
		}
	}
	p2.MaintainStore(nil, store.TierPolicy{}, true)
	if _, err := p2.WriteSnapshot(dataDir, nil, log2); err != nil {
		t.Fatal(err)
	}
	want := exportNT(t, p2)
	p3 := newPrimed(sc)
	if _, err := p3.Recover(dataDir); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(exportNT(t, p3), want) {
		t.Error("recovery after id reuse differs — stale cache content leaked into a snapshot")
	}
}

// TestSnapshotGCSweepsRetiredSegments checks that segment files dropped by
// retention disappear from the shared cache after the next snapshot, while
// files the latest snapshot references stay.
func TestSnapshotGCSweepsRetiredSegments(t *testing.T) {
	sc := durableWorld(t)
	dataDir := t.TempDir()
	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	p := newPrimed(sc)
	third := len(sc.WireTimed) / 3
	ingest := func(from, to int) {
		for _, tl := range sc.WireTimed[from:to] {
			if _, err := p.IngestLineLogged(log, tl); err != nil {
				t.Fatal(err)
			}
		}
	}
	ingest(0, third)
	p.MaintainStore(nil, store.TierPolicy{}, true)
	if _, err := p.WriteSnapshot(dataDir, nil, log); err != nil {
		t.Fatal(err)
	}
	gen1 := map[string]bool{}
	for _, name := range p.Store.SegmentFiles() {
		gen1[name] = true
	}
	if len(gen1) == 0 {
		t.Fatal("no first-generation segments")
	}

	ingest(third, 2*third)
	p.MaintainStore(nil, store.TierPolicy{}, true)
	// Retention drops the first generation (older than the last third).
	streamSpan := p.Store.MaxAnchorTS()
	_ = streamSpan
	st := p.MaintainStore(nil, store.TierPolicy{Retention: 20 * time.Minute}, false)
	if st.Dropped == 0 {
		t.Fatal("retention dropped nothing; widen the test windows")
	}
	if _, err := p.WriteSnapshot(dataDir, nil, log); err != nil {
		t.Fatal(err)
	}

	cache, err := os.ReadDir(SegmentsDir(dataDir))
	if err != nil {
		t.Fatal(err)
	}
	live := map[string]bool{}
	for _, name := range p.Store.SegmentFiles() {
		live[name] = true
	}
	for _, e := range cache {
		if gen1[e.Name()] && !live[e.Name()] {
			t.Errorf("retired segment %s still in cache after snapshot GC", e.Name())
		}
	}
	for name := range live {
		if _, err := os.Stat(filepath.Join(SegmentsDir(dataDir), name)); err != nil {
			t.Errorf("live segment %s missing from cache: %v", name, err)
		}
	}
}

// TestFailedStoreSnapshotPublishesNothing: when the store cannot serialise
// itself (here the segment cache path is occupied by a regular file) the
// snapshot fails as a whole — no snap-* directory appears and the WAL is not
// truncated, so the session still recovers in full from the log.
func TestFailedStoreSnapshotPublishesNothing(t *testing.T) {
	sc := durableWorld(t)
	dataDir := t.TempDir()
	log, err := wal.Open(WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	p1 := newPrimed(sc)
	for _, tl := range sc.WireTimed {
		if _, err := p1.IngestLineLogged(log, tl); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(SegmentsDir(dataDir), nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if info, err := p1.WriteSnapshot(dataDir, nil, log); err == nil {
		t.Fatalf("snapshot succeeded (%+v) with an unusable segment cache", info)
	}
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}
	ents, err := os.ReadDir(SnapshotsDir(dataDir))
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 0 {
		t.Errorf("failed snapshot left %d entries under snapshots/ (first: %s)", len(ents), ents[0].Name())
	}

	if err := os.Remove(SegmentsDir(dataDir)); err != nil {
		t.Fatal(err)
	}
	p2 := newPrimed(sc)
	rs, err := p2.Recover(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotLSN != 0 || rs.Replayed != int64(len(sc.WireTimed)) {
		t.Errorf("recovery used snapshot %d and replayed %d lines, want full replay of %d", rs.SnapshotLSN, rs.Replayed, len(sc.WireTimed))
	}
	if got, want := exportNT(t, p2), exportNT(t, p1); !bytes.Equal(got, want) {
		t.Error("store recovered after the failed snapshot differs")
	}
}
