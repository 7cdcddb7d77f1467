package core

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"github.com/datacron-project/datacron/internal/adsb"
	"github.com/datacron-project/datacron/internal/ais"
	"github.com/datacron-project/datacron/internal/cer"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

// Durability layout under a --data-dir:
//
//	<data-dir>/wal/wal-<firstLSN>.seg      the write-ahead wire log
//	<data-dir>/segments/seg-*.seg          sealed immutable store segments,
//	                                       written once at first snapshot
//	<data-dir>/snapshots/snap-<cutLSN>/    full pipeline snapshots
//	    MANIFEST.json                      cut + replay floor + config check
//	    state.json                         counters, operator state, offsets
//	    shard-NNN.blk                      per-shard mutable tiers, one block
//	    shard-NNN.segments                 per-shard sealed-segment list
//	    seg-*.seg                          hard links into ../../segments/
//
// A snapshot is taken under the Ingestor's barrier, so it is an atomic cut
// of the whole pipeline: every wire line is either fully reflected
// (store writes, analytics state, counters, its per-entity applied LSN) or
// absent. Recovery loads the newest snapshot and replays the WAL tail from
// the manifest's replay floor, skipping records at or below their entity's
// applied offset — so recovery cost is snapshot-load + tail, not the whole
// log, and no record is ever applied twice.
//
// Ingest waits for as long as the barrier is held, and the barrier is held
// while everything is serialised, so what a snapshot is made of is streamed
// and small: store blocks are binary and written straight from the graphs'
// ids (internal/store/block.go), and the positions in operator state — the
// bulk of state.json — are packed (model.PackedPositions).
//
// Snapshots are incremental with respect to the tiered store: sealed
// segments are serialised once into <data-dir>/segments and hard-linked into
// each snapshot, so steady-state snapshots rewrite only the head tier and
// state.json.
//
// Format 3 is the layout above, and the only one read: recovery refuses a
// snapshot of any other format before it changes anything under the data
// directory.

// snapshotFormatVersion is the layout this build writes and reads.
const snapshotFormatVersion = 3

// prevSuffix marks a completed snapshot that a newer one at the same cut is
// about to replace; see publishSnapshot.
const prevSuffix = ".prev"

// WALDir returns the write-ahead log directory under dataDir.
func WALDir(dataDir string) string { return filepath.Join(dataDir, "wal") }

// SnapshotsDir returns the snapshot root under dataDir.
func SnapshotsDir(dataDir string) string { return filepath.Join(dataDir, "snapshots") }

// SegmentsDir returns the shared sealed-segment cache under dataDir.
func SegmentsDir(dataDir string) string { return filepath.Join(dataDir, "segments") }

// manifest is the MANIFEST.json of one snapshot.
type manifest struct {
	Version       int    `json:"version"`
	CutLSN        uint64 `json:"cutLSN"`
	ReplayFrom    uint64 `json:"replayFrom"`
	Shards        int    `json:"shards"`
	Domain        string `json:"domain"`
	CreatedUnixMS int64  `json:"createdUnixMS"`
	// Segments counts the sealed segment files the snapshot references
	// (informational).
	Segments int `json:"segments,omitempty"`
}

// frontState is the serialisable per-entity operator state of an ingest
// front (or the newest-wins merge of all worker fronts).
type frontState struct {
	Gate    map[string]model.Position  `json:"gate"`
	Filter  map[string]model.Position  `json:"filter"`
	Pending map[int][]ais.Sentence     `json:"aisPending"`
	Tracks  map[string]adsb.TrackState `json:"tracks"`
}

// export captures one front's state.
func (f *front) export() frontState {
	return frontState{
		Gate:    f.gate.ExportState(),
		Filter:  f.filter.ExportState(),
		Pending: f.asm.ExportPending(),
		Tracks:  f.tracker.ExportStates(),
	}
}

// restore installs st into one front.
func (f *front) restore(st frontState) {
	f.gate.RestoreState(st.Gate)
	f.filter.RestoreState(st.Filter)
	f.asm.RestorePending(st.Pending)
	f.tracker.RestoreStates(st.Tracks)
}

// pipelineState is the state.json of one snapshot: everything a pipeline
// needs beyond the store itself to continue deterministically.
type pipelineState struct {
	Counters StatsSnapshot     `json:"counters"`
	Entities []string          `json:"entities"`
	Front    frontState        `json:"front"`
	Suite    *cer.SuiteState   `json:"suite,omitempty"`
	Density  []float64         `json:"density"`
	Applied  map[string]uint64 `json:"applied"`
	// Forecast carries the online forecasting hub (nil when the pipeline
	// runs without it; a snapshot with forecast state restored into a
	// pipeline without a hub is silently ignored, and vice versa — the WAL
	// tail replay then rebuilds what it can).
	Forecast *forecastHubState `json:"forecast,omitempty"`
	// Synopses carries the trajectory-synopses hub, with the same
	// nil-tolerant semantics as Forecast.
	Synopses *synopsisHubState `json:"synopses,omitempty"`
}

// SnapshotInfo describes a completed snapshot.
type SnapshotInfo struct {
	Dir        string
	CutLSN     uint64
	ReplayFrom uint64
	Triples    int
	// Segments is the number of sealed segment files the snapshot
	// references (written once, hard-linked on later snapshots).
	Segments int
	Took     time.Duration
}

// WriteSnapshot writes an atomic full-pipeline snapshot under dataDir.
// With a live Ingestor the cut is taken under its barrier (workers pause
// between lines; ingest HTTP clients see queue backpressure, not errors);
// with ing == nil the pipeline must be externally quiescent (the serial
// ingest path). log may be nil when running without a WAL — the snapshot
// then has no replay floor and recovery is snapshot-only.
func (p *Pipeline) WriteSnapshot(dataDir string, ing *Ingestor, log *wal.Log) (SnapshotInfo, error) {
	start := time.Now()
	snapRoot := SnapshotsDir(dataDir)
	if err := os.MkdirAll(snapRoot, 0o755); err != nil {
		return SnapshotInfo{}, fmt.Errorf("core: snapshot: %w", err)
	}
	tmp, err := os.MkdirTemp(snapRoot, ".tmp-")
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("core: snapshot: %w", err)
	}
	defer os.RemoveAll(tmp)

	// Establish the cut.
	var (
		cut, replayFrom uint64
		applied         map[string]uint64
		fs              frontState
		release         = func() {}
	)
	if ing != nil {
		// Exclude the append→enqueue window, pause the workers, and only
		// then read the LSN bookkeeping: every appended LSN is now either
		// fully applied or visible in a queue.
		ing.snapGate.Lock()
		release = ing.Barrier()
		if log != nil {
			cut = log.Appended()
		}
		var minQueued uint64
		applied, minQueued = ing.cutState()
		if minQueued > 0 {
			replayFrom = minQueued
		} else {
			replayFrom = cut + 1
		}
		ing.snapGate.Unlock()
		fs = ing.exportFront()
	} else {
		if log != nil {
			cut = log.Appended()
		}
		replayFrom = cut + 1
		applied = make(map[string]uint64, len(p.appliedSeed))
		for k, v := range p.appliedSeed {
			applied[k] = v
		}
		fs = p.serial.export()
	}

	// Serialise everything under the barrier, then release before the
	// rename (the files are final; only the directory swap remains).
	segments := 0
	err = func() error {
		defer release()
		segments, err = p.Store.WriteSnapshotTiered(tmp, SegmentsDir(dataDir))
		if err != nil {
			return err
		}
		st := pipelineState{
			Counters: p.Stats.Snapshot(),
			Front:    fs,
			Density:  append([]float64(nil), p.Density.Counts...),
			Applied:  applied,
		}
		p.entityMu.Lock()
		st.Entities = make([]string, 0, len(p.entities))
		for id := range p.entities {
			st.Entities = append(st.Entities, id)
		}
		p.entityMu.Unlock()
		slices.Sort(st.Entities)
		if p.Suite != nil {
			ss := p.Suite.ExportState()
			st.Suite = &ss
		}
		if p.ForecastHub != nil {
			fs := p.ForecastHub.exportState()
			st.Forecast = &fs
		}
		if p.SynopsisHub != nil {
			ss := p.SynopsisHub.exportState()
			st.Synopses = &ss
		}
		if err := writeJSON(filepath.Join(tmp, "state.json"), st); err != nil {
			return err
		}
		return writeJSON(filepath.Join(tmp, "MANIFEST.json"), manifest{
			Version:       snapshotFormatVersion,
			CutLSN:        cut,
			ReplayFrom:    replayFrom,
			Shards:        p.Store.NumShards(),
			Domain:        p.cfg.Domain.String(),
			CreatedUnixMS: time.Now().UnixMilli(),
			Segments:      segments,
		})
	}()
	if err != nil {
		return SnapshotInfo{}, fmt.Errorf("core: snapshot: %w", err)
	}

	final := filepath.Join(snapRoot, fmt.Sprintf("snap-%020d", cut))
	if err := publishSnapshot(tmp, final, log != nil && log.Syncs()); err != nil {
		return SnapshotInfo{}, fmt.Errorf("core: snapshot: %w", err)
	}
	// Older snapshots, the leavings of crashed attempts, fully-covered WAL
	// segments and store-segment files no snapshot references are now
	// disposable.
	pruneSnapshots(snapRoot, filepath.Base(final))
	gcSegmentCache(SegmentsDir(dataDir), final)
	if log != nil && replayFrom > 1 {
		_, _ = log.RemoveSegmentsBefore(replayFrom)
	}
	return SnapshotInfo{
		Dir: final, CutLSN: cut, ReplayFrom: replayFrom,
		Triples: p.Store.Len(), Segments: segments, Took: time.Since(start),
	}, nil
}

// renameDir is os.Rename; a test replaces it to stop a publish between its
// steps.
var renameDir = os.Rename

// publishSnapshot makes the finished snapshot directory tmp the completed
// snapshot final, without an instant at which the snapshot root holds no
// completed snapshot: the caller prunes the WAL below the cut of the
// snapshot before this one, so a crash in such an instant would lose acked
// lines. A directory cannot be renamed over a non-empty one, and two
// snapshots with no append between them share a cut and so a name; the one
// in the way is first renamed to final+prevSuffix, a name latestSnapshot
// still reads, and dropped by the caller's prune.
//
// With durable set (the WAL fsyncs its commits, so the operator expects to
// survive power loss) the snapshot's files, its directory and, after the
// rename, the snapshot root are fsynced before the caller prunes anything:
// the WAL segments it deletes next are the only other copy.
func publishSnapshot(tmp, final string, durable bool) error {
	if durable {
		if err := syncTree(tmp); err != nil {
			return err
		}
	}
	if _, err := os.Stat(final); err == nil {
		prev := final + prevSuffix
		if err := os.RemoveAll(prev); err != nil {
			return err
		}
		if err := renameDir(final, prev); err != nil {
			return err
		}
	}
	if err := renameDir(tmp, final); err != nil {
		return err
	}
	if durable {
		return syncPath(filepath.Dir(final))
	}
	return nil
}

// syncTree fsyncs every file of dir and dir itself. Hard-linked segment
// files are synced through their links; files synced by an earlier snapshot
// cost a no-op each.
func syncTree(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if err := syncPath(filepath.Join(dir, e.Name())); err != nil {
			return err
		}
	}
	return syncPath(dir)
}

// syncPath fsyncs one file or directory.
func syncPath(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	err = f.Sync()
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// gcSegmentCache removes sealed-segment files in the shared cache that the
// (single retained) snapshot does not reference — segments dropped by
// retention since they were last serialised, stale files from a crashed
// snapshot attempt, and orphaned .tmp files from a crash mid-write. The
// reference set is read from the snapshot's shard-NNN.segments lists, the
// on-disk truth, so a segment retired from memory between the cut and this
// sweep is still kept for the snapshot that links it. snapDir == "" means
// "no snapshot exists": nothing is referenced and the cache is cleared.
//
// Recovery runs this sweep too (before any new seal can happen): segment
// ids restart from the recovered maximum, so a stale cache file from a
// crashed pre-recovery snapshot could otherwise collide with a freshly
// issued id and be hard-linked — with the wrong content — into a later
// snapshot.
func gcSegmentCache(segCache, snapDir string) {
	referenced := make(map[string]bool)
	if snapDir != "" {
		ents, err := os.ReadDir(snapDir)
		if err != nil {
			return
		}
		for _, e := range ents {
			if !strings.HasSuffix(e.Name(), ".segments") {
				continue
			}
			data, err := os.ReadFile(filepath.Join(snapDir, e.Name()))
			if err != nil {
				return // cannot establish the reference set; keep everything
			}
			for _, name := range strings.Fields(string(data)) {
				referenced[name] = true
			}
		}
	}
	cached, err := os.ReadDir(segCache)
	if err != nil {
		return
	}
	for _, e := range cached {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") {
			continue
		}
		if strings.HasSuffix(name, ".tmp") || (strings.HasSuffix(name, ".seg") && !referenced[name]) {
			_ = os.Remove(filepath.Join(segCache, name))
		}
	}
}

// writeJSON writes v as JSON to path.
func writeJSON(path string, v any) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(v)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// readJSON reads path into v.
func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	return json.Unmarshal(data, v)
}

// snapshotCut parses the name of a completed snapshot directory — snap-<cut>,
// or snap-<cut>.prev for one a crash caught being replaced; ok=false for
// foreign entries (including in-progress .tmp-* dirs).
func snapshotCut(name string) (cut uint64, ok bool) {
	if !strings.HasPrefix(name, "snap-") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(name[5:], prevSuffix), 10, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// latestSnapshot returns the newest completed snapshot directory: the
// highest cut, and of two at one cut the one that replaced the other.
func latestSnapshot(snapRoot string) (dir string, cut uint64, ok bool) {
	ents, err := os.ReadDir(snapRoot)
	if err != nil {
		return "", 0, false
	}
	for _, e := range ents { // sorted by name: snap-N before snap-N.prev
		if c, isSnap := snapshotCut(e.Name()); isSnap && (!ok || c > cut) {
			dir, cut, ok = filepath.Join(snapRoot, e.Name()), c, true
		}
	}
	return dir, cut, ok
}

// pruneSnapshots removes the completed snapshots other than the one named
// keep — older ones, and one keep replaced at its cut — and the leavings of
// crashed attempts.
func pruneSnapshots(snapRoot, keep string) {
	removeEntries(snapRoot, func(name string) bool {
		_, isSnap := snapshotCut(name)
		return isSnap && name != keep
	})
	sweepSnapshotTemps(snapRoot)
}

// sweepSnapshotTemps removes the .tmp-* directories of snapshot attempts a
// crash interrupted: up to a snapshot's bytes each, which nothing else would
// ever remove. The daemon is the root's only writer and takes one snapshot at
// a time, so none of them is in progress.
func sweepSnapshotTemps(snapRoot string) {
	removeEntries(snapRoot, func(name string) bool { return strings.HasPrefix(name, ".tmp-") })
}

// removeEntries removes the entries of dir whose name drop accepts.
func removeEntries(dir string, drop func(name string) bool) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return
	}
	for _, e := range ents {
		if drop(e.Name()) {
			_ = os.RemoveAll(filepath.Join(dir, e.Name()))
		}
	}
}

// readManifest reads the MANIFEST.json of the snapshot directory dir, named
// for cut, and refuses one this pipeline cannot recover from: another
// format, shard count or domain, or what WriteSnapshot never writes — a cut
// other than the directory's, or a replay floor outside 1..cut+1 (a floor
// above the cut would skip acknowledged log lines without a word).
func (p *Pipeline) readManifest(dir string, cut uint64) (manifest, error) {
	var m manifest
	mpath := filepath.Join(dir, "MANIFEST.json")
	if err := readJSON(mpath, &m); err != nil {
		return m, fmt.Errorf("core: recover: manifest: %w", err)
	}
	switch {
	case m.Version != snapshotFormatVersion:
		return m, fmt.Errorf("core: recover: %s: snapshot format %d, this build reads format %d only — to upgrade, start a build that reads format %d on this directory once, POST /snapshot, stop it, then start this build", mpath, m.Version, snapshotFormatVersion, m.Version)
	case m.CutLSN != cut:
		return m, fmt.Errorf("core: recover: %s: cut %d in a directory named for cut %d", mpath, m.CutLSN, cut)
	case m.ReplayFrom == 0 || m.ReplayFrom > cut+1:
		return m, fmt.Errorf("core: recover: %s: replay floor %d outside 1..%d (cut %d + 1)", mpath, m.ReplayFrom, cut+1, cut)
	case m.Shards != p.Store.NumShards():
		return m, fmt.Errorf("core: recover: snapshot has %d shards, pipeline has %d — restart with -shards %d", m.Shards, p.Store.NumShards(), m.Shards)
	case m.Domain != p.cfg.Domain.String():
		return m, fmt.Errorf("core: recover: snapshot domain %s, pipeline domain %s", m.Domain, p.cfg.Domain)
	}
	return m, nil
}

// RecoveryStats reports what a Recover (or Replay) run did.
type RecoveryStats struct {
	// SnapshotLSN is the loaded snapshot's cut (0 when none was found and
	// the whole log was replayed).
	SnapshotLSN uint64
	// ReplayFrom is the first WAL offset scanned.
	ReplayFrom uint64
	// SnapshotTriples / SnapshotAnchors count what the snapshot restored.
	SnapshotTriples, SnapshotAnchors int
	// Replayed counts wire lines re-ingested from the log tail.
	Replayed int64
	// SkippedApplied counts scanned records already covered by their
	// entity's snapshot offset.
	SkippedApplied int64
	// Events counts complex events re-detected during replay.
	Events int64
	// TailTruncatedBytes is the torn tail dropped (normal after kill -9).
	TailTruncatedBytes int64
	// CorruptStopped/SkippedBytes report mid-log damage: replay stopped at
	// the last valid record and this much data after it was skipped.
	CorruptStopped bool
	SkippedBytes   int64
	// Took is the wall-clock recovery time.
	Took time.Duration
}

// Recover restores the pipeline from dataDir: it loads the newest
// snapshot (if any) and replays the WAL tail sequentially through the
// serial ingest path. Areas and entities should be installed first (the
// daemon primes them before recovering); the pipeline must not be serving
// yet. After Recover, NewIngestor seeds its workers with the recovered
// operator state, so the daemon continues exactly where the crashed
// process stopped. A snapshot of another format, shard count or domain, or
// one missing a file, is an error, returned before Recover has changed
// anything under dataDir.
func (p *Pipeline) Recover(dataDir string) (RecoveryStats, error) {
	start := time.Now()
	var rs RecoveryStats
	applied := make(map[string]uint64)
	from := uint64(1)

	dir, cut, haveSnap := latestSnapshot(SnapshotsDir(dataDir))
	if haveSnap {
		m, err := p.readManifest(dir, cut)
		if err != nil {
			return rs, err
		}
		t, a, err := p.Store.LoadSnapshot(dir)
		if err != nil {
			return rs, fmt.Errorf("core: recover: %w", err)
		}
		var st pipelineState
		if err := readJSON(filepath.Join(dir, "state.json"), &st); err != nil {
			return rs, fmt.Errorf("core: recover: state: %w", err)
		}
		p.restoreCounters(st.Counters)
		p.entityMu.Lock()
		for _, id := range st.Entities {
			p.entities[id] = true
		}
		p.entityMu.Unlock()
		p.serial.restore(st.Front)
		if p.Suite != nil && st.Suite != nil {
			p.Suite.RestoreState(*st.Suite)
		}
		if p.ForecastHub != nil && st.Forecast != nil {
			if err := p.ForecastHub.restoreState(*st.Forecast); err != nil {
				return rs, fmt.Errorf("core: recover: state: %w", err)
			}
		}
		if p.SynopsisHub != nil && st.Synopses != nil {
			p.SynopsisHub.restoreState(*st.Synopses)
		}
		p.Density.RestoreCounts(st.Density)
		for k, v := range st.Applied {
			applied[k] = v
		}
		from = m.ReplayFrom
		rs.SnapshotLSN, rs.SnapshotTriples, rs.SnapshotAnchors = cut, t, a
	}
	// Only a directory this build accepts is swept, and before anything can
	// seal: a crashed snapshot attempt may have left files whose ids the
	// recovered counter will re-issue.
	sweepSnapshotTemps(SnapshotsDir(dataDir))
	gcSegmentCache(SegmentsDir(dataDir), dir)

	tail, err := p.replayLog(dataDir, from, applied, &rs)
	rs.ReplayFrom = from
	rs.TailTruncatedBytes = tail.TruncatedBytes
	rs.CorruptStopped = tail.CorruptStopped
	rs.SkippedBytes = tail.SkippedBytes
	p.appliedSeed = applied
	rs.Took = time.Since(start)
	return rs, err
}

// Replay re-feeds a logged session in dataDir through a fresh pipeline,
// sequentially and in exact log order — the deterministic test harness
// hook: two Replays of the same log produce byte-identical stores, event
// sequences and counters. prime (optional) installs areas and entities
// before the first line.
func Replay(dataDir string, cfg Config, prime func(*Pipeline)) (*Pipeline, RecoveryStats, error) {
	p := New(cfg)
	if prime != nil {
		prime(p)
	}
	var rs RecoveryStats
	start := time.Now()
	stats, err := p.replayLog(dataDir, 1, make(map[string]uint64), &rs)
	rs.ReplayFrom = 1
	rs.TailTruncatedBytes = stats.TruncatedBytes
	rs.CorruptStopped = stats.CorruptStopped
	rs.SkippedBytes = stats.SkippedBytes
	rs.Took = time.Since(start)
	return p, rs, err
}

// replayLog scans the WAL from offset `from`, re-ingesting every record
// above its entity's applied offset through the serial front. applied is
// advanced in place.
func (p *Pipeline) replayLog(dataDir string, from uint64, applied map[string]uint64, rs *RecoveryStats) (wal.ScanStats, error) {
	return wal.Scan(WALDir(dataDir), from, func(r wal.Record) error {
		key := p.RoutingKey(r.Line)
		if r.LSN <= applied[key] {
			rs.SkippedApplied++
			return nil
		}
		evs, _ := p.IngestLine(synth.TimedLine{TS: r.TS, Line: r.Line})
		applied[key] = r.LSN
		rs.Replayed++
		rs.Events += int64(len(evs))
		return nil
	})
}

// IngestLineLogged is the serial durable ingest path: the line is appended
// to the WAL, processed, and its applied offset recorded, so a later
// WriteSnapshot(dataDir, nil, log) carries exact resume offsets. Like
// IngestLine it must not be called concurrently with itself; the caller
// decides when to Commit the log (group commit).
func (p *Pipeline) IngestLineLogged(l *wal.Log, tl synth.TimedLine) ([]model.Event, error) {
	lsn, err := l.Append(tl.TS, tl.Line)
	if err != nil {
		return nil, err
	}
	evs, err := p.IngestLine(tl)
	if p.appliedSeed == nil {
		p.appliedSeed = make(map[string]uint64)
	}
	p.appliedSeed[p.RoutingKey(tl.Line)] = lsn
	return evs, err
}

// restoreCounters installs snapshot counters (latency histograms restart
// empty — they are observability, not data).
func (p *Pipeline) restoreCounters(c StatsSnapshot) {
	atomic.StoreInt64(&p.Stats.Lines, c.Lines)
	atomic.StoreInt64(&p.Stats.BadLines, c.BadLines)
	atomic.StoreInt64(&p.Stats.Decoded, c.Decoded)
	atomic.StoreInt64(&p.Stats.Gated, c.Gated)
	atomic.StoreInt64(&p.Stats.Kept, c.Kept)
	atomic.StoreInt64(&p.Stats.Suppressed, c.Suppressed)
	atomic.StoreInt64(&p.Stats.Detections, c.Detections)
}
