package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
	"github.com/datacron-project/datacron/internal/wire"
)

// crashWorld is the world FuzzCrashEquivalence ingests: a small maritime
// stream whose complex events are all per-entity (Rendezvous: -1 disables
// the scripted pairs), so every observable but the shared forecast models is
// independent of how workers interleave entities.
var crashWorld = sync.OnceValue(func() *synth.Scenario {
	return synth.GenMaritime(synth.MaritimeConfig{
		Seed: 4242, Vessels: 8, Duration: time.Hour,
		Rendezvous: -1, Loiterers: 3, GapProb: 0.0005, OutlierProb: 0.002,
	})
})

// crashPipeline is a pipeline primed with crashWorld, forecasting (with a
// KNN cap low enough that trajectories halve) and synopses on.
func crashPipeline(sc *synth.Scenario) *core.Pipeline {
	p := core.New(core.Config{
		Domain:   model.Maritime,
		Forecast: core.ForecastConfig{Enabled: true, KNNMaxPerEntity: 64},
		Synopses: core.SynopsesConfig{Enabled: true},
	})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	return p
}

// Schedule operations: a schedule byte's low three bits pick one, the
// other five are its argument.
const (
	opText     = iota // POST /ingest, 1 + 16·arg text lines
	opFrames          // POST /ingest, 1 + 16·arg lines as binary frames
	opSnapshot        // POST /snapshot
	opSeal            // POST /seal
	opKill            // crash image, restart at 1 + arg%4 workers
	opTorn            // crash image torn inside the last batch, then as opKill
	opText2           // as opText, so that batches dominate a random schedule
	opFrames2         // as opFrames
)

// maxOps bounds a schedule, so a fuzzed input runs in bounded time.
const maxOps = 48

// crashSession is one daemon life on one data directory.
type crashSession struct {
	dir string
	p   *core.Pipeline
	log *wal.Log
	srv *Server
	rs  core.RecoveryStats
}

// bootSession recovers a daemon from dir at the given worker count, as
// datacron-serve boots: prime, Recover, open the WAL, serve.
func bootSession(t *testing.T, sc *synth.Scenario, dir string, workers int) *crashSession {
	t.Helper()
	s := &crashSession{dir: dir, p: crashPipeline(sc)}
	var err error
	if s.rs, err = s.p.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if s.log, err = wal.Open(core.WALDir(dir), wal.Options{NoSync: true}); err != nil {
		t.Fatal(err)
	}
	s.srv = New(Config{Pipeline: s.p, Workers: workers, QueueLen: 1 << 13, WAL: s.log, DataDir: dir, Recovery: &s.rs})
	t.Cleanup(s.close)
	return s
}

// close stops a session (again, at cleanup, harmlessly); its data
// directory is not read after a kill.
func (s *crashSession) close() {
	s.srv.Close()
	s.log.Close()
}

// call serves one request and returns the status and body.
func call(t *testing.T, srv *Server, method, target, contentType string, body []byte) (int, []byte) {
	t.Helper()
	r := httptest.NewRequest(method, target, bytes.NewReader(body))
	if contentType != "" {
		r.Header.Set("Content-Type", contentType)
	}
	w := httptest.NewRecorder()
	srv.Handler().ServeHTTP(w, r)
	return w.Code, w.Body.Bytes()
}

// crashImage copies the data directory of a running daemon between two
// requests: what a kill -9 at that instant leaves on disk. The session is
// not closed first, because closing the WAL flushes it.
func crashImage(t *testing.T, dir string) string {
	t.Helper()
	img := t.TempDir()
	if err := os.CopyFS(img, os.DirFS(dir)); err != nil {
		t.Fatal(err)
	}
	return img
}

// tearLastBatch truncates the image's last WAL segment inside the record
// of the last batch (n records, the log's tail) that pick selects, as a
// kill during that batch's write would, and returns the records that
// survive, in log order, with the bytes torn off.
func tearLastBatch(t *testing.T, img string, n, pick int) ([]synth.TimedLine, int64) {
	t.Helper()
	dir := core.WALDir(img)
	var recs []wal.Record
	_, err := wal.Scan(dir, 1, func(r wal.Record) error {
		recs = append(recs, r)
		return nil
	})
	if err != nil || len(recs) < n {
		t.Fatalf("the image's WAL holds %d records, the last batch alone %d (%v)", len(recs), n, err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "wal-*.seg"))
	last := segs[len(segs)-1]
	fi, err := os.Stat(last)
	if err != nil {
		t.Fatal(err)
	}
	// off is where record k, the torn one, starts; a record is its 8-byte
	// frame, an 8-byte timestamp and the line.
	batch := recs[len(recs)-n:]
	k := pick * n / 32
	off := fi.Size()
	for _, r := range batch[k:] {
		off -= int64(16 + len(r.Line))
	}
	cut := off + int64(16+len(batch[k].Line))/2
	if err := os.Truncate(last, cut); err != nil {
		t.Fatal(err)
	}
	survivors := make([]synth.TimedLine, k)
	for i, r := range batch[:k] {
		survivors[i] = synth.TimedLine{TS: r.TS, Line: r.Line}
	}
	return survivors, cut - off
}

// metricValue reads one unlabelled series from a /metrics body.
func metricValue(t *testing.T, body []byte, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(string(body), "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("%s %q: %v", name, v, err)
			}
			return f
		}
	}
	t.Fatalf("/metrics has no %s", name)
	return 0
}

// checkRecoveryMetrics holds a booted session's recovery series on
// /metrics to the RecoveryStats its Recover returned.
func checkRecoveryMetrics(t *testing.T, s *crashSession) {
	t.Helper()
	_, body := call(t, s.srv, "GET", "/metrics", "", nil)
	for name, want := range map[string]float64{
		"datacron_recovery_replayed_total":       float64(s.rs.Replayed),
		"datacron_recovery_snapshot_lsn":         float64(s.rs.SnapshotLSN),
		"datacron_recovery_tail_truncated_bytes": float64(s.rs.TailTruncatedBytes),
	} {
		if got := metricValue(t, body, name); got != want {
			t.Errorf("%s = %v, RecoveryStats say %v", name, got, want)
		}
	}
}

// frontState returns the operator state (the "front" section of
// state.json) of the snapshot POST /snapshot writes.
func frontState(t *testing.T, srv *Server) []byte {
	t.Helper()
	status, body := call(t, srv, "POST", "/snapshot", "", nil)
	var sr snapshotResponse
	if err := json.Unmarshal(body, &sr); err != nil || status != http.StatusOK {
		t.Fatalf("snapshot: %d %s", status, body)
	}
	data, err := os.ReadFile(filepath.Join(sr.Dir, "state.json"))
	if err != nil {
		t.Fatal(err)
	}
	var st map[string]json.RawMessage
	if err := json.Unmarshal(data, &st); err != nil {
		t.Fatal(err)
	}
	return st["front"]
}

// FuzzCrashEquivalence is the durability property of the serving layer.
// The input decodes into a schedule over crashWorld: text and binary ingest
// batches, snapshots, seals, and kills — a copy of the data directory
// between two requests, recovered by a daemon at 1–4 workers — some of
// them torn inside the last batch's WAL records, which then counts as
// unacknowledged. After a final kill and recovery the daemon must equal a
// fresh one-worker daemon fed exactly the acknowledged lines plus the torn
// batches' surviving log-order prefixes: counters, N-Triples, the fixed
// query, the density total, every synopsis reply and the key groups'
// operator state; /forecast/batch bit for bit when every session ran at one
// worker, else (KNN averages in the order workers interleave) the hub's
// observed count and entities. Every boot's recovery series on /metrics
// equal its RecoveryStats, and the final image recovers twice to the same
// store and counters. The seeds below are the tier-1 run;
// `go test -fuzz FuzzCrashEquivalence` searches and minimises.
func FuzzCrashEquivalence(f *testing.F) {
	// One worker throughout: snapshot, seal, kill and torn kill, so the
	// forecasts must match bit for bit.
	f.Add([]byte{0, step(opText, 20), step(opFrames, 9), step(opSnapshot, 0), step(opText, 12),
		step(opKill, 0), step(opFrames, 15), step(opSeal, 0), step(opText, 6), step(opTorn, 16),
		step(opText, 30), step(opSnapshot, 0), step(opFrames, 31), step(opText, 31),
		step(opText, 31), step(opFrames, 31)})
	// Four workers with queues still draining at the snapshot and the kills,
	// restarts at 2 and 3.
	f.Add([]byte{3, step(opFrames, 31), step(opSnapshot, 0), step(opText, 25), step(opKill, 1),
		step(opText, 10), step(opSeal, 0), step(opSnapshot, 0), step(opFrames, 25),
		step(opTorn, 2+4*5), step(opText, 31), step(opText, 31), step(opFrames, 31),
		step(opFrames, 31)})
	// No snapshot: a torn kill then a kill recover from the whole log.
	f.Add([]byte{1, step(opText, 25), step(opTorn, 3+4*7), step(opFrames, 25), step(opKill, 0),
		step(opSeal, 0), step(opText, 31), step(opTorn, 1)})
	f.Fuzz(checkCrashSchedule)
}

// step encodes one schedule operation with its argument.
func step(op, arg byte) byte { return op | arg<<3 }

// checkCrashSchedule runs one schedule and holds the recovered daemon to
// the reference, as FuzzCrashEquivalence describes.
func checkCrashSchedule(t *testing.T, schedule []byte) {
	if len(schedule) == 0 || len(schedule) > maxOps {
		t.Skip()
	}
	sc := crashWorld()
	stream := sc.WireTimed
	var acked []synth.TimedLine // what the reference is fed
	var last []synth.TimedLine  // the batch of the previous request, if it was one
	allOne := schedule[0]%4 == 0
	s := bootSession(t, sc, t.TempDir(), 1+int(schedule[0]%4))

	// kill crashes s (torn inside the previous batch when tear is set
	// and the previous request was one) and returns the image and
	// whether it was torn.
	kill := func(tear bool, arg int) (string, bool) {
		img := crashImage(t, s.dir)
		s.close()
		if !tear || len(last) == 0 {
			return img, false
		}
		survivors, torn := tearLastBatch(t, img, len(last), arg)
		acked = append(acked[:len(acked)-len(last)], survivors...)
		t.Logf("torn %d bytes into the last batch: %d of %d lines survive", torn, len(survivors), len(last))
		return img, true
	}
	boots := 0
	restart := func(img string, torn bool, workers int) {
		s = bootSession(t, sc, img, workers)
		boots++
		allOne = allOne && workers == 1
		checkRecoveryMetrics(t, s)
		if torn && s.rs.TailTruncatedBytes == 0 {
			t.Error("recovery after a torn kill reports no truncated tail")
		}
	}
	for _, b := range schedule[1:] {
		op, arg := b&7, int(b>>3)
		switch op {
		case opText, opText2, opFrames, opFrames2:
			n := min(1+16*arg, len(stream))
			if n == 0 {
				continue
			}
			batch := stream[:n]
			stream = stream[n:]
			body, ct := []byte(wireBody(batch)), "text/plain"
			if op == opFrames || op == opFrames2 {
				body, ct = frameBody(batch), wire.ContentType
			}
			status, reply := call(t, s.srv, "POST", "/ingest", ct, body)
			var ir IngestResponse
			if err := json.Unmarshal(reply, &ir); err != nil || status != http.StatusAccepted || ir.Accepted != n {
				t.Fatalf("ingest of %d lines: %d %s", n, status, reply)
			}
			acked = append(acked, batch...)
			last = batch
			continue
		case opSnapshot:
			if status, reply := call(t, s.srv, "POST", "/snapshot", "", nil); status != http.StatusOK {
				t.Fatalf("snapshot: %d %s", status, reply)
			}
		case opSeal:
			if status, reply := call(t, s.srv, "POST", "/seal", "", nil); status != http.StatusOK {
				t.Fatalf("seal: %d %s", status, reply)
			}
		case opKill, opTorn:
			img, torn := kill(op == opTorn, arg)
			restart(img, torn, 1+arg%4)
		}
		last = nil
	}
	img, torn := kill(false, 0)
	again := crashImage(t, img)
	restart(img, torn, 1)

	// The final image recovers the same way twice.
	twin := crashPipeline(sc)
	if _, err := twin.Recover(again); err != nil {
		t.Fatal(err)
	}
	if got, want := twin.Stats.Snapshot(), s.p.Stats.Snapshot(); got != want {
		t.Errorf("a second recovery of the final image: counters %+v, first %+v", got, want)
	}
	if !bytes.Equal(exportNT(t, twin), exportNT(t, s.p)) {
		t.Error("a second recovery of the final image: N-Triples differ from the first")
	}

	ref := crashPipeline(sc)
	refSrv := New(Config{Pipeline: ref, Workers: 1, QueueLen: 1 << 13, DataDir: t.TempDir()})
	defer refSrv.Close()
	if err := refSrv.Ingestor().Feed(nil, acked); err != nil {
		t.Fatal(err)
	}
	got, want := s.p.Stats.Snapshot(), ref.Stats.Snapshot()
	if got != want {
		t.Errorf("counters %+v, reference %+v", got, want)
	}
	t.Logf("%d acked lines, %d detections, %d kept; %d boots recovered", len(acked), want.Detections, want.Kept, boots)
	if !bytes.Equal(exportNT(t, s.p), exportNT(t, ref)) {
		t.Error("N-Triples differ from the reference")
	}
	if fixedQuery(t, s.p) != fixedQuery(t, ref) {
		t.Error("the fixed query differs from the reference")
	}
	if s.p.Density.Total() != ref.Density.Total() {
		t.Errorf("density total %v, reference %v", s.p.Density.Total(), ref.Density.Total())
	}
	paths := []string{"/synopses/batch"}
	for _, e := range sc.Entities {
		paths = append(paths, "/synopses/"+e.ID)
	}
	if allOne {
		paths = append(paths, "/forecast/batch")
	} else if s.p.ForecastHub.Observed() != ref.ForecastHub.Observed() || s.p.ForecastHub.Entities() != ref.ForecastHub.Entities() {
		t.Errorf("forecast hub observed %d reports of %d entities, reference %d of %d",
			s.p.ForecastHub.Observed(), s.p.ForecastHub.Entities(), ref.ForecastHub.Observed(), ref.ForecastHub.Entities())
	}
	for _, path := range paths {
		st, body := call(t, s.srv, "GET", path, "", nil)
		refSt, refBody := call(t, refSrv, "GET", path, "", nil)
		if st != refSt || !bytes.Equal(body, refBody) {
			t.Errorf("GET %s: %d, %d bytes; reference %d, %d bytes", path, st, len(body), refSt, len(refBody))
		}
	}
	if !bytes.Equal(frontState(t, s.srv), frontState(t, refSrv)) {
		t.Error("operator state in state.json differs from the reference")
	}
}

// The kill -9 goldens each subsystem once scripted by hand, as schedules.

// TestServerKillRecoverGolden: text batches, a snapshot mid-stream, a kill
// with lines still queued at four workers, a restart at four.
func TestServerKillRecoverGolden(t *testing.T) {
	checkCrashSchedule(t, []byte{3, step(opText, 31), step(opText, 31), step(opSnapshot, 0),
		step(opText, 31), step(opKill, 3), step(opText, 31), step(opText, 31)})
}

// TestServerIngestBinaryKillRecoverGolden: binary-frame batches only, over
// a snapshot and a kill at two workers.
func TestServerIngestBinaryKillRecoverGolden(t *testing.T) {
	checkCrashSchedule(t, []byte{1, step(opFrames, 31), step(opFrames, 31), step(opSnapshot, 0),
		step(opFrames, 20), step(opKill, 1), step(opFrames, 31)})
}

// TestServerSynopsesKillRecoverGolden: synopses built across seals, a
// snapshot and a kill, then extended after the restart.
func TestServerSynopsesKillRecoverGolden(t *testing.T) {
	checkCrashSchedule(t, []byte{2, step(opText, 31), step(opSeal, 0), step(opFrames, 31),
		step(opSnapshot, 0), step(opText, 31), step(opKill, 2), step(opText, 31), step(opSeal, 0)})
}

// TestServerForecastKillRecover: one worker in every session, so
// /forecast/batch must match the reference bit for bit across two kills.
func TestServerForecastKillRecover(t *testing.T) {
	checkCrashSchedule(t, []byte{0, step(opText, 31), step(opSnapshot, 0), step(opFrames, 31),
		step(opKill, 0), step(opKill, 4), step(opText, 12)})
}
