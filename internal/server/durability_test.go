package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/ais"
	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

// goldenWorld is a scenario whose complex events are all per-entity
// (Rendezvous: -1 disables the scripted pairs), so every observable —
// triples, counters, event multiset — is independent of cross-entity
// arrival order and a recovered daemon must match an uninterrupted run
// byte for byte.
func goldenWorld(t testing.TB) *synth.Scenario {
	t.Helper()
	return synth.GenMaritime(synth.MaritimeConfig{
		Seed: 4242, Vessels: 12, Duration: time.Hour,
		Rendezvous: -1, Loiterers: 2, GapProb: 0.0005, OutlierProb: 0.002,
	})
}

// durableWorldServer builds a primed pipeline + durable server over
// dataDir with a fresh WAL.
func durableWorldServer(t testing.TB, sc *synth.Scenario, dataDir string, cfg Config) (*core.Pipeline, *wal.Log, *Server, *httptest.Server) {
	t.Helper()
	p := core.New(core.Config{Domain: model.Maritime})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	rs, err := p.Recover(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	l, err := wal.Open(core.WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Pipeline, cfg.WAL, cfg.DataDir, cfg.Recovery = p, l, dataDir, &rs
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close(); l.Close() })
	return p, l, srv, ts
}

func exportNT(t testing.TB, p *core.Pipeline) []byte {
	t.Helper()
	var b bytes.Buffer
	if err := p.Store.ExportNT(&b); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// fixedQuery runs the acceptance query against a pipeline directly.
func fixedQuery(t testing.TB, p *core.Pipeline) string {
	t.Helper()
	res, err := p.Engine.Execute(`SELECT ?v WHERE { ?v rdf:type dat:Vessel . }`)
	if err != nil {
		t.Fatal(err)
	}
	rows := make([]string, 0, len(res.Rows))
	for _, r := range res.Rows {
		rows = append(rows, fmt.Sprint(r))
	}
	return strings.Join(rows, "\n")
}

// TestServerSoakSnapshotUnderLoad is the -race soak: 8 concurrent ingest
// clients, 3 query/range/metrics readers, and snapshots taken while ingest
// is in flight. Afterwards the WAL+snapshot must recover to exactly the
// live server's state: no torn snapshot, no post-recovery divergence.
func TestServerSoakSnapshotUnderLoad(t *testing.T) {
	sc := goldenWorld(t)
	dataDir := t.TempDir()
	p1, _, srv, ts := durableWorldServer(t, sc, dataDir, Config{Workers: 4, QueueLen: 1 << 16})

	const clients = 8
	parts := make([][]synth.TimedLine, clients)
	for _, tl := range sc.WireTimed {
		key, ok := ais.RoutingKey(tl.Line)
		if !ok {
			key = tl.Line
		}
		h := fnv.New32a()
		h.Write([]byte(key))
		parts[h.Sum32()%clients] = append(parts[h.Sum32()%clients], tl)
	}

	var accepted atomic.Int64
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, path := range []string{"/range?limit=10", "/metrics", "/healthz"} {
					resp, err := ts.Client().Get(ts.URL + path)
					if err == nil {
						io.Copy(io.Discard, resp.Body)
						resp.Body.Close()
					}
				}
			}
		}()
	}
	// Snapshotter: fires while ingest is in full flight.
	snapDone := make(chan error, 1)
	go func() {
		var firstErr error
		for i := 0; i < 3; i++ {
			time.Sleep(30 * time.Millisecond)
			resp, err := ts.Client().Post(ts.URL+"/snapshot", "", nil)
			if err != nil {
				firstErr = err
				break
			}
			var sr snapshotResponse
			if err := json.NewDecoder(resp.Body).Decode(&sr); err == nil && sr.Error != "" {
				firstErr = fmt.Errorf("snapshot: %s", sr.Error)
			}
			resp.Body.Close()
			if firstErr != nil {
				break
			}
		}
		snapDone <- firstErr
	}()

	var cwg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cwg.Add(1)
		go func(lines []synth.TimedLine) {
			defer cwg.Done()
			const batch = 1500
			for i := 0; i < len(lines); i += batch {
				end := i + batch
				if end > len(lines) {
					end = len(lines)
				}
				ir := postIngest(t, ts.Client(), ts.URL, wireBody(lines[i:end]), false)
				accepted.Add(int64(ir.Accepted))
			}
		}(parts[c])
	}
	cwg.Wait()
	if err := <-snapDone; err != nil {
		t.Fatalf("snapshot under load: %v", err)
	}
	close(stop)
	readers.Wait()
	if !srv.Ingestor().Quiesce(30 * time.Second) {
		t.Fatal("ingest did not drain")
	}

	// Every accepted (acked) line was processed exactly once.
	snap := p1.Stats.Snapshot()
	if snap.Lines != accepted.Load() {
		t.Errorf("processed %d lines, acked %d", snap.Lines, accepted.Load())
	}

	// Recover a fresh pipeline from the data dir: snapshot + tail replay
	// must reproduce the live state exactly.
	p2 := core.New(core.Config{Domain: model.Maritime})
	p2.InstallAreas(sc.Areas)
	p2.InstallEntities(sc.Entities)
	rs, err := p2.Recover(dataDir)
	if err != nil {
		t.Fatal(err)
	}
	if rs.SnapshotLSN == 0 {
		t.Error("no snapshot was loaded — snapshots under load did not land")
	}
	if got := p2.Stats.Snapshot(); got != snap {
		t.Errorf("post-recovery divergence: %+v, want %+v", got, snap)
	}
	if got, want := exportNT(t, p2), exportNT(t, p1); !bytes.Equal(got, want) {
		t.Error("post-recovery store dump diverges from the live server")
	}
}

// TestSnapshotWithoutDataDir verifies the admin endpoint degrades cleanly.
func TestSnapshotWithoutDataDir(t *testing.T) {
	_, _, ts := testWorld(t, Config{Workers: 1, QueueLen: 64})
	resp, err := ts.Client().Post(ts.URL+"/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Errorf("status = %d, want 409", resp.StatusCode)
	}
}
