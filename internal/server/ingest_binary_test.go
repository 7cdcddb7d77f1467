package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wire"
)

// postFrames posts a binary body and decodes the ingest response.
func postFrames(t testing.TB, client *http.Client, url string, body []byte, wait bool) (IngestResponse, int) {
	t.Helper()
	u := url + "/ingest"
	if wait {
		u += "?wait=1"
	}
	resp, err := client.Post(u, wire.ContentType, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatalf("decode ingest response: %v", err)
	}
	return ir, resp.StatusCode
}

// The binary frame path must drive the pipeline to exactly the same state
// as the text path over the same wire stream.
func TestServerIngestBinaryMatchesText(t *testing.T) {
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 77, Vessels: 14, Duration: 90 * time.Minute,
		Rendezvous: -1, Loiterers: 2, GapProb: 0.0001, OutlierProb: 0.002,
	})
	run := func(post func(ts string, client *http.Client, tls []synth.TimedLine) int) core.StatsSnapshot {
		p := core.New(core.Config{Domain: model.Maritime})
		p.InstallAreas(sc.Areas)
		p.InstallEntities(sc.Entities)
		srv := New(Config{Pipeline: p, Workers: 4, QueueLen: 1 << 16})
		ts := newTestServer(t, srv)
		accepted := 0
		const batch = 2000
		for i := 0; i < len(sc.WireTimed); i += batch {
			end := i + batch
			if end > len(sc.WireTimed) {
				end = len(sc.WireTimed)
			}
			accepted += post(ts.URL, ts.Client(), sc.WireTimed[i:end])
		}
		if accepted != len(sc.WireTimed) {
			t.Fatalf("accepted %d of %d lines", accepted, len(sc.WireTimed))
		}
		if !srv.Ingestor().Quiesce(30 * time.Second) {
			t.Fatal("quiesce timeout")
		}
		return p.Stats.Snapshot()
	}
	text := run(func(url string, client *http.Client, tls []synth.TimedLine) int {
		ir := postIngest(t, client, url, wireBody(tls), false)
		return ir.Accepted
	})
	binary := run(func(url string, client *http.Client, tls []synth.TimedLine) int {
		// Split each batch across two back-to-back frames to exercise the
		// multi-frame body path.
		body := frameBody(tls[:len(tls)/2])
		body = append(body, frameBody(tls[len(tls)/2:])...)
		ir, status := postFrames(t, client, url, body, false)
		if status != http.StatusAccepted {
			t.Fatalf("status %d: %+v", status, ir)
		}
		return ir.Accepted
	})
	if text != binary {
		t.Errorf("pipeline counters diverge:\ntext:   %+v\nbinary: %+v", text, binary)
	}
}

// newTestServer attaches httptest to a server the test owns.
func newTestServer(t testing.TB, srv *Server) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return ts
}

// A malformed frame must fail the request with 400 while preserving the
// accepted prefix, and surface in the bad-frame metric.
func TestServerIngestBinaryBadFrame(t *testing.T) {
	sc := synth.GenMaritime(synth.MaritimeConfig{Seed: 12, Vessels: 4, Duration: 10 * time.Minute})
	p := core.New(core.Config{Domain: model.Maritime})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	srv := New(Config{Pipeline: p, Workers: 2, QueueLen: 1 << 12})
	ts := newTestServer(t, srv)

	half := len(sc.WireTimed) / 2
	good := frameBody(sc.WireTimed[:half])
	bad := frameBody(sc.WireTimed[half:])
	bad[len(bad)-1] ^= 0xFF // breaks the CRC
	ir, status := postFrames(t, ts.Client(), ts.URL, append(append([]byte{}, good...), bad...), false)
	if status != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400", status)
	}
	if ir.Accepted != half {
		t.Errorf("accepted = %d, want the %d-record good frame", ir.Accepted, half)
	}
	if ir.Error == "" || !strings.Contains(ir.Error, "checksum") {
		t.Errorf("error %q does not name the checksum failure", ir.Error)
	}
	if !srv.Ingestor().Quiesce(30 * time.Second) {
		t.Fatal("quiesce timeout")
	}
	if got := p.Stats.Snapshot().Lines; got != int64(half) {
		t.Errorf("pipeline processed %d lines, want %d", got, half)
	}

	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{
		"datacron_ingest_frames_total 1",
		"datacron_ingest_bad_frames_total 1",
	} {
		if !strings.Contains(string(mbody), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}
