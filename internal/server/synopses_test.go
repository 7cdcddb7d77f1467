package server

import (
	"bufio"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/ais"
	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synopses"
	"github.com/datacron-project/datacron/internal/synth"
)

// manoeuvreWire encodes an AIS track with the critical points the detector
// keys on: 3 minutes cruising east, a 90° turn south, 3 more minutes, then
// 3 minutes moored — so the synopsis must contain at least one turn, one
// speed change and one stop.
func manoeuvreWire(t testing.TB, mmsi uint32) []synth.TimedLine {
	t.Helper()
	var lines []synth.TimedLine
	pt := geo.Pt(24.0, 37.5)
	emit := func(i int, speedMS, course float64) {
		ts := int64(i*10) * 1000
		msg := ais.PositionReport{
			MsgType: 1, MMSI: mmsi, Lon: pt.Lon, Lat: pt.Lat,
			SOG: geo.ToKnots(speedMS), COG: course, Heading: course,
			Second: int(ts/1000) % 60,
		}
		payload, fill, err := msg.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range ais.ToSentences(payload, fill, 0, "A") {
			lines = append(lines, synth.TimedLine{TS: ts, Line: line})
		}
		pt = geo.Destination(pt, course, speedMS*10)
	}
	for i := 0; i < 18; i++ {
		emit(i, 8, 90)
	}
	// Turn south and speed up at once: the same report carries a turn and
	// a speed-change point. (Slowing into the berth is deliberately NOT a
	// speed change — the stop episode swallows it.)
	for i := 18; i < 36; i++ {
		emit(i, 14, 180)
	}
	for i := 36; i < 54; i++ {
		emit(i, 0.1, 180)
	}
	return lines
}

// synopsesWorld builds a synopses-enabled server over a blank maritime
// world.
func synopsesWorld(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	p := core.New(core.Config{
		Domain:   model.Maritime,
		Synopses: core.SynopsesConfig{Enabled: true},
	})
	cfg.Pipeline = p
	srv := New(cfg)
	h := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { h.Close(); srv.Close() })
	return srv, h.URL
}

// TestServerSynopsesEndpoints drives the /synopses surface end to end: a
// manoeuvring track must yield a synopsis with turn, speed-change and stop
// points, batch and detail views must agree, and the error surface must
// hold (404 unknown entity, 503 when disabled).
func TestServerSynopsesEndpoints(t *testing.T) {
	srv, ts := synopsesWorld(t, Config{Workers: 2, QueueLen: 1 << 14})
	lines := manoeuvreWire(t, 237000001)
	if ir := postIngest(t, http.DefaultClient, ts, wireBody(lines), true); ir.Rejected != 0 {
		t.Fatalf("rejected %d lines", ir.Rejected)
	}

	var sr synopsisResponse
	if status := getJSON(t, ts+"/synopses/237000001", &sr); status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if sr.Entity != "237000001" || sr.Raw == 0 || len(sr.Points) == 0 {
		t.Fatalf("degenerate synopsis: %+v", sr)
	}
	if sr.Raw < sr.Critical || sr.Ratio <= 1 {
		t.Errorf("no compression: raw=%d critical=%d ratio=%.1f", sr.Raw, sr.Critical, sr.Ratio)
	}
	kinds := map[string]int{}
	for _, p := range sr.Points {
		kinds[p.Kind]++
	}
	for _, want := range []string{"turn", "speed-change", "stop"} {
		if kinds[want] == 0 {
			t.Errorf("synopsis missing a %q point: %v", want, kinds)
		}
	}

	var br SynopsesBatchResponse
	if status := getJSON(t, ts+"/synopses/batch", &br); status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	if br.Count != 1 || len(br.Entities) != 1 || br.Entities[0].Entity != "237000001" {
		t.Fatalf("batch = %+v, want the one entity", br)
	}
	if br.Observed != sr.Raw || br.Critical != sr.Critical {
		t.Errorf("batch accounting %d/%d disagrees with detail %d/%d", br.Observed, br.Critical, sr.Raw, sr.Critical)
	}
	var byKind int64
	for _, n := range br.ByKind {
		byKind += n
	}
	if byKind != br.Critical {
		t.Errorf("byKind sums to %d, critical = %d", byKind, br.Critical)
	}

	if status := getJSON(t, ts+"/synopses/999999999", nil); status != http.StatusNotFound {
		t.Errorf("unknown entity status = %d, want 404", status)
	}

	// Metrics carry the synopsis block.
	resp, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	for _, want := range []string{
		"datacron_synopses_observed_total",
		"datacron_synopses_critical_total",
		"datacron_synopses_compression_ratio",
		`datacron_synopses_critical_kind_total{kind="turn"}`,
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("metrics missing %q", want)
		}
	}
	_ = srv
}

// TestServerSynopsesBatchEmpty: before any ingest the batch body carries an
// empty array, not null (the documented shape clients iterate).
func TestServerSynopsesBatchEmpty(t *testing.T) {
	_, ts := synopsesWorld(t, Config{Workers: 1, QueueLen: 64})
	status, body := getBody(t, ts+"/synopses/batch")
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	if !strings.Contains(string(body), `"entities":[]`) {
		t.Errorf("empty batch body = %s, want \"entities\":[]", body)
	}
}

// TestServerSynopsesDisabled: without the hub the endpoints degrade to 503.
func TestServerSynopsesDisabled(t *testing.T) {
	_, _, ts := testWorld(t, Config{Workers: 1, QueueLen: 64})
	if status := getJSON(t, ts.URL+"/synopses/237000001", nil); status != http.StatusServiceUnavailable {
		t.Errorf("/synopses status = %d, want 503", status)
	}
	if status := getJSON(t, ts.URL+"/synopses/batch", nil); status != http.StatusServiceUnavailable {
		t.Errorf("/synopses/batch status = %d, want 503", status)
	}
}

// sseListenRaw subscribes to /events and forwards (event, data) frame pairs.
func sseListenRaw(t testing.TB, url string) (<-chan [2]string, func()) {
	t.Helper()
	req, err := http.NewRequest("GET", url+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan [2]string, 4096)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		event := ""
		for sc.Scan() {
			line := sc.Text()
			switch {
			case strings.HasPrefix(line, "event: "):
				event = line[len("event: "):]
			case strings.HasPrefix(line, "data: "):
				out <- [2]string{event, line[len("data: "):]}
			}
		}
	}()
	return out, func() { resp.Body.Close() }
}

// TestServerSynopsisSSE: newly detected critical points leave with their
// ingest batch and arrive at an /events subscriber as "synopsis" frames, with
// nothing to configure; while nobody subscribes, a batch's points are
// counted but no frame is built.
func TestServerSynopsisSSE(t *testing.T) {
	srv, ts := synopsesWorld(t, Config{Workers: 2, QueueLen: 1 << 14})
	cps := []synopses.CriticalPoint{{Kind: synopses.Turn, Pos: model.Position{EntityID: "237000001"}}}
	if allocs := testing.AllocsPerRun(100, func() { srv.hub.publishBatch(nil, cps) }); allocs != 0 {
		t.Errorf("a synopsis batch with no subscriber allocates %.0f times: its frames were built", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() { srv.hub.publishBatch(nil, nil) }); allocs != 0 {
		t.Errorf("an empty batch allocates %.0f times", allocs)
	}
	counted := srv.hub.synopses.Load()
	if counted != 101 {
		t.Errorf("synopsis frames counted without a subscriber = %d, want 101", counted)
	}

	frames, stop := sseListenRaw(t, ts)
	defer stop()
	deadline := time.Now().Add(2 * time.Second)
	for srv.hub.subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	lines := manoeuvreWire(t, 237000001)
	postIngest(t, http.DefaultClient, ts, wireBody(lines), true)

	got := 0
	timeout := time.After(5 * time.Second)
	for got == 0 {
		select {
		case f, ok := <-frames:
			if !ok {
				t.Fatal("SSE stream closed before a synopsis frame arrived")
			}
			if f[0] == "synopsis" {
				got++
				if !strings.Contains(f[1], `"entity":"237000001"`) || !strings.Contains(f[1], `"kind"`) {
					t.Errorf("synopsis frame payload: %s", f[1])
				}
			}
		case <-timeout:
			t.Fatal("no synopsis SSE frame within 5s")
		}
	}
	if srv.hub.synopses.Load() == counted {
		t.Error("published counter did not advance")
	}
}

// getBody fetches url and returns status + raw body bytes.
func getBody(t testing.TB, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}
