package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/ais"
	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
)

// testWorld generates the same maritime scenario the core end-to-end test
// uses (scripted loiterers guarantee complex events) and a server primed
// with its areas and entities.
func testWorld(t testing.TB, cfg Config) (*synth.Scenario, *Server, *httptest.Server) {
	t.Helper()
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 77, Vessels: 14, Duration: 90 * time.Minute,
		Rendezvous: 1, Loiterers: 2, GapProb: 0.0001, OutlierProb: 0.002,
	})
	p := core.New(core.Config{Domain: model.Maritime})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	cfg.Pipeline = p
	srv := New(cfg)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { ts.Close(); srv.Close() })
	return sc, srv, ts
}

// wireBody renders timed lines in the "<unix-ms> <line>" wire format.
func wireBody(tls []synth.TimedLine) string {
	var b strings.Builder
	for _, tl := range tls {
		fmt.Fprintf(&b, "%d %s\n", tl.TS, tl.Line)
	}
	return b.String()
}

// postIngest posts one batch, retrying rejected lines is the caller's job.
func postIngest(t testing.TB, client *http.Client, url, body string, wait bool) IngestResponse {
	t.Helper()
	u := url + "/ingest"
	if wait {
		u += "?wait=1"
	}
	resp, err := client.Post(u, "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatalf("decode ingest response: %v", err)
	}
	return ir
}

// sseListen subscribes to /events and forwards decoded events until the
// connection drops.
func sseListen(t testing.TB, url string) (<-chan eventJSON, func()) {
	t.Helper()
	req, err := http.NewRequest("GET", url+"/events", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	out := make(chan eventJSON, 1024)
	go func() {
		defer close(out)
		defer resp.Body.Close()
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if !strings.HasPrefix(line, "data: ") {
				continue
			}
			var ev eventJSON
			if err := json.Unmarshal([]byte(line[len("data: "):]), &ev); err == nil {
				out <- ev
			}
		}
	}()
	return out, func() { resp.Body.Close() }
}

func TestServerRoundTrip(t *testing.T) {
	sc, srv, ts := testWorld(t, Config{Workers: 4, QueueLen: 4096})

	events, stopSSE := sseListen(t, ts.URL)
	defer stopSSE()
	// Give the subscription a beat to register before events can flow.
	deadline := time.Now().Add(2 * time.Second)
	for srv.hub.subscribers() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}

	// Ingest the whole wire stream in batches from one sequential client
	// (order preserved per entity), waiting out the queue on the last one.
	const batch = 5000
	for i := 0; i < len(sc.WireTimed); i += batch {
		end := i + batch
		if end > len(sc.WireTimed) {
			end = len(sc.WireTimed)
		}
		body := wireBody(sc.WireTimed[i:end])
		ir := postIngest(t, ts.Client(), ts.URL, body, end == len(sc.WireTimed))
		if ir.Rejected != 0 {
			t.Fatalf("sequential ingest with large queue rejected %d lines", ir.Rejected)
		}
	}
	if !srv.Ingestor().Quiesce(30 * time.Second) {
		t.Fatal("ingest did not drain")
	}

	snap := srv.p.Stats.Snapshot()
	if snap.Lines != int64(len(sc.WireTimed)) {
		t.Errorf("lines = %d, want %d", snap.Lines, len(sc.WireTimed))
	}
	if snap.Decoded == 0 || snap.Kept == 0 {
		t.Fatalf("nothing flowed: %+v", snap)
	}
	if snap.Detections == 0 {
		t.Error("no complex events detected from scripted scenario")
	}

	// Query path: all vessels are visible.
	resp, err := ts.Client().Post(ts.URL+"/query", "application/json",
		strings.NewReader(`{"query": "SELECT ?v WHERE { ?v rdf:type dat:Vessel . }"}`))
	if err != nil {
		t.Fatal(err)
	}
	var qr QueryResponse
	if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(qr.Rows) != 14 {
		t.Errorf("queried vessels = %d, want 14", len(qr.Rows))
	}

	// Range path: every anchored fragment (kept positions + events) is in
	// the padded world box.
	world := srv.p.WorldBox()
	bounds := fmt.Sprintf("minlon=%f&minlat=%f&maxlon=%f&maxlat=%f",
		world.MinLon-1, world.MinLat-1, world.MaxLon+1, world.MaxLat+1)
	rresp, err := ts.Client().Get(ts.URL + "/range?" + bounds + "&limit=100000")
	if err != nil {
		t.Fatal(err)
	}
	var rr rangeResponse
	if err := json.NewDecoder(rresp.Body).Decode(&rr); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if want := int(snap.Kept + snap.Detections); rr.Count != want || rr.Truncated {
		t.Errorf("range count = %d (truncated=%v), want kept+detections = %d", rr.Count, rr.Truncated, want)
	}
	// A tight limit bounds both the response and the scan.
	rresp, err = ts.Client().Get(ts.URL + "/range?" + bounds + "&limit=1")
	if err != nil {
		t.Fatal(err)
	}
	var rl rangeResponse
	if err := json.NewDecoder(rresp.Body).Decode(&rl); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if !rl.Truncated || len(rl.Hits) != 1 || rl.Count != 1 {
		t.Errorf("limit=1 not honoured: truncated=%v hits=%d count=%d", rl.Truncated, len(rl.Hits), rl.Count)
	}
	// A NaN bound is no bound: 400, not an empty answer from the shards NaN
	// cell coordinates pick. ±Inf stays an open bound.
	for _, q := range []string{"minlon=NaN", "maxlat=nan", "minlat=NaN&maxlon=NaN"} {
		if code, body := getBody(t, ts.URL+"/range?"+q); code != http.StatusBadRequest {
			t.Errorf("/range?%s = %d %s, want 400", q, code, body)
		}
	}
	rresp, err = ts.Client().Get(ts.URL + "/range?minlon=-Inf&minlat=-Inf&maxlon=%2BInf&maxlat=%2BInf&limit=100000")
	if err != nil {
		t.Fatal(err)
	}
	var ri rangeResponse
	if err := json.NewDecoder(rresp.Body).Decode(&ri); err != nil {
		t.Fatal(err)
	}
	rresp.Body.Close()
	if ri.Count != rr.Count {
		t.Errorf("infinite bounds count = %d, want the padded world's %d", ri.Count, rr.Count)
	}

	// Events path: the scripted loitering must have been fanned out.
	sawLoitering := false
	timeout := time.After(5 * time.Second)
collect:
	for !sawLoitering {
		select {
		case ev, ok := <-events:
			if !ok {
				break collect
			}
			if ev.Type == "loitering" {
				sawLoitering = true
			}
		case <-timeout:
			break collect
		}
	}
	if !sawLoitering {
		t.Error("no loitering event received over /events")
	}

	// Observability.
	hresp, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var hr healthResponse
	if err := json.NewDecoder(hresp.Body).Decode(&hr); err != nil {
		t.Fatal(err)
	}
	hresp.Body.Close()
	if hr.Status != "ok" || hr.Lines != snap.Lines || hr.Triples == 0 {
		t.Errorf("healthz = %+v", hr)
	}
	mresp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	metrics := string(mbody)
	for _, want := range []string{
		fmt.Sprintf("datacron_ingest_lines_total %d", snap.Lines),
		fmt.Sprintf("datacron_ingest_stored_total %d", snap.Kept),
		"datacron_shard_load{shard=\"0\"}",
		"datacron_ingest_queue_depth{worker=\"0\"}",
		"datacron_http_requests_total{path=\"/ingest\"}",
	} {
		if !strings.Contains(metrics, want) {
			t.Errorf("metrics missing %q", want)
		}
	}
}

// TestServerConcurrentIngestQuery drives ingest from 8 concurrent clients
// while querying; run under -race this is the serving layer's core safety
// test. Lines are partitioned by routing key so each entity's stream stays
// ordered within one client.
func TestServerConcurrentIngestQuery(t *testing.T) {
	sc, srv, ts := testWorld(t, Config{Workers: 4, QueueLen: 8192})

	const clients = 8
	parts := make([][]synth.TimedLine, clients)
	for _, tl := range sc.WireTimed {
		key, ok := ais.RoutingKey(tl.Line)
		if !ok {
			key = tl.Line
		}
		h := fnv.New32a()
		h.Write([]byte(key))
		i := int(h.Sum32() % clients)
		parts[i] = append(parts[i], tl)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	// Query/range/metrics readers run throughout the ingest burst.
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := ts.Client().Post(ts.URL+"/query", "text/plain",
					strings.NewReader(`SELECT ?v WHERE { ?v rdf:type dat:Vessel . }`))
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				resp, err = ts.Client().Get(ts.URL + "/range?limit=10")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
				resp, err = ts.Client().Get(ts.URL + "/metrics")
				if err == nil {
					io.Copy(io.Discard, resp.Body)
					resp.Body.Close()
				}
			}
		}()
	}

	// 8 concurrent ingest clients. Each line is submitted exactly once, so
	// afterwards processed + rejected must equal the wire stream size.
	var cwg sync.WaitGroup
	for c := 0; c < clients; c++ {
		cwg.Add(1)
		go func(lines []synth.TimedLine) {
			defer cwg.Done()
			const batch = 2000
			for i := 0; i < len(lines); i += batch {
				end := i + batch
				if end > len(lines) {
					end = len(lines)
				}
				postIngest(t, ts.Client(), ts.URL, wireBody(lines[i:end]), false)
			}
		}(parts[c])
	}
	cwg.Wait()
	close(stop)
	wg.Wait()

	if !srv.Ingestor().Quiesce(30 * time.Second) {
		t.Fatal("ingest did not drain")
	}

	// Consistency: counters add up and the store agrees with them.
	snap := srv.p.Stats.Snapshot()
	if snap.Lines == 0 {
		t.Fatal("no lines ingested")
	}
	if got := snap.Lines + srv.Ingestor().Rejected(); got != int64(len(sc.WireTimed)) {
		t.Errorf("accounting: lines(%d)+rejected(%d) = %d, want %d",
			snap.Lines, srv.Ingestor().Rejected(), got, len(sc.WireTimed))
	}
	world := srv.p.WorldBox()
	results, _, _ := srv.p.Store.RangeQueryN(world.Buffer(1), 0, 1<<62, 0)
	if want := int(snap.Kept + snap.Detections); len(results) != want {
		t.Errorf("range count = %d, want kept+detections = %d", len(results), want)
	}
	// Queries after the burst return the full vessel set.
	res, err := srv.p.Engine.Execute(`SELECT ?v WHERE { ?v rdf:type dat:Vessel . }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 14 {
		t.Errorf("vessels = %d, want 14", len(res.Rows))
	}
}

// TestServerBackpressure floods a deliberately tiny ingest front-end and
// expects 429 + rejected accounting.
func TestServerBackpressure(t *testing.T) {
	sc, srv, ts := testWorld(t, Config{Workers: 1, QueueLen: 1})
	body := wireBody(sc.WireTimed)
	resp, err := ts.Client().Post(ts.URL+"/ingest", "text/plain", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var ir IngestResponse
	if err := json.NewDecoder(resp.Body).Decode(&ir); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if ir.Rejected == 0 {
		t.Skip("worker outran the submitter; backpressure not observable on this host")
	}
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Errorf("status = %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("missing Retry-After header")
	}
	// accepted is an exact resume offset: together they cover the batch.
	if ir.Accepted+ir.Rejected != len(sc.WireTimed) {
		t.Errorf("accepted(%d)+rejected(%d) != %d lines", ir.Accepted, ir.Rejected, len(sc.WireTimed))
	}
	srv.Ingestor().Quiesce(30 * time.Second)
	// Exactly the accepted prefix was ingested — nothing was dropped
	// silently mid-batch, so a client resend from `accepted` is lossless.
	if got := srv.p.Stats.Snapshot().Lines; got != int64(ir.Accepted) {
		t.Errorf("ingested lines = %d, response said accepted = %d", got, ir.Accepted)
	}
}

// TestHubSlowSubscriber verifies a stalled /events client drops events
// instead of blocking ingest.
func TestHubSlowSubscriber(t *testing.T) {
	h := newHub(2)
	ch, cancel := h.subscribe()
	defer cancel()
	evs := make([]model.Event, 10)
	for i := range evs {
		evs[i] = model.Event{Type: "x", Entity: "e", StartTS: int64(i)}
	}
	done := make(chan struct{})
	go func() {
		h.publishBatch(evs, nil) // must not block even though nobody reads
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("publish blocked on slow subscriber")
	}
	if h.dropped.Load() != 8 {
		t.Errorf("dropped = %d, want 8", h.dropped.Load())
	}
	if len(ch) != 2 {
		t.Errorf("buffered = %d, want 2", len(ch))
	}
}

// The partial flag rides on the wire types a node shares with its cluster
// coordinator. A node never sets it, so its JSON must never carry the key;
// a coordinator's degraded answer must.
func TestWireTypesOmitPartial(t *testing.T) {
	for _, tc := range []struct {
		complete, degraded any
	}{
		{QueryResponse{}, QueryResponse{Partial: true}},
		{ForecastBatchResponse{}, ForecastBatchResponse{Partial: true}},
		{SynopsesBatchResponse{}, SynopsesBatchResponse{Partial: true}},
	} {
		complete, err := json.Marshal(tc.complete)
		if err != nil {
			t.Fatal(err)
		}
		if strings.Contains(string(complete), "partial") {
			t.Errorf("%T without Partial encodes the key: %s", tc.complete, complete)
		}
		degraded, err := json.Marshal(tc.degraded)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(string(degraded), `"partial":true`) {
			t.Errorf("%T with Partial drops the key: %s", tc.degraded, degraded)
		}
	}
}
