package server

import (
	"encoding/json"
	"fmt"
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
	"github.com/datacron-project/datacron/internal/synth"
)

// straightWire encodes a constant-velocity AIS track (heading east from
// start) as timed wire lines, returning the lines plus the noise-free
// ground-truth positions.
func straightWire(t testing.TB, mmsi uint32, start geo.Point, n, stepS int, speedMS float64) ([]synth.TimedLine, []model.Position) {
	t.Helper()
	var lines []synth.TimedLine
	var truth []model.Position
	pt := start
	for i := 0; i < n; i++ {
		ts := int64(i*stepS) * 1000
		truth = append(truth, model.Position{
			EntityID: fmt.Sprintf("%09d", mmsi), TS: ts, Pt: pt,
			SpeedMS: speedMS, CourseDeg: 90,
		})
		msg := ais.PositionReport{
			MsgType: 1, MMSI: mmsi, Lon: pt.Lon, Lat: pt.Lat,
			SOG: geo.ToKnots(speedMS), COG: 90, Heading: 90,
			Second: int(ts/1000) % 60,
		}
		payload, fill, err := msg.Encode()
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range ais.ToSentences(payload, fill, 0, "A") {
			lines = append(lines, synth.TimedLine{TS: ts, Line: line})
		}
		pt = geo.Destination(pt, 90, speedMS*float64(stepS))
	}
	return lines, truth
}

// forecastWorld builds a forecast-enabled server over a blank maritime
// world (entities learned from the stream).
func forecastWorld(t testing.TB, cfg Config) (*Server, string) {
	t.Helper()
	p := core.New(core.Config{
		Domain:   model.Maritime,
		Forecast: core.ForecastConfig{Enabled: true},
	})
	cfg.Pipeline = p
	srv := New(cfg)
	h := httptest.NewServer(srv.Handler())
	t.Cleanup(func() { h.Close(); srv.Close() })
	return srv, h.URL
}

// getJSON fetches url and decodes the body into v, returning the status.
func getJSON(t testing.TB, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if v != nil {
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatalf("decode %s: %v", url, err)
		}
	}
	return resp.StatusCode
}

// TestServerForecastStraightTrack is the end-to-end acceptance test: a
// constant-velocity AIS track ingested over HTTP must forecast within 1% of
// ground truth (of the distance travelled) at a 10-minute horizon.
func TestServerForecastStraightTrack(t *testing.T) {
	srv, ts := forecastWorld(t, Config{Workers: 2, QueueLen: 1 << 14})
	lines, truth := straightWire(t, 237000001, geo.Pt(24.0, 37.5), 40, 10, 8.0)
	ir := postIngest(t, http.DefaultClient, ts, wireBody(lines), true)
	if ir.Rejected != 0 {
		t.Fatalf("rejected %d lines", ir.Rejected)
	}

	last := truth[len(truth)-1]
	const horizon = 10 * time.Minute
	var fr ForecastJSON
	status := getJSON(t, ts+"/forecast?entity=237000001&horizon=10m", &fr)
	if status != http.StatusOK {
		t.Fatalf("status = %d", status)
	}
	want := geo.Destination(last.Pt, 90, 8.0*horizon.Seconds())
	travelled := 8.0 * horizon.Seconds()
	if d := geo.Haversine(geo.Pt(fr.Lon, fr.Lat), want); d > travelled/100 {
		t.Errorf("forecast error %.1f m at 10m horizon, want < 1%% of %.0f m", d, travelled)
	}
	if fr.Method == "" || fr.RadiusM <= 0 {
		t.Errorf("degenerate forecast: %+v", fr)
	}
	if fr.TS != last.TS+horizon.Milliseconds() {
		t.Errorf("forecast TS = %d, want %d", fr.TS, last.TS+horizon.Milliseconds())
	}

	// Batch endpoint carries the same entity.
	var br ForecastBatchResponse
	if status := getJSON(t, ts+"/forecast/batch?horizon=5m", &br); status != http.StatusOK {
		t.Fatalf("batch status = %d", status)
	}
	if br.Count != 1 || len(br.Forecasts) != 1 || br.Forecasts[0].Entity != "237000001" {
		t.Errorf("batch = %+v, want the one live entity", br)
	}

	// Error surface: unknown entity 404, bad horizon 400, missing entity 400.
	if status := getJSON(t, ts+"/forecast?entity=999999999&horizon=10m", nil); status != http.StatusNotFound {
		t.Errorf("unknown entity status = %d, want 404", status)
	}
	if status := getJSON(t, ts+"/forecast?entity=237000001&horizon=900h", nil); status != http.StatusBadRequest {
		t.Errorf("over-cap horizon status = %d, want 400", status)
	}
	if status := getJSON(t, ts+"/forecast?horizon=10m", nil); status != http.StatusBadRequest {
		t.Errorf("missing entity status = %d, want 400", status)
	}

	// Forecast metrics are exposed.
	resp, err := http.Get(ts + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	if _, err := io.Copy(&sb, resp.Body); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	for _, wantM := range []string{
		"datacron_forecast_observed_total",
		"datacron_forecast_entities 1",
		"datacron_http_requests_total{path=\"/forecast\"}",
		"datacron_http_requests_total{path=\"/forecast/batch\"}",
	} {
		if !strings.Contains(sb.String(), wantM) {
			t.Errorf("metrics missing %q", wantM)
		}
	}
	_ = srv
}

// TestServerForecastDisabled verifies the endpoints degrade cleanly when
// the pipeline runs without a hub.
func TestServerForecastDisabled(t *testing.T) {
	_, _, ts := testWorld(t, Config{Workers: 1, QueueLen: 64})
	if status := getJSON(t, ts.URL+"/forecast?entity=x", nil); status != http.StatusServiceUnavailable {
		t.Errorf("disabled /forecast status = %d, want 503", status)
	}
	if status := getJSON(t, ts.URL+"/forecast/batch", nil); status != http.StatusServiceUnavailable {
		t.Errorf("disabled /forecast/batch status = %d, want 503", status)
	}
}

// TestServerForecastSSE verifies the ticker publishes "forecast" frames on
// the shared event stream.
func TestServerForecastSSE(t *testing.T) {
	srv, ts := forecastWorld(t, Config{
		Workers: 1, QueueLen: 1 << 14,
		ForecastInterval: 20 * time.Millisecond,
	})
	ch, cancel := srv.hub.subscribe()
	defer cancel()
	lines, _ := straightWire(t, 237000002, geo.Pt(24.5, 37.2), 20, 10, 7.0)
	postIngest(t, http.DefaultClient, ts, wireBody(lines), true)

	deadline := time.After(5 * time.Second)
	for {
		select {
		case f, ok := <-ch:
			if !ok {
				t.Fatal("hub closed before a forecast frame arrived")
			}
			if f.event != "forecast" {
				continue
			}
			var fr ForecastJSON
			if err := json.Unmarshal(f.data, &fr); err != nil {
				t.Fatalf("bad forecast frame: %v", err)
			}
			if fr.Entity != "237000002" || fr.Method == "" {
				t.Fatalf("frame = %+v", fr)
			}
			return
		case <-deadline:
			t.Fatal("no forecast frame within 5s")
		}
	}
}
