package harness

import (
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/server"
	"github.com/datacron-project/datacron/internal/synth"
)

// TestClusterQueryRequestIDReachesPeers follows one client request across
// nodes: a /query sent to a coordinator with X-Request-ID: trace-me is
// answered under that id, and every node — the coordinator's own in-process
// share included — files its partial query under it in /debug/slowlog.
func TestClusterQueryRequestIDReachesPeers(t *testing.T) {
	sc := synth.GenMaritime(synth.MaritimeConfig{Seed: 4242, Vessels: 8, Duration: 20 * time.Minute})
	c := Start(t, Config{
		Nodes:    3,
		Scenario: sc,
		Core:     core.Config{Domain: model.Maritime},
		// 1 ns: every query that takes any time at all is a slow one.
		Server: server.Config{Workers: 2, QueueLen: 1 << 14, SlowQuery: time.Nanosecond},
	})
	if ir := c.Ingest(0, WireBody(sc.WireTimed), true); ir.Rejected != 0 {
		t.Fatalf("cluster rejected %d lines: %+v", ir.Rejected, ir)
	}

	req, err := http.NewRequest(http.MethodPost, c.URL(1)+"/query",
		strings.NewReader(`SELECT ?v COUNT(?n) WHERE { ?n dat:ofMovingObject ?v . } GROUP BY ?v`))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(obs.RequestIDHeader, "trace-me")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || resp.Header.Get(obs.RequestIDHeader) != "trace-me" {
		t.Fatalf("coordinator answered %d under id %q", resp.StatusCode, resp.Header.Get(obs.RequestIDHeader))
	}
	for i := range c.Nodes {
		status, body := c.Get(i, "/debug/slowlog")
		if status != http.StatusOK {
			t.Fatalf("node %d slowlog: %d %s", i, status, body)
		}
		var log obs.SlowLogSnapshot
		if err := json.Unmarshal(body, &log); err != nil {
			t.Fatal(err)
		}
		traced := 0
		for _, e := range log.Entries {
			if e.RequestID == "trace-me" {
				traced++
			}
		}
		if traced != 1 {
			t.Errorf("node %d holds %d slow-log entries under trace-me, want its one partial query: %s", i, traced, body)
		}
	}
}
