package server

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/store"
)

// TestSealEndpointAndTierMetrics drives ingest, force-seals through the
// admin endpoint, and checks both the response and the /metrics gauges the
// retention satellite promises operators.
func TestSealEndpointAndTierMetrics(t *testing.T) {
	sc, srv, ts := testWorld(t, Config{
		QueueLen: 1 << 16,
		Tier:     store.TierPolicy{Retention: 40 * time.Minute},
	})
	client := ts.Client()
	postIngest(t, client, ts.URL, wireBody(sc.WireTimed), true)
	srv.Ingestor().Quiesce(30 * time.Second)

	metricsBody := func() string {
		resp, err := client.Get(ts.URL + "/metrics")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return string(b)
	}

	// Before sealing: tier gauges present, everything in the head.
	m := metricsBody()
	for _, want := range []string{
		"datacron_store_triples ", "datacron_dict_terms ", "datacron_store_segments 0",
		"datacron_store_head_triples ", "datacron_store_sealed_triples 0",
		"datacron_store_seals_total 0", "datacron_store_segments_dropped_total 0",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// Force-seal: every shard head becomes a segment, and the 40-minute
	// retention window drops the oldest generation of a 90-minute stream
	// on a later pass... first pass only seals (segments are brand new).
	resp, err := client.Post(ts.URL+"/seal", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var sr sealResponse
	if err := json.NewDecoder(resp.Body).Decode(&sr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || sr.Sealed == 0 || sr.SealedTriples == 0 {
		t.Fatalf("seal response: %d %+v", resp.StatusCode, sr)
	}
	if sr.HeadTriples != 0 || sr.Segments == 0 {
		t.Fatalf("tier layout after seal: %+v", sr)
	}

	m = metricsBody()
	for _, want := range []string{
		"datacron_store_head_triples 0", "datacron_store_segments ",
	} {
		if !strings.Contains(m, want) {
			t.Errorf("/metrics after seal missing %q", want)
		}
	}
	if !strings.Contains(m, `datacron_http_requests_total{path="/seal"} 1`) {
		t.Error("/seal request not counted")
	}
	if strings.Contains(m, "datacron_store_seals_total 0") {
		t.Error("seals counter did not advance")
	}

	// Queries still answer identically-shaped results over sealed tiers.
	qresp, err := client.Post(ts.URL+"/query", "text/plain",
		strings.NewReader(`SELECT COUNT ?n WHERE { ?n rdf:type dat:SemanticNode . }`))
	if err != nil {
		t.Fatal(err)
	}
	defer qresp.Body.Close()
	var qr QueryResponse
	if err := json.NewDecoder(qresp.Body).Decode(&qr); err != nil {
		t.Fatal(err)
	}
	if len(qr.Rows) != 1 || qr.Rows[0][0] == `"0"^^<http://www.w3.org/2001/XMLSchema#long>` {
		t.Fatalf("count over sealed store: %+v", qr.Rows)
	}
}

// TestMaintainTickerSealsInBackground checks the background pass applies
// the policy without an admin call.
func TestMaintainTickerSealsInBackground(t *testing.T) {
	sc, srv, ts := testWorld(t, Config{
		QueueLen:         1 << 16,
		Tier:             store.TierPolicy{SealTriples: 500},
		MaintainInterval: 20 * time.Millisecond,
	})
	postIngest(t, ts.Client(), ts.URL, wireBody(sc.WireTimed), true)
	srv.Ingestor().Quiesce(30 * time.Second)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if tiers := srv.p.Store.TierStats(); tiers.Segments > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("background maintenance never sealed")
		}
		time.Sleep(10 * time.Millisecond)
	}
}
