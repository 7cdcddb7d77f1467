package server

import (
	"encoding/json"
	"io"
	"net/http"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"github.com/datacron-project/datacron/internal/rdf"
)

// TestDictionaryFullFailsClosed ingests across the term dictionary's last
// id: nothing wraps onto an old id, the reports stored before the limit
// still answer, the ones refused are counted, and /readyz says why the
// daemon is not ready.
func TestDictionaryFullFailsClosed(t *testing.T) {
	sc, srv, ts := testWorld(t, Config{QueueLen: 1 << 16})
	client := ts.Client()
	nodes := func() map[string]bool {
		resp, err := client.Post(ts.URL+"/query", "text/plain",
			strings.NewReader(`SELECT ?n ?t WHERE { ?n rdf:type dat:SemanticNode . ?n dat:timestamp ?t . }`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var qr QueryResponse
		if err := json.NewDecoder(resp.Body).Decode(&qr); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("query: %d %v", resp.StatusCode, err)
		}
		out := make(map[string]bool, len(qr.Rows))
		for _, row := range qr.Rows {
			out[row[0]+" "+row[1]] = true
		}
		return out
	}
	get := func(path string) (int, string) {
		resp, err := client.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(b)
	}

	half := len(sc.WireTimed) / 2
	postIngest(t, client, ts.URL, wireBody(sc.WireTimed[:half]), true)
	before := nodes()
	if len(before) == 0 {
		t.Fatal("nothing stored before the limit")
	}

	// Leave a handful of ids, then ingest the second half across them.
	defer func(old rdf.ID) { dictMaxID = old }(dictMaxID)
	dictMaxID = rdf.ID(srv.p.Store.Dict().Len() + 5)
	if ir := postIngest(t, client, ts.URL, wireBody(sc.WireTimed[half:]), true); ir.Rejected != 0 {
		t.Fatalf("ingest across the limit shed lines: %+v", ir)
	}

	after := nodes()
	for n := range before {
		if !after[n] {
			t.Fatalf("%s, stored before the limit, no longer answers", n)
		}
	}
	if grown := len(after) - len(before); grown > 5 {
		t.Errorf("%d reports stored past a limit 5 ids away", grown)
	}
	_, metrics := get("/metrics")
	m := regexp.MustCompile(`(?m)^datacron_ingest_unstored_total (\d+)$`).FindStringSubmatch(metrics)
	if m == nil {
		t.Fatal("/metrics has no datacron_ingest_unstored_total")
	}
	if n, _ := strconv.Atoi(m[1]); n == 0 {
		t.Error("datacron_ingest_unstored_total did not rise")
	}
	status, body := get("/readyz")
	if status != http.StatusServiceUnavailable || !strings.Contains(body, "dictionary") {
		t.Errorf("/readyz with a full dictionary: %d %s", status, body)
	}
}
