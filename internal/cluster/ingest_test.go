package cluster

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/server"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wire"
)

// endless is an infinite stream of newlines — blank records, so a body
// cut off at a limit instead of refused would show up as accepted > 0.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '\n'
	}
	return len(p), nil
}

// oneNodeCluster is a primed pipeline, its server and the cluster node
// wrapping it as the ring's only member.
func oneNodeCluster(t *testing.T) (*synth.Scenario, *core.Pipeline, *server.Server, *Node) {
	t.Helper()
	sc := synth.GenMaritime(synth.MaritimeConfig{Seed: 7, Vessels: 4, Duration: 5 * time.Minute})
	p := core.New(core.Config{Domain: model.Maritime})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	srv := server.New(server.Config{Pipeline: p, Workers: 1})
	t.Cleanup(srv.Close)
	n, err := New(Config{Self: "n1:1", Members: []string{"n1:1"}, Server: srv, Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	return sc, p, srv, n
}

// The coordinator refuses a body over wire.MaxBodyBytes whole with 413,
// whatever its format, and forwards nothing of it.
func TestCoordinatorIngestBodyLimit(t *testing.T) {
	sc, p, _, n := oneNodeCluster(t)
	var small strings.Builder
	var enc wire.Encoder
	for _, tl := range sc.WireTimed[:10] {
		fmt.Fprintf(&small, "%d %s\n", tl.TS, tl.Line)
		enc.Add(tl.TS, tl.Line)
	}
	for _, tc := range []struct {
		name, contentType string
		body              io.Reader
		status, accepted  int
	}{
		{"small text", "text/plain", strings.NewReader(small.String()), http.StatusAccepted, 10},
		{"oversized text", "text/plain", io.LimitReader(endless{}, wire.MaxBodyBytes+1), http.StatusRequestEntityTooLarge, 0},
		{"oversized binary", wire.ContentType, io.MultiReader(strings.NewReader(string(enc.AppendFrame(nil))), io.LimitReader(endless{}, wire.MaxBodyBytes)), http.StatusRequestEntityTooLarge, 0},
	} {
		req := httptest.NewRequest(http.MethodPost, "/ingest?wait=1", tc.body)
		req.Header.Set("Content-Type", tc.contentType)
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, req)
		var ir clusterIngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
			t.Fatalf("%s: decode %q: %v", tc.name, rec.Body, err)
		}
		if rec.Code != tc.status || ir.Accepted != tc.accepted || (ir.Error == "") != (tc.status == http.StatusAccepted) {
			t.Errorf("%s: status %d, %+v; want %d with accepted=%d", tc.name, rec.Code, ir, tc.status, tc.accepted)
		}
	}
	if got := p.Stats.Snapshot().Lines; got != 10 {
		t.Errorf("pipeline processed %d lines, want only the small body's 10", got)
	}
}

// A POST /query body over 1 MiB is refused with 413 on a node and on a
// coordinator — both read it through server.ReadQuery. It used to be cut at
// the limit and the prefix parsed: the padded bodies here answered 200.
func TestQueryBodyLimit(t *testing.T) {
	_, _, srv, n := oneNodeCluster(t)
	const q = `SELECT COUNT WHERE { ?n rdf:type dat:SemanticNode . }`
	const limit = 1 << 20
	for _, entry := range []struct {
		name string
		h    http.Handler
	}{{"node", srv.Handler()}, {"coordinator", n}} {
		for _, tc := range []struct {
			name, contentType, body string
			status                  int
		}{
			{"at the limit", "text/plain", q + strings.Repeat(" ", limit-len(q)), http.StatusOK},
			{"one byte over", "text/plain", q + strings.Repeat(" ", limit-len(q)+1), http.StatusRequestEntityTooLarge},
			{"json over", "application/json", `{"query":"` + q + `"` + strings.Repeat(" ", limit) + `}`, http.StatusRequestEntityTooLarge},
		} {
			req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(tc.body))
			req.Header.Set("Content-Type", tc.contentType)
			rec := httptest.NewRecorder()
			entry.h.ServeHTTP(rec, req)
			if rec.Code != tc.status {
				t.Errorf("%s, %s: status %d (%.80q), want %d", entry.name, tc.name, rec.Code, rec.Body, tc.status)
			}
		}
	}
}
