package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/server"
	"github.com/datacron-project/datacron/internal/synth"
)

// TestSubRequestsCarryRequestID: every sub-request a coordinator makes for a
// client request — scatter /query, ingest forward, owner proxy — carries the
// client's X-Request-ID, and the coordinator answers under it; a request
// without one gets a minted id, used the same way.
func TestSubRequestsCarryRequestID(t *testing.T) {
	var mu sync.Mutex
	seen := map[string][]string{} // path → request ids the peer was sent
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		seen[r.URL.Path] = append(seen[r.URL.Path], r.Header.Get(obs.RequestIDHeader))
		mu.Unlock()
		switch r.URL.Path {
		case "/ingest":
			w.WriteHeader(http.StatusAccepted)
			fmt.Fprint(w, `{"accepted":0}`)
		case "/query":
			fmt.Fprint(w, `{"vars":["n"],"rows":[]}`)
		default:
			fmt.Fprint(w, `{}`)
		}
	}))
	defer peer.Close()
	peerAddr := strings.TrimPrefix(peer.URL, "http://")

	sc := synth.GenMaritime(synth.MaritimeConfig{Seed: 7, Vessels: 24, Duration: 5 * time.Minute})
	p := core.New(core.Config{Domain: model.Maritime})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	srv := server.New(server.Config{Pipeline: p, Workers: 1, QueueLen: 1 << 14})
	defer srv.Close()
	n, err := New(Config{Self: "n1:1", Members: []string{"n1:1", peerAddr}, Server: srv, Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	ring, _ := n.Ring()
	entity := ""
	for _, e := range sc.Entities {
		if ring.Owner(e.ID) == peerAddr {
			entity = e.ID
			break
		}
	}
	if entity == "" {
		t.Fatal("no entity is owned by the peer")
	}
	var body strings.Builder
	for _, tl := range sc.WireTimed {
		fmt.Fprintf(&body, "%d %s\n", tl.TS, tl.Line)
	}

	for _, tc := range []struct{ method, path, body string }{
		{http.MethodPost, "/query", `SELECT ?n WHERE { ?n rdf:type dat:SemanticNode . }`},
		{http.MethodPost, "/ingest", body.String()},
		{http.MethodGet, "/forecast?entity=" + entity, ""},
	} {
		for _, id := range []string{"trace-me", ""} {
			req := httptest.NewRequest(tc.method, tc.path, strings.NewReader(tc.body))
			if id != "" {
				req.Header.Set(obs.RequestIDHeader, id)
			}
			rec := httptest.NewRecorder()
			n.ServeHTTP(rec, req)
			got := rec.Header().Get(obs.RequestIDHeader)
			if id != "" && got != id || got == "" {
				t.Errorf("%s %s with id %q: answered under %q", tc.method, tc.path, id, got)
			}
			mu.Lock()
			sent := seen[strings.SplitN(tc.path, "?", 2)[0]]
			mu.Unlock()
			if !slices.Contains(sent, got) {
				t.Errorf("%s %s: the peer was sent ids %q, not the client's %q", tc.method, tc.path, sent, got)
			}
		}
	}
}
