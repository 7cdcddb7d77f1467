package cluster

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/server"
	"github.com/datacron-project/datacron/internal/synth"
)

// TestIdempotentRPCsCarryKey: the RPCs a peer applies idempotently — every
// membership and handoff RPC, the read-only scatter /query — carry an
// Idempotency-Key, so net/http replays them when they meet a keep-alive
// connection a restarted peer closed; an ingest forward never does.
func TestIdempotentRPCsCarryKey(t *testing.T) {
	var mu sync.Mutex
	keys := map[string][]string{} // path → the keys the peer was sent ("" = none)
	peer := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys[r.URL.Path] = append(keys[r.URL.Path], r.Header.Get(idempotencyKey))
		first := len(keys[r.URL.Path]) == 1
		mu.Unlock()
		switch r.URL.Path {
		case "/cluster/handoff/data":
			if first { // fail the first join, so that the donor aborts
				http.Error(w, "injected", http.StatusInternalServerError)
				return
			}
			fmt.Fprint(w, `{"staged":0}`)
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
	n, err := New(Config{Self: "n1:1", Members: []string{"n1:1"}, Server: srv, Pipeline: p})
	if err != nil {
		t.Fatal(err)
	}
	call := func(method, path, body string, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		n.ServeHTTP(rec, httptest.NewRequest(method, path, strings.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("%s %s: %d %s, want %d", method, path, rec.Code, rec.Body, want)
		}
	}
	join := `{"node":"` + peerAddr + `"}`
	call(http.MethodPost, "/cluster/join", join, http.StatusBadGateway) // begin, data fails, abort
	call(http.MethodPost, "/cluster/join", join, http.StatusOK)         // begin, data, commit, membership
	var body strings.Builder
	for _, tl := range sc.WireTimed {
		fmt.Fprintf(&body, "%d %s\n", tl.TS, tl.Line)
	}
	call(http.MethodPost, "/ingest", body.String(), http.StatusAccepted)
	call(http.MethodPost, "/query", `SELECT ?n WHERE { ?n rdf:type dat:SemanticNode . }`, http.StatusOK)
	call(http.MethodPost, "/cluster/leave", join, http.StatusOK) // execute on the peer, membership

	mu.Lock()
	defer mu.Unlock()
	for _, path := range []string{"/cluster/handoff/begin", "/cluster/handoff/data", "/cluster/handoff/abort",
		"/cluster/handoff/commit", "/cluster/handoff/execute", "/cluster/membership", "/query"} {
		if len(keys[path]) == 0 {
			t.Errorf("%s: the peer was never sent one", path)
		}
		for _, k := range keys[path] {
			if k == "" {
				t.Errorf("%s: sent without an idempotency key", path)
			}
		}
	}
	if len(keys["/ingest"]) == 0 {
		t.Error("no ingest forward reached the peer")
	}
	for _, k := range keys["/ingest"] {
		if k != "" {
			t.Errorf("an ingest forward carried idempotency key %q", k)
		}
	}
}

// staleConn counts the requests one connection of TestRPCResentOnStaleConnection's
// peer has read.
type staleConn struct{ requests int }

// TestRPCResentOnStaleConnection: a peer that drops a kept-alive connection
// as the next request arrives on it — what the pooled connection to a peer
// that restarted since does — costs an RPC with an idempotency key nothing,
// as the transport resends it on a fresh connection; a POST without one
// fails with the EOF that made TestClusterMidHandoffDonorKill flaky.
func TestRPCResentOnStaleConnection(t *testing.T) {
	peer := httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		c := r.Context().Value(staleConn{}).(*staleConn)
		if c.requests++; c.requests > 1 {
			conn, _, _ := w.(http.Hijacker).Hijack()
			conn.Close() // unanswered
			return
		}
		fmt.Fprint(w, `{}`)
	}))
	peer.Config.ConnContext = func(ctx context.Context, _ net.Conn) context.Context {
		return context.WithValue(ctx, staleConn{}, &staleConn{})
	}
	peer.Start()
	defer peer.Close()
	addr := strings.TrimPrefix(peer.URL, "http://")
	n := &Node{cfg: Config{Self: "n1:1"}, client: &http.Client{Timeout: 5 * time.Second}}
	for i := 0; i < 3; i++ { // every call after the first meets a stale connection
		if pr := n.rpc(addr, "/cluster/membership", "application/json", []byte(`{}`)); pr.err != nil || pr.status != http.StatusOK {
			t.Fatalf("rpc %d: status %d, %v", i, pr.status, pr.err)
		}
	}
	if pr := n.do(addr, http.MethodPost, "/ingest", "", nil, nil); pr.err == nil {
		t.Fatal("a POST without an idempotency key was resent on a fresh connection")
	}
}
