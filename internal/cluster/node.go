// Package cluster turns N single-node datAcron servers into one logical
// store: a consistent-hash ring (ring.go) assigns every entity key to
// exactly one owning node, ingest is forwarded to owners as binary wire
// frames (ingest.go), reads scatter to all nodes and merge at the
// coordinator (scatter.go), and membership changes relocate hash ranges by
// shipping whole sealed segments plus a head-replay tail (membership.go).
//
// Every node runs the same code: any node accepts any client request and
// acts as its coordinator. Cluster-internal RPCs live under /cluster/ and
// internal sub-requests carry ForwardedHeader so the receiving node serves
// them locally instead of re-coordinating (no forwarding loops).
//
// See DESIGN.md §14 for the ring design, the forward path, the
// scatter-gather merge argument, and the handoff atomicity argument;
// OPERATIONS.md "Cluster mode" for the operational walkthrough.
package cluster

import (
	"bytes"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/server"
	"github.com/datacron-project/datacron/internal/store"
)

// ForwardedHeader marks a cluster-internal sub-request (ingest forward or
// scatter-gather fan-out). A node receiving it serves the request against
// its local pipeline without consulting the ring, which is what terminates
// the forwarding recursion.
const ForwardedHeader = "X-Datacron-Forwarded"

// idempotencyKey marks a sub-request its receiver may apply twice to the
// effect of once. net/http replays a POST that meets a pooled keep-alive
// connection the peer has since closed — the first request to a peer that
// restarted — only when it carries this header. It is set on the
// membership and handoff RPCs, idempotent by design, and on the read-only
// scatter /query; never on an ingest forward, whose replay could ingest a
// batch twice.
const idempotencyKey = "Idempotency-Key"

// Config parameterises one cluster node.
type Config struct {
	// Self is this node's advertised host:port — its identity on the ring.
	// Must be dialable by every peer and must match the address peers list
	// for it.
	Self string
	// Members is the static bootstrap membership, including Self (it is
	// added if absent). Join/leave RPCs evolve it at runtime.
	Members []string
	// VNodes is the virtual-node count per member (default DefaultVNodes).
	VNodes int

	// Server is the local single-node serving layer this node wraps.
	Server *server.Server
	// Pipeline is the local pipeline (routing keys, store handoff).
	Pipeline *core.Pipeline

	// Logger receives cluster lifecycle events. nil = discard.
	Logger *slog.Logger
	// Client performs peer HTTP requests (default: 30s-timeout client).
	Client *http.Client

	// Failpoint, when non-nil, is consulted at named steps of the donor
	// handoff protocol ("begin", "data", "commit", "drop"); a non-nil error
	// aborts the handoff at that step. Tests use it to freeze a donor
	// mid-handoff and kill it.
	Failpoint func(step string) error
}

// Node is one member of the cluster: the local server plus the coordinator
// logic. It implements http.Handler and replaces the plain server handler
// as the listener's root.
type Node struct {
	cfg    Config
	local  http.Handler
	client *http.Client
	logger *slog.Logger
	mux    *http.ServeMux

	// mu guards the membership view. The ring itself is immutable; a
	// membership change swaps the pointer and bumps the version.
	mu      sync.RWMutex
	ring    *Ring
	version int64

	// handoffMu serialises this node's donor-side handoffs.
	handoffMu sync.Mutex

	// stagingMu guards the target-side handoff staging areas, keyed by
	// donor (one in-flight session per donor; a new begin replaces a stale
	// one).
	stagingMu sync.Mutex
	staging   map[string]*stagingSession

	// Counters surfaced on /metrics via the server's ExtraMetrics hook.
	forwardedLines  atomic.Int64
	forwardErrors   atomic.Int64
	scatterPartials atomic.Int64
	handoffsOut     atomic.Int64
	handoffsIn      atomic.Int64
}

// stagingSession is one target-side handoff in progress: the filter that
// decides which shipped fragments this node keeps, and the fragments staged
// so far. Nothing is visible to queries until commit installs it.
type stagingSession struct {
	keep  func(nodeIRI string) bool
	frags []store.HandoffFragment
}

// New wraps srv as a cluster node. The returned Node is the HTTP root
// handler; wire its WriteMetrics into server.Config.ExtraMetrics to expose
// the ring and ownership gauges.
func New(cfg Config) (*Node, error) {
	if cfg.Self == "" {
		return nil, fmt.Errorf("cluster: Self is required")
	}
	if cfg.Server == nil || cfg.Pipeline == nil {
		return nil, fmt.Errorf("cluster: Server and Pipeline are required")
	}
	members := cfg.Members
	if !contains(members, cfg.Self) {
		members = append(append([]string(nil), members...), cfg.Self)
	}
	n := &Node{
		cfg:     cfg,
		local:   cfg.Server.Handler(),
		client:  cfg.Client,
		logger:  cfg.Logger,
		mux:     http.NewServeMux(),
		ring:    NewRing(members, cfg.VNodes),
		version: 1,
		staging: make(map[string]*stagingSession),
	}
	if n.client == nil {
		n.client = &http.Client{Timeout: 30 * time.Second}
	}
	if n.logger == nil {
		n.logger = obs.Discard()
	}
	n.mux.HandleFunc("GET /cluster/ring", n.handleRing)
	n.mux.HandleFunc("GET /cluster/census", n.handleCensus)
	n.mux.HandleFunc("POST /cluster/membership", n.handleMembership)
	n.mux.HandleFunc("POST /cluster/join", n.handleJoin)
	n.mux.HandleFunc("POST /cluster/leave", n.handleLeave)
	n.mux.HandleFunc("POST /cluster/handoff/execute", n.handleHandoffExecute)
	n.mux.HandleFunc("POST /cluster/handoff/begin", n.handleHandoffBegin)
	n.mux.HandleFunc("POST /cluster/handoff/data", n.handleHandoffData)
	n.mux.HandleFunc("POST /cluster/handoff/commit", n.handleHandoffCommit)
	n.mux.HandleFunc("POST /cluster/handoff/abort", n.handleHandoffAbort)
	return n, nil
}

// Ring returns the current membership view (immutable) and its version.
func (n *Node) Ring() (*Ring, int64) {
	n.mu.RLock()
	defer n.mu.RUnlock()
	return n.ring, n.version
}

// ServeHTTP routes a request: cluster-internal RPCs to the internal mux,
// forwarded sub-requests straight to the local server, client traffic on
// the clustered endpoints through the coordinator logic, and everything
// else (SSE, range, admin, metrics) to the local server. Client traffic
// gets its X-Request-ID here, adopted or minted and echoed, and every
// sub-request made for it carries the id (clientHeader), so each peer files
// its share of the work — its slow-query entry, say — under the client's id.
func (n *Node) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	if strings.HasPrefix(r.URL.Path, "/cluster/") {
		n.mux.ServeHTTP(w, r)
		return
	}
	if r.Header.Get(ForwardedHeader) != "" {
		n.local.ServeHTTP(w, r)
		return
	}
	obs.EnsureRequestID(w, r)
	switch {
	case r.Method == http.MethodPost && r.URL.Path == "/ingest":
		n.handleIngest(w, r)
	case r.Method == http.MethodPost && r.URL.Path == "/query":
		n.handleQuery(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/forecast/batch":
		n.handleForecastBatch(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/synopses/batch":
		n.handleSynopsesBatch(w, r)
	case r.Method == http.MethodGet && r.URL.Path == "/forecast":
		n.proxyByKey(w, r, r.URL.Query().Get("entity"))
	case r.Method == http.MethodGet && strings.HasPrefix(r.URL.Path, "/synopses/"):
		n.proxyByKey(w, r, strings.TrimPrefix(r.URL.Path, "/synopses/"))
	default:
		n.local.ServeHTTP(w, r)
	}
}

// peerResponse is the outcome of one cluster-internal sub-request.
type peerResponse struct {
	member string
	status int
	body   []byte
	err    error // transport failure (member unreachable)
}

// do performs one cluster-internal request against member: in process when
// member is this node (no TCP round trip, no listener dependency), over
// n.client otherwise. pathAndQuery starts with "/". header entries are
// copied onto the request; ForwardedHeader is always set.
func (n *Node) do(member, method, pathAndQuery, contentType string, body []byte, header map[string]string) peerResponse {
	if member == n.cfg.Self {
		r, err := http.NewRequest(method, pathAndQuery, bytes.NewReader(body))
		if err != nil {
			return peerResponse{member: member, err: err}
		}
		decorate(r, contentType, header)
		rec := &memResponse{header: make(http.Header), status: http.StatusOK}
		n.local.ServeHTTP(rec, r)
		return peerResponse{member: member, status: rec.status, body: rec.body.Bytes()}
	}
	r, err := http.NewRequest(method, "http://"+member+pathAndQuery, bytes.NewReader(body))
	if err != nil {
		return peerResponse{member: member, err: err}
	}
	decorate(r, contentType, header)
	resp, err := n.client.Do(r)
	if err != nil {
		return peerResponse{member: member, err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return peerResponse{member: member, err: err}
	}
	return peerResponse{member: member, status: resp.StatusCode, body: b}
}

// rpc performs one membership or handoff RPC: a POST its receiver applies
// idempotently, so it carries the idempotency key (only its presence
// matters).
func (n *Node) rpc(member, pathAndQuery, contentType string, body []byte) peerResponse {
	return n.do(member, http.MethodPost, pathAndQuery, contentType, body, map[string]string{idempotencyKey: "1"})
}

// clientHeader is the header of a sub-request made for client request r:
// the request id ServeHTTP gave r.
func clientHeader(r *http.Request) map[string]string {
	return map[string]string{obs.RequestIDHeader: r.Header.Get(obs.RequestIDHeader)}
}

func decorate(r *http.Request, contentType string, header map[string]string) {
	r.Header.Set(ForwardedHeader, "1")
	if contentType != "" {
		r.Header.Set("Content-Type", contentType)
	}
	for k, v := range header {
		r.Header.Set(k, v)
	}
}

// memResponse is the in-process ResponseWriter for self-directed
// sub-requests.
type memResponse struct {
	header http.Header
	status int
	body   bytes.Buffer
}

func (m *memResponse) Header() http.Header { return m.header }
func (m *memResponse) WriteHeader(code int) {
	m.status = code
}
func (m *memResponse) Write(b []byte) (int, error) { return m.body.Write(b) }

// fanOut performs the same request against every member concurrently and
// returns the responses in membership order.
func (n *Node) fanOut(members []string, method, pathAndQuery, contentType string, body []byte, header map[string]string) []peerResponse {
	out := make([]peerResponse, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m string) {
			defer wg.Done()
			out[i] = n.do(m, method, pathAndQuery, contentType, body, header)
		}(i, m)
	}
	wg.Wait()
	return out
}

// WriteMetrics appends the cluster gauges to a /metrics render (wired via
// server.Config.ExtraMetrics). The ownership gauges are census-derived —
// O(anchored fragments) per scrape — which is what lets an operator (and
// the handoff golden test) assert that no entity is double- or un-owned:
// after a membership change settles, every node reports the same ring
// version and fingerprint, and the per-node owned-entity counts sum to the
// global entity count.
func (n *Node) WriteMetrics(mw *obs.MetricsWriter) {
	ring, version := n.Ring()
	mw.Gauge("datacron_cluster_ring_version", "Current membership version on this node.", float64(version))
	mw.Gauge("datacron_cluster_members", "Members in the current ring.", float64(ring.Size()))
	mw.Gauge("datacron_cluster_ring_fingerprint32", "Low 32 bits of the ring fingerprint (membership agreement check).", float64(ring.Fingerprint()&0xffffffff))
	ents, frags := n.census()
	mw.Gauge("datacron_cluster_owned_entities", "Distinct anchored entities held by this node.", float64(len(ents)))
	mw.Gauge("datacron_cluster_owned_fragments", "Anchored fragments held by this node.", float64(frags))
	mw.Counter("datacron_cluster_ingest_forwarded_total", "Ingest lines forwarded to an owning peer.", n.forwardedLines.Load())
	mw.Counter("datacron_cluster_forward_errors_total", "Forward sub-requests that failed outright (peer unreachable or unexpected status).", n.forwardErrors.Load())
	mw.Counter("datacron_cluster_scatter_partials_total", "Scatter-gather responses served with partial=true.", n.scatterPartials.Load())
	mw.Counter("datacron_cluster_handoffs_out_total", "Donor-side handoffs completed by this node.", n.handoffsOut.Load())
	mw.Counter("datacron_cluster_handoffs_in_total", "Target-side handoffs committed by this node.", n.handoffsIn.Load())
}

func contains(ss []string, s string) bool {
	for _, v := range ss {
		if v == s {
			return true
		}
	}
	return false
}
