package harness

import (
	"bytes"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/cluster"
	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/server"
	"github.com/datacron-project/datacron/internal/synth"
)

func degradedScenario() *synth.Scenario {
	return synth.GenMaritime(synth.MaritimeConfig{
		Seed: 4242, Vessels: 10, Duration: 30 * time.Minute,
	})
}

// splitByOwner partitions timed lines by owning node under coordinator
// coord's current ring. Lines with no routing key (global facts) belong to
// the coordinator itself.
func splitByOwner(t *testing.T, c *Cluster, coord int, lines []synth.TimedLine) map[string][]synth.TimedLine {
	t.Helper()
	_, _, members := c.RingInfo(coord)
	ring := cluster.NewRing(members, c.cfg.VNodes)
	shares := map[string][]synth.TimedLine{}
	for _, tl := range lines {
		key := c.Nodes[coord].Pipeline().RoutingKey(tl.Line)
		owner := c.Nodes[coord].Addr
		if key != "" {
			owner = ring.Owner(key)
		}
		shares[owner] = append(shares[owner], tl)
	}
	return shares
}

func ownerStat(t *testing.T, ir IngestResult, addr, field string) int {
	t.Helper()
	oi, ok := ir.Owners[addr]
	if !ok {
		t.Fatalf("ingest response has no owner entry for %s: %+v", addr, ir)
	}
	v, _ := oi[field].(float64)
	return int(v)
}

// TestClusterForwardBackpressure pins the backpressure-propagation
// regression: when the owning node sheds load, the coordinator answers 429
// with Retry-After and a per-owner breakdown — the shed lines are reported
// rejected, never silently dropped — and the per-owner accepted prefix is a
// valid resume point that loses nothing.
func TestClusterForwardBackpressure(t *testing.T) {
	sc := degradedScenario()
	c := Start(t, Config{
		Nodes:    2,
		Scenario: sc,
		Core:     core.Config{Domain: model.Maritime},
		Server:   server.Config{Workers: 4, QueueLen: 1 << 16},
		Configure: func(i int, cfg *server.Config) {
			if i == 1 {
				// One worker, one queue slot: with that worker paused, the
				// second owned line must shed.
				cfg.Workers = 1
				cfg.QueueLen = 1
			}
		},
	})

	batch := sc.WireTimed[:200]
	shares := splitByOwner(t, c, 0, batch)
	addr1 := c.Nodes[1].Addr
	if len(shares[addr1]) < 4 {
		t.Fatalf("only %d lines route to node 1 — scenario too small for a meaningful test", len(shares[addr1]))
	}

	// Pause node 1's worker at a line boundary so its single queue slot
	// fills and stays full for the whole batch.
	release := c.Nodes[1].srv.Ingestor().Barrier()
	var once sync.Once
	unpause := func() { once.Do(release) }
	defer unpause()

	resp, err := httpClient.Post(c.URL(0)+"/ingest", "text/plain", strings.NewReader(WireBody(batch)))
	if err != nil {
		t.Fatal(err)
	}
	var ir IngestResult
	mustDecodeReader(t, resp, &ir)
	if ir.Status != http.StatusTooManyRequests {
		t.Fatalf("coordinator status = %d, want 429: %+v", ir.Status, ir)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if ir.Accepted+ir.Rejected != len(batch) {
		t.Fatalf("accepted %d + rejected %d != %d lines: nothing may go missing from the account",
			ir.Accepted, ir.Rejected, len(batch))
	}
	if ir.Rejected == 0 {
		t.Fatalf("saturated owner produced no rejection report: %+v", ir)
	}
	k := ownerStat(t, ir, addr1, "accepted")
	if rej := ownerStat(t, ir, addr1, "rejected"); k+rej != len(shares[addr1]) {
		t.Fatalf("owner breakdown %d+%d != share %d", k, rej, len(shares[addr1]))
	}
	if got := ownerStat(t, ir, c.Nodes[0].Addr, "rejected"); got != 0 {
		t.Fatalf("coordinator's own share shed %d lines with an oversized queue", got)
	}

	// Resume from the per-owner prefix: re-send only node 1's unaccepted
	// tail, line by line with wait (the queue holds a single line). Node 1
	// must first drain the line it accepted while paused: until its worker
	// gives that line's reserved slot back, the next one is shed.
	unpause()
	c.QuiesceAll()
	for _, tl := range shares[addr1][k:] {
		rir := c.Ingest(0, WireBody([]synth.TimedLine{tl}), true)
		if rir.Status != http.StatusAccepted || rir.Rejected != 0 {
			t.Fatalf("resume line rejected: %+v", rir)
		}
	}
	c.QuiesceAll()

	// Completeness: the cluster now holds exactly what a single node fed
	// the original batch holds.
	ref := newReferenceServer(t, sc, core.Config{Domain: model.Maritime})
	refIngest(t, ref, WireBody(batch))
	for _, q := range []string{
		`SELECT COUNT WHERE { ?n rdf:type dat:SemanticNode . }`,
		`SELECT ?n WHERE { ?n dat:speed ?s . FILTER (?s > 10) }`,
	} {
		compareQuery(t, c, 0, ref, q, false)
	}
}

// TestClusterForwardPartition pins the partition-style forward failure: an
// unreachable owner's whole share is reported rejected (429 at the
// coordinator), the live owners' shares land normally, and re-sending the
// rejected share after the owner returns completes the stream with nothing
// lost and nothing duplicated.
func TestClusterForwardPartition(t *testing.T) {
	sc := degradedScenario()
	c := Start(t, Config{
		Nodes:    3,
		Scenario: sc,
		Core:     core.Config{Domain: model.Maritime},
		Server:   server.Config{Workers: 4, QueueLen: 1 << 16},
	})

	batch := sc.WireTimed[:900]
	shares := splitByOwner(t, c, 0, batch)
	addr2 := c.Nodes[2].Addr
	if len(shares[addr2]) == 0 {
		t.Fatal("no lines route to node 2 — test is vacuous")
	}

	c.Kill(2)
	ir := c.Ingest(0, WireBody(batch), false)
	if ir.Status != http.StatusTooManyRequests {
		t.Fatalf("coordinator status = %d, want 429 while an owner is down", ir.Status)
	}
	if ir.Rejected != len(shares[addr2]) {
		t.Fatalf("rejected %d, want exactly the dead owner's share %d", ir.Rejected, len(shares[addr2]))
	}
	if ir.Accepted != len(batch)-len(shares[addr2]) {
		t.Fatalf("accepted %d, want the live owners' %d", ir.Accepted, len(batch)-len(shares[addr2]))
	}
	oi := ir.Owners[addr2]
	if errText, _ := oi["error"].(string); !strings.Contains(errText, "forward") {
		t.Fatalf("dead owner's share not marked as a forward failure: %v", oi)
	}

	c.Restart(2)
	rir := c.Ingest(0, WireBody(shares[addr2]), true)
	if rir.Status != http.StatusAccepted || rir.Rejected != 0 {
		t.Fatalf("re-send of the partitioned share: %+v", rir)
	}
	c.QuiesceAll()

	ref := newReferenceServer(t, sc, core.Config{Domain: model.Maritime})
	refIngest(t, ref, WireBody(batch))
	for _, q := range []string{
		`SELECT COUNT WHERE { ?n rdf:type dat:SemanticNode . }`,
		`SELECT COUNT ?v WHERE { ?v rdf:type dat:Vessel . }`,
	} {
		compareQuery(t, c, 0, ref, q, false)
	}
}

// TestClusterDegradedPartialReads pins the degraded read contract with a
// node down: scatter-gather endpoints still answer 200 but carry
// partial:true, an empty merged row set encodes as [] (never null), a
// single-entity proxy to the dead owner is 502 while live owners serve, and
// recovery clears the partial flag.
func TestClusterDegradedPartialReads(t *testing.T) {
	sc := degradedScenario()
	c := Start(t, Config{Nodes: 3, Scenario: sc, Core: goldenCore(),
		Server: server.Config{Workers: 4, QueueLen: 1 << 16}})

	ir := c.Ingest(0, WireBody(sc.WireTimed), true)
	if ir.Rejected != 0 {
		t.Fatalf("seed rejected: %+v", ir)
	}
	c.QuiesceAll()

	// Pick the crash victim from ring ownership, using the ring exactly as
	// the proxy does: a non-coordinator node owning a forecastable entity,
	// while another node owns one too. Ownership follows the members'
	// random loopback ports, so no fixed node index is safe.
	status, body := c.Get(0, "/forecast/batch?horizon=5m")
	if status != http.StatusOK {
		t.Fatalf("forecast/batch healthy: %d %s", status, body)
	}
	var fb struct {
		Forecasts []struct {
			Entity string `json:"entity"`
		} `json:"forecasts"`
	}
	mustDecode(t, body, &fb)
	_, _, members := c.RingInfo(0)
	ring := cluster.NewRing(members, c.cfg.VNodes)
	owned := map[string]string{} // node address → one entity it owns
	for _, f := range fb.Forecasts {
		owned[ring.Owner(f.Entity)] = f.Entity
	}
	victim, deadOwned, liveOwned := -1, "", ""
	for i := 1; i < len(c.Nodes) && victim < 0; i++ {
		if e, ok := owned[c.Nodes[i].Addr]; ok && len(owned) > 1 {
			victim, deadOwned = i, e
		}
	}
	for addr, e := range owned {
		if victim >= 0 && addr != c.Nodes[victim].Addr {
			liveOwned = e
		}
	}
	if victim < 0 {
		t.Fatalf("entity spread too narrow: %d forecasts, owners %v", len(fb.Forecasts), owned)
	}

	c.Kill(victim)

	status, body = c.Query(0, `SELECT ?v WHERE { ?v rdf:type dat:Vessel . }`)
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"partial":true`)) {
		t.Fatalf("query with a node down: %d %s — want 200 with partial:true", status, body)
	}

	// An empty merged result is [] — a degraded coordinator must keep the
	// single-node JSON shape.
	status, body = c.Query(0, `SELECT ?n WHERE { ?n dat:speed ?s . FILTER (?s > 100000) }`)
	if status != http.StatusOK || !bytes.Contains(body, []byte(`"rows":[]`)) {
		t.Fatalf("empty degraded query: %d %s — want 200 with rows:[]", status, body)
	}

	for _, path := range []string{"/forecast/batch?horizon=5m", "/synopses/batch"} {
		status, body = c.Get(0, path)
		if status != http.StatusOK || !bytes.Contains(body, []byte(`"partial":true`)) {
			t.Fatalf("%s with a node down: %d %.300s — want 200 with partial:true", path, status, body)
		}
	}

	if status, _ = c.Get(0, "/forecast?entity="+deadOwned+"&horizon=5m"); status != http.StatusBadGateway {
		t.Fatalf("proxy to dead owner = %d, want 502", status)
	}
	if status, body = c.Get(0, "/forecast?entity="+liveOwned+"&horizon=5m"); status != http.StatusOK {
		t.Fatalf("proxy to live owner = %d %s, want 200", status, body)
	}
	if status, _ = c.Get(0, "/synopses/"+deadOwned); status != http.StatusBadGateway {
		t.Fatalf("synopsis proxy to dead owner = %d, want 502", status)
	}

	c.Restart(victim)
	c.QuiesceAll()
	status, body = c.Query(0, `SELECT ?v WHERE { ?v rdf:type dat:Vessel . }`)
	if status != http.StatusOK || bytes.Contains(body, []byte(`"partial"`)) {
		t.Fatalf("query after recovery: %d %s — partial flag must clear", status, body)
	}
	for _, path := range []string{"/forecast/batch?horizon=5m", "/synopses/batch"} {
		status, body = c.Get(0, path)
		if status != http.StatusOK || bytes.Contains(body, []byte(`"partial"`)) {
			t.Fatalf("%s after recovery: %d %.300s — partial flag must clear", path, status, body)
		}
	}
	if status, _ = c.Get(0, "/forecast?entity="+deadOwned+"&horizon=5m"); status != http.StatusOK {
		t.Fatalf("proxy to recovered owner = %d, want 200", status)
	}
}

// TestClusterCountLimitCrossNode extends the engine's COUNT/LIMIT tables
// across nodes: every combination — COUNT of replicated and anchored data,
// COUNT independent of LIMIT, LIMIT above and below the result size, empty
// and zero-count results — must decode identically through every
// coordinator and a single node over the same stream.
func TestClusterCountLimitCrossNode(t *testing.T) {
	sc := degradedScenario()
	c := Start(t, Config{Nodes: 2, Scenario: sc,
		Core:   core.Config{Domain: model.Maritime},
		Server: server.Config{Workers: 4, QueueLen: 1 << 16}})

	body := WireBody(sc.WireTimed)
	if ir := c.Ingest(0, body, true); ir.Rejected != 0 {
		t.Fatalf("seed rejected: %+v", ir)
	}
	c.QuiesceAll()
	ref := newReferenceServer(t, sc, core.Config{Domain: model.Maritime})
	refIngest(t, ref, body)

	queries := []string{
		// The engine's own COUNT table, cross-node.
		`SELECT COUNT ?v WHERE { ?v rdf:type dat:Vessel . }`,
		`SELECT COUNT WHERE { ?n rdf:type dat:SemanticNode . }`,
		`SELECT COUNT ?n WHERE { ?n dat:speed ?s . FILTER (?s > 10) }`,
		`SELECT COUNT ?n WHERE { ?n rdf:type dat:SemanticNode . } LIMIT 4`,
		`SELECT COUNT ?n WHERE { ?n rdf:type dat:SemanticNode . } LIMIT 400000`,
		// Zero-count and empty results.
		`SELECT COUNT ?n WHERE { ?n dat:speed ?s . FILTER (?s > 100000) }`,
		`SELECT ?n WHERE { ?n dat:speed ?s . FILTER (?s > 100000) }`,
		// LIMIT truncating the globally merged (not per-node) row set.
		`SELECT ?n WHERE { ?n rdf:type dat:SemanticNode . } LIMIT 1`,
		`SELECT ?n ?s WHERE { ?n dat:speed ?s . FILTER (?s > 10) } LIMIT 7`,
		`SELECT COUNT ?n ?s WHERE { ?n dat:speed ?s . FILTER (?s > 10) } LIMIT 7`,
	}
	for _, q := range queries {
		for coord := range c.Nodes {
			compareQuery(t, c, coord, ref, q, false)
		}
	}
}

// referenceServer is a plain single-node server fed the same stream — the
// semantic ground truth every cluster read is compared against.
type referenceServer struct {
	url string
	srv *server.Server
}

func newReferenceServer(t *testing.T, sc *synth.Scenario, cfg core.Config) *referenceServer {
	t.Helper()
	p := core.New(cfg)
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	srv := server.New(server.Config{Pipeline: p, Workers: 4, QueueLen: 1 << 16})
	hs := &http.Server{Handler: srv.Handler()}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go func() { _ = hs.Serve(ln) }()
	t.Cleanup(func() { _ = hs.Close(); srv.Close() })
	return &referenceServer{url: "http://" + ln.Addr().String(), srv: srv}
}

func refIngest(t *testing.T, ref *referenceServer, body string) {
	t.Helper()
	status, respBody := httpPost(t, ref.url+"/ingest?wait=1", "text/plain", body)
	if status != http.StatusAccepted {
		t.Fatalf("reference ingest: %d %s", status, respBody)
	}
	if !ref.srv.Ingestor().Quiesce(30 * time.Second) {
		t.Fatal("reference did not quiesce")
	}
}

// compareQuery asserts a cluster query through coordinator coord decodes to
// the same vars+rows as the reference; wantPartial additionally pins the
// degraded flag.
func compareQuery(t *testing.T, c *Cluster, coord int, ref *referenceServer, q string, wantPartial bool) {
	t.Helper()
	refStatus, refBody := httpPost(t, ref.url+"/query", "text/plain", q)
	if refStatus != http.StatusOK {
		t.Fatalf("reference query %q: %d %s", q, refStatus, refBody)
	}
	status, body := c.Query(coord, q)
	if status != http.StatusOK {
		t.Fatalf("cluster query %q via node %d: %d %s", q, coord, status, body)
	}
	if got := bytes.Contains(body, []byte(`"partial":true`)); got != wantPartial {
		t.Fatalf("query %q partial=%v, want %v: %s", q, got, wantPartial, body)
	}
	var want, got queryResult
	mustDecode(t, refBody, &want)
	mustDecode(t, body, &got)
	if len(want.Rows) == 0 && len(got.Rows) == 0 {
		return
	}
	if !equalRows(want.Rows, got.Rows) || strings.Join(want.Vars, ",") != strings.Join(got.Vars, ",") {
		t.Fatalf("query %q via node %d diverged:\n got %s\nwant %s", q, coord, body, refBody)
	}
}

func equalRows(a, b [][]string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if strings.Join(a[i], "\x00") != strings.Join(b[i], "\x00") {
			return false
		}
	}
	return true
}

func mustDecodeReader(t *testing.T, resp *http.Response, ir *IngestResult) {
	t.Helper()
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatal(err)
	}
	mustDecode(t, buf.Bytes(), ir)
	ir.Status = resp.StatusCode
}
