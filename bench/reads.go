package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"github.com/datacron-project/datacron/internal/synth"
)

// Read classes: every workload reads with the same mix, so a class's
// latency is comparable across the four store states.
const (
	classCount    = "count"    // SELECT COUNT over every semantic node
	classGroup    = "group"    // grouped join with aggregates, ordered, LIMIT 5
	classSel      = "sel"      // selective FILTER + ORDER BY + LIMIT 10
	classRange    = "range"    // GET /range, small box, limit=100
	classForecast = "forecast" // GET /forecast?entity=
	classSynopsis = "synopsis" // GET /synopses/{id}
)

var readClasses = []string{classCount, classGroup, classSel, classRange, classForecast, classSynopsis}

const (
	queryCount = `SELECT COUNT ?n WHERE { ?n rdf:type dat:SemanticNode . }`
	queryGroup = `SELECT ?v SUM(?s) AVG(?s) WHERE { ?n dat:ofMovingObject ?v . ?n dat:speed ?s . } GROUP BY ?v ORDER BY ?sum_s DESC, ?v LIMIT 5`
	querySel   = `SELECT ?n ?s WHERE { ?n dat:speed ?s . FILTER (?s > %s) } ORDER BY ?s DESC, ?n LIMIT 10`
)

// selVariants is how many thresholds the selective query cycles over.
const selVariants = 8

// readOp is one pre-built read request.
type readOp struct {
	class  string
	method string
	path   string
	body   string
}

// roundShape is one round of the mix in issue order: one read of each class,
// so the two scans, which take most of a round's time, get as many samples
// as the point reads.
var roundShape = []string{classCount, classSel, classRange, classGroup, classForecast, classSynopsis}

// readMix yields the i-th read of the endless interleaved mix. Parameters
// (threshold, box, entity) cycle with the round, so consecutive rounds ask
// different questions.
type readMix struct {
	entities []string
	boxes    []string
	// sel are the selective query's thresholds in m/s (see selThresholds).
	sel []string
}

// newReadMix builds the mix for a daemon that has been fed lines: entities
// come from those that reported in them, thresholds from their speeds.
func newReadMix(lines []synth.TimedLine, seed int64) *readMix {
	m := &readMix{entities: pickEntities(seenEntities(lines), seed, entityPicks), sel: selThresholds(lines)}
	for _, p := range synth.MaritimePorts() {
		m.boxes = append(m.boxes, fmt.Sprintf("/range?minlon=%.2f&minlat=%.2f&maxlon=%.2f&maxlat=%.2f&limit=100",
			p.Pt.Lon-0.15, p.Pt.Lat-0.15, p.Pt.Lon+0.15, p.Pt.Lat+0.15))
	}
	return m
}

func (m *readMix) op(i int) readOp {
	class, round := roundShape[i%len(roundShape)], i/len(roundShape)
	switch class {
	case classCount:
		return readOp{class, http.MethodPost, "/query", queryCount}
	case classGroup:
		return readOp{class, http.MethodPost, "/query", queryGroup}
	case classSel:
		return readOp{class, http.MethodPost, "/query", fmt.Sprintf(querySel, m.sel[round%len(m.sel)])}
	case classRange:
		return readOp{class, http.MethodGet, m.boxes[round%len(m.boxes)], ""}
	case classForecast:
		return readOp{class, http.MethodGet, "/forecast?entity=" + m.entities[round%len(m.entities)], ""}
	default:
		return readOp{class, http.MethodGet, "/synopses/" + m.entities[round%len(m.entities)], ""}
	}
}

// reads accumulates what a read phase observed.
type reads struct {
	byClass map[string]*latencies
	// overheadUS is client latency minus the engine's own elapsedUs, per
	// /query: what the HTTP layer, JSON and the loopback add.
	overheadUS latencies
	rows       int // result rows over all /query reads
	queries    int
	pruned     int // segmentsPruned over all /query reads
	attempted  int
	failed     int
	// hashes maps each distinct store read to the hash of its canonical
	// result; only filled when the store is quiescent.
	hashes   map[string]string
	mismatch []string
}

func newReads() *reads {
	r := &reads{byClass: map[string]*latencies{}, hashes: map[string]string{}}
	for _, c := range readClasses {
		r.byClass[c] = &latencies{}
	}
	return r
}

// storeRead is what a /query or /range reply reduces to.
type storeRead struct {
	// canon is what must repeat on a quiescent store: rows or hits in a
	// fixed order, without timings. Empty when the reply is free to differ
	// (a truncated range scan returns any limit hits).
	canon     []byte
	rows      int
	pruned    int
	elapsedUS int64
}

func parseStoreRead(path string, body []byte) (storeRead, error) {
	if path == "/query" {
		var q struct {
			Vars           []string   `json:"vars"`
			Rows           [][]string `json:"rows"`
			SegmentsPruned int        `json:"segmentsPruned"`
			ElapsedUS      int64      `json:"elapsedUs"`
		}
		if err := json.Unmarshal(body, &q); err != nil {
			return storeRead{}, err
		}
		canon, err := json.Marshal([]any{q.Vars, q.Rows})
		return storeRead{canon, len(q.Rows), q.SegmentsPruned, q.ElapsedUS}, err
	}
	var r struct {
		Hits []struct {
			Node string `json:"node"`
		} `json:"hits"`
		Truncated bool `json:"truncated"`
	}
	if err := json.Unmarshal(body, &r); err != nil {
		return storeRead{}, err
	}
	if r.Truncated {
		return storeRead{rows: len(r.Hits)}, nil
	}
	nodes := make([]string, len(r.Hits))
	for i, h := range r.Hits {
		nodes[i] = h.Node
	}
	sort.Strings(nodes)
	canon, err := json.Marshal(nodes)
	return storeRead{canon: canon, rows: len(r.Hits)}, err
}

// do issues op on c and records its outcome. With quiescent set nothing is
// writing to the store, so a store read must return what it returned before.
func (r *reads) do(c *conn, op readOp, quiescent bool) (sent, done time.Time) {
	sent = time.Now()
	status, body, err := c.request(op.method, op.path, "text/plain", []byte(op.body))
	done = time.Now()
	r.attempted++
	if err != nil || status != http.StatusOK {
		r.failed++
		return sent, done
	}
	if op.class == classForecast || op.class == classSynopsis {
		return sent, done
	}
	key := op.path
	if op.body != "" {
		key = op.body
	}
	sr, err := parseStoreRead(op.path, body)
	if err != nil {
		r.failed++
		return sent, done
	}
	if op.path == "/query" {
		r.queries++
		r.rows += sr.rows
		r.pruned += sr.pruned
		r.overheadUS.add(done.Sub(sent) - time.Duration(sr.elapsedUS)*time.Microsecond)
	}
	if quiescent && sr.canon != nil {
		sum := sha256.Sum256(sr.canon)
		h := hex.EncodeToString(sum[:8])
		if prev, ok := r.hashes[key]; ok && prev != h {
			r.failed++
			r.mismatch = append(r.mismatch, key)
		}
		r.hashes[key] = h
	}
	return sent, done
}

// closedLoop issues the mix back to back on c for d, against a store
// nothing writes to.
func (r *reads) closedLoop(c *conn, mix *readMix, d time.Duration) {
	deadline := time.Now().Add(d)
	for i := 0; time.Now().Before(deadline); i++ {
		op := mix.op(i)
		sent, done := r.do(c, op, true)
		r.byClass[op.class].add(box.fair(sent, done))
	}
}

// openLoop issues the mix on a fixed schedule of rate reads per second for
// d, timing each read from its intended send.
func (r *reads) openLoop(c *conn, mix *readMix, rate float64, d time.Duration, start time.Time) paced {
	gap := time.Duration(float64(time.Second) / rate)
	return pace(wallClock{}, start, gap, int(d/gap), func(i int) {
		op := mix.op(i)
		_, done := r.do(c, op, false)
		r.byClass[op.class].add(box.fair(start.Add(time.Duration(i)*gap), done))
	})
}
