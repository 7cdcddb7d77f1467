package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/query"
)

// PartialQueryHeader marks a scatter-gather sub-request from a cluster
// coordinator: the node runs the partial form of the query
// (Query.StripFinal — grouping/aggregation/ordering/LIMIT removed, the
// projection widened to the aggregate inputs) and returns its full
// distinct row set, so the coordinator can merge partials under set
// semantics and run the final operators once, globally (query.Finalize).
// Aggregating or truncating per node would double-count replicated
// triples and over-truncate.
const PartialQueryHeader = "X-Datacron-Partial-Query"

// queryRequest is the JSON form of POST /query; a text/plain body is the
// query string itself.
type queryRequest struct {
	Query string `json:"query"`
}

// QueryResponse is the JSON result of POST /query, from a node and from a
// cluster coordinator alike: the coordinator decodes its peers' bodies into
// this type and encodes its own answer from it.
type QueryResponse struct {
	Vars          []string   `json:"vars"`
	Rows          [][]string `json:"rows"`
	ShardsVisited int        `json:"shardsVisited"`
	ElapsedUS     int64      `json:"elapsedUs"`
	// Partial is set only by a coordinator, when one or more nodes could
	// not contribute: their rows are simply absent — a degraded result,
	// never an error, as long as one node answered.
	Partial bool `json:"partial,omitempty"`
}

// NewQueryResponse renders a query result for the wire: every cell as
// Term.String(), rows never null.
func NewQueryResponse(res *query.Result) QueryResponse {
	out := QueryResponse{
		Vars:          res.Vars,
		Rows:          make([][]string, len(res.Rows)),
		ShardsVisited: res.ShardsVisited,
		ElapsedUS:     res.Elapsed.Microseconds(),
	}
	for i, row := range res.Rows {
		cells := make([]string, len(row))
		for j, t := range row {
			cells[j] = t.String()
		}
		out.Rows[i] = cells
	}
	return out
}

// maxQueryBytes bounds a POST /query body; a longer one is refused, never
// truncated and parsed.
const maxQueryBytes = 1 << 20

// ReadQuery reads the query text of a POST /query request — the body
// itself, or the "query" member under application/json — for a node and a
// cluster coordinator alike. On failure status is the HTTP status to
// answer with: 413 over maxQueryBytes, 400 for an unreadable, malformed or
// empty body.
func ReadQuery(w http.ResponseWriter, r *http.Request) (src string, status int, err error) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxQueryBytes))
	if err != nil {
		status = http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		return "", status, fmt.Errorf("read body: %w", err)
	}
	src = string(body)
	if strings.Contains(r.Header.Get("Content-Type"), "application/json") {
		var req queryRequest
		if err := json.Unmarshal(body, &req); err != nil {
			return "", http.StatusBadRequest, fmt.Errorf("bad json: %w", err)
		}
		src = req.Query
	}
	if strings.TrimSpace(src) == "" {
		return "", http.StatusBadRequest, errors.New("empty query")
	}
	return src, 0, nil
}

// handleQuery runs one stSPARQL-lite query against the store. Safe while
// ingest is in flight: shard evaluation takes per-shard read locks.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	src, status, err := ReadQuery(w, r)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	var res *query.Result
	cacheHit := false
	if r.Header.Get(PartialQueryHeader) != "" {
		q, hit, perr := s.p.Engine.ParseCached(src)
		if perr != nil {
			http.Error(w, perr.Error(), http.StatusBadRequest)
			return
		}
		cacheHit = hit
		// StripFinal copies, so the cached *Query is never mutated.
		res, err = s.p.Engine.Run(q.StripFinal())
	} else {
		res, err = s.p.Engine.Execute(src)
	}
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	cacheHit = cacheHit || res.Plan.CacheHit
	if s.slowLog != nil {
		// Record over-threshold queries with the plan facts that explain
		// them: the executed operator chain with per-stage row counts, how
		// many shards the planner could prune, and whether the plan was
		// cached.
		s.slowLog.Observe(obs.SlowQuery{
			RequestID:     r.Header.Get(obs.RequestIDHeader),
			Query:         src,
			DurationUS:    res.Elapsed.Microseconds(),
			Rows:          len(res.Rows),
			ShardsVisited: res.ShardsVisited,
			ShardsPruned:  s.p.Store.NumShards() - res.ShardsVisited,
			Plan:          res.Plan.Stages,
			CacheHit:      cacheHit,
		})
	}
	writeJSON(w, http.StatusOK, NewQueryResponse(res))
}

// rangeHit is one spatiotemporal range query result.
type rangeHit struct {
	Node  string  `json:"node"`
	Lon   float64 `json:"lon"`
	Lat   float64 `json:"lat"`
	TS    int64   `json:"ts"`
	Shard int     `json:"shard"`
}

// rangeResponse is the JSON result of GET /range. Count is the number of
// hits returned; truncated reports that more matches exist beyond limit.
type rangeResponse struct {
	Hits          []rangeHit `json:"hits"`
	Count         int        `json:"count"`
	ShardsVisited int        `json:"shardsVisited"`
	Truncated     bool       `json:"truncated"`
}

// maxRangeLimit caps ?limit= so one request cannot make the store
// materialise unbounded results.
const maxRangeLimit = 100_000

// handleRange runs a spatiotemporal range query over the anchored nodes:
// GET /range?minlon=&minlat=&maxlon=&maxlat=&from=&to=&limit=. Omitted
// spatial bounds default to the world box; omitted time bounds are open.
// The limit (default 10000, max 100000) bounds the scan itself, not just
// the response.
func (s *Server) handleRange(w http.ResponseWriter, r *http.Request) {
	q := r.URL.Query()
	world := s.p.WorldBox()
	minLon, err := floatParam(q.Get("minlon"), world.MinLon)
	minLat, err2 := floatParam(q.Get("minlat"), world.MinLat)
	maxLon, err3 := floatParam(q.Get("maxlon"), world.MaxLon)
	maxLat, err4 := floatParam(q.Get("maxlat"), world.MaxLat)
	from, err5 := intParam(q.Get("from"), 0)
	to, err6 := intParam(q.Get("to"), 1<<62)
	limit, err7 := intParam(q.Get("limit"), 10000)
	for _, e := range []error{err, err2, err3, err4, err5, err6, err7} {
		if e != nil {
			http.Error(w, "bad parameter: "+e.Error(), http.StatusBadRequest)
			return
		}
	}
	if limit <= 0 || limit > maxRangeLimit {
		limit = maxRangeLimit
	}
	results, visited, truncated := s.p.Store.RangeQueryN(
		geo.NewBBox(minLon, minLat, maxLon, maxLat), from, to, int(limit))
	resp := rangeResponse{Hits: []rangeHit{}, Count: len(results), ShardsVisited: visited, Truncated: truncated}
	dict := s.p.Store.Dict()
	for _, res := range results {
		node := ""
		if t, ok := dict.Decode(res.Node); ok {
			node = t.Value
		}
		resp.Hits = append(resp.Hits, rangeHit{
			Node: node, Lon: res.Pt.Lon, Lat: res.Pt.Lat, TS: res.TS, Shard: res.Shard,
		})
	}
	writeJSON(w, http.StatusOK, resp)
}

// floatParam parses a coordinate bound: ±Inf is an open bound, NaN no
// bound at all (it would pick shards by NaN cell coordinates).
func floatParam(s string, def float64) (float64, error) {
	if s == "" {
		return def, nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err == nil && math.IsNaN(v) {
		err = fmt.Errorf("%q is not a number", s)
	}
	return v, err
}

func intParam(s string, def int64) (int64, error) {
	if s == "" {
		return def, nil
	}
	return strconv.ParseInt(s, 10, 64)
}
