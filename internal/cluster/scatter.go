package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"
	"time"

	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/query"
	"github.com/datacron-project/datacron/internal/server"
)

// The coordinator speaks the server's own wire types: it decodes a node's
// answer into the struct that node encoded it from and encodes its merged
// answer from that struct again, so a complete cluster merge re-encodes
// byte-identically to a single node over the same data — the property the
// golden harness test pins.

// gather performs one request against every ring member, decodes each 200
// answer into a T and hands it to each, in membership order. A member that
// is unreachable, answers another status or sends an undecodable body does
// not contribute: partial reports that some did not, and when none did,
// failed is the first failure for the caller to answer with.
func gather[T any](n *Node, method, pathAndQuery, contentType string, body []byte, header map[string]string, each func(T)) (partial bool, failed *peerResponse) {
	ring, _ := n.Ring()
	answered := false
	for _, pr := range n.fanOut(ring.Members(), method, pathAndQuery, contentType, body, header) {
		var v T
		if pr.err == nil && pr.status == http.StatusOK {
			if err := json.Unmarshal(pr.body, &v); err != nil {
				pr.err = fmt.Errorf("bad response: %w", err)
			}
		}
		if pr.err != nil || pr.status != http.StatusOK {
			if failed == nil {
				failed = &pr
			}
			continue
		}
		answered = true
		each(v)
	}
	if !answered {
		return false, failed
	}
	return failed != nil, nil
}

// handleQuery is the coordinator read path: parse the query once for
// validation and for its final clauses (grouping, aggregates, ordering,
// LIMIT), fan the query to every node marked partial (PartialQueryHeader —
// each node runs the StripFinal form and returns its distinct input rows),
// and hand the row sets to query.Finalize, which merges them through the
// engine's own cross-shard merge and runs the final operators once
// globally — so a cluster answer is bit-identical to a single node holding
// the same data.
func (n *Node) handleQuery(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	src, status, err := server.ReadQuery(w, r)
	if err != nil {
		http.Error(w, err.Error(), status)
		return
	}
	q, err := query.Parse(src)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}

	var partials [][][]string
	var vars []string
	shards := 0
	header := clientHeader(r)
	header[server.PartialQueryHeader] = "1"
	header[idempotencyKey] = header[obs.RequestIDHeader] // read-only: safe to replay
	partial, failed := gather(n, http.MethodPost, "/query", "text/plain", []byte(src),
		header, func(pqr server.QueryResponse) {
			vars = pqr.Vars
			partials = append(partials, pqr.Rows)
			shards += pqr.ShardsVisited
		})
	if failed != nil {
		writeJSON(w, http.StatusServiceUnavailable, server.ErrorResponse{Error: "no cluster node reachable: " + peerFailure(*failed)})
		return
	}
	res, err := query.Finalize(q, vars, partials...)
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, server.ErrorResponse{Error: err.Error()})
		return
	}
	res.ShardsVisited, res.Elapsed = shards, time.Since(start)
	resp := server.NewQueryResponse(res)
	if resp.Partial = partial; partial {
		n.scatterPartials.Add(1)
	}
	writeJSON(w, http.StatusOK, resp)
}

// handleForecastBatch scatters GET /forecast/batch to every node and
// concatenates the per-node forecast sets: each live entity's history lives
// only on its owning node, so the sets are disjoint and the merge is a
// sort by entity — exactly the order the single-node endpoint emits.
func (n *Node) handleForecastBatch(w http.ResponseWriter, r *http.Request) {
	pathAndQuery := "/forecast/batch"
	if r.URL.RawQuery != "" {
		pathAndQuery += "?" + r.URL.RawQuery
	}
	merged := server.ForecastBatchResponse{Forecasts: []server.ForecastJSON{}}
	partial, failed := gather(n, http.MethodGet, pathAndQuery, "", nil, clientHeader(r), func(fb server.ForecastBatchResponse) {
		merged.HorizonMS = fb.HorizonMS
		merged.Forecasts = append(merged.Forecasts, fb.Forecasts...)
	})
	if failed != nil {
		n.relayFailure(w, *failed)
		return
	}
	sort.Slice(merged.Forecasts, func(i, j int) bool { return merged.Forecasts[i].Entity < merged.Forecasts[j].Entity })
	merged.Count = len(merged.Forecasts)
	if merged.Partial = partial; partial {
		n.scatterPartials.Add(1)
	}
	writeJSON(w, http.StatusOK, merged)
}

// handleSynopsesBatch scatters GET /synopses/batch. Per-entity summaries
// concatenate (disjoint ownership) and the hub-wide accounting re-derives
// from the summed integer counters — Ratio is observed/critical over those
// sums, the same expression the single-node hub evaluates, so the division
// (and its float bits) match a single node holding the whole stream.
func (n *Node) handleSynopsesBatch(w http.ResponseWriter, r *http.Request) {
	merged := server.SynopsesBatchResponse{ByKind: map[string]int64{}, Entities: []server.SynopsisSummaryJSON{}}
	partial, failed := gather(n, http.MethodGet, "/synopses/batch", "", nil, clientHeader(r), func(sb server.SynopsesBatchResponse) {
		merged.Observed += sb.Observed
		merged.Critical += sb.Critical
		for k, v := range sb.ByKind {
			merged.ByKind[k] += v
		}
		merged.Entities = append(merged.Entities, sb.Entities...)
	})
	if failed != nil {
		n.relayFailure(w, *failed)
		return
	}
	if merged.Critical == 0 {
		merged.Ratio = float64(merged.Observed)
	} else {
		merged.Ratio = float64(merged.Observed) / float64(merged.Critical)
	}
	sort.Slice(merged.Entities, func(i, j int) bool { return merged.Entities[i].Entity < merged.Entities[j].Entity })
	merged.Count = len(merged.Entities)
	if merged.Partial = partial; partial {
		n.scatterPartials.Add(1)
	}
	writeJSON(w, http.StatusOK, merged)
}

// proxyByKey forwards a single-entity request (GET /forecast?entity=,
// GET /synopses/{id}) to the entity's owning node and relays the response
// verbatim — status, Content-Type and body — so single-entity semantics
// (404 unknown, 400 bad params, 503 disabled) are exactly the single-node
// ones.
func (n *Node) proxyByKey(w http.ResponseWriter, r *http.Request, key string) {
	if key == "" {
		// Let the local handler produce its own 400/404 shape.
		n.local.ServeHTTP(w, r)
		return
	}
	ring, _ := n.Ring()
	owner := ring.Owner(key)
	pr := n.do(owner, r.Method, r.URL.RequestURI(), "", nil, clientHeader(r))
	if pr.err != nil {
		n.forwardErrors.Add(1)
		writeJSON(w, http.StatusBadGateway, server.ErrorResponse{Error: "owner " + owner + " unreachable: " + pr.err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(pr.status)
	_, _ = w.Write(pr.body)
}

// relayFailure reproduces the first failed sub-response at the coordinator:
// a transport error becomes 502, a peer's error status (e.g. the 503 of a
// disabled subsystem, or 400 for a bad horizon) is relayed verbatim so
// clients see single-node error semantics.
func (n *Node) relayFailure(w http.ResponseWriter, pr peerResponse) {
	if pr.err != nil {
		writeJSON(w, http.StatusBadGateway, server.ErrorResponse{Error: peerFailure(pr)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(pr.status)
	_, _ = w.Write(pr.body)
}

// peerFailure renders one failed sub-response for an error message.
func peerFailure(pr peerResponse) string {
	if pr.err != nil {
		return pr.member + ": " + pr.err.Error()
	}
	return pr.member + ": status " + http.StatusText(pr.status)
}
