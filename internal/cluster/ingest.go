package cluster

import (
	"encoding/json"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/datacron-project/datacron/internal/server"
	"github.com/datacron-project/datacron/internal/wire"
)

// ownerIngest is one owning node's share of a coordinated ingest batch.
type ownerIngest struct {
	Lines    int    `json:"lines"`
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	Error    string `json:"error,omitempty"`
}

// clusterIngestResponse is the coordinator's POST /ingest body. Accepted
// and Rejected are sums over the per-owner sub-batches; unlike single-node
// mode, Accepted is NOT a resumable prefix offset of the original body —
// sub-batches land on different owners, so each owner reports its own exact
// prefix in Owners and a client that must avoid re-sending ingested lines
// resumes per owner. Pending sums the owners' queue depths.
type clusterIngestResponse struct {
	Accepted int                    `json:"accepted"`
	Rejected int                    `json:"rejected"`
	Pending  int64                  `json:"pending"`
	Error    string                 `json:"error,omitempty"`
	Owners   map[string]ownerIngest `json:"owners,omitempty"`
}

// ownerShare is one owning node's staged share of a coordinated ingest
// batch: a reusable record encoder and the framed bytes built from it.
type ownerShare struct {
	owner string
	enc   wire.Encoder
	frame []byte
}

// ingestScratch carries one coordinator ingest request's reusable buffers —
// body and per-owner shares — so steady-state re-framing performs no
// allocations (pinned by TestCoordinatorReframeAllocs). Shares keep their
// encoder and frame buffers across requests.
type ingestScratch struct {
	body   []byte
	key    []byte        // routing-key scratch, reused per line
	shares []*ownerShare // high-water owner capacity; first n are live
	n      int
}

var ingestScratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// share returns the live share for owner, reviving a recycled one (with its
// buffers) before allocating. Linear scan: cluster member counts are small,
// and it replaces two map lookups per line.
func (sc *ingestScratch) share(owner string) *ownerShare {
	for _, s := range sc.shares[:sc.n] {
		if s.owner == owner {
			return s
		}
	}
	var s *ownerShare
	if sc.n < len(sc.shares) {
		s = sc.shares[sc.n]
		s.owner = owner
	} else {
		s = &ownerShare{owner: owner}
		sc.shares = append(sc.shares, s)
	}
	sc.n++
	s.enc.Reset()
	s.frame = s.frame[:0]
	return s
}

// stageShares walks the request body (wire.EachRecord: same formats, same
// receive-time stamping as the single-node endpoint — the forwarded frame
// carries the stamp, so the owner does not re-stamp on arrival), routes
// every record to its owning node through the ring and re-frames each
// owner's share as one binary wire frame, preserving arrival order within
// each owner (the per-entity workers there see the same order a direct
// client would have produced). Shares come out sorted by owner for
// deterministic dispatch. blank counts the blank records, which are not
// forwarded; on a body fault err is returned and the records before it are
// staged.
func (n *Node) stageShares(sc *ingestScratch, contentType string) (blank int, err error) {
	ring, _ := n.Ring()
	sc.n = 0
	_, err = wire.EachRecord(sc.body, contentType, time.Now().UnixMilli(), func(ts int64, line string) {
		if line == "" {
			blank++
			return
		}
		sc.key = n.cfg.Pipeline.AppendRoutingKey(sc.key[:0], line)
		owner := n.cfg.Self
		if len(sc.key) > 0 {
			owner = ring.OwnerBytes(sc.key)
		}
		sc.share(owner).enc.Add(ts, line)
		if owner != n.cfg.Self {
			n.forwardedLines.Add(1)
		}
	})
	live := sc.shares[:sc.n]
	slices.SortFunc(live, func(a, b *ownerShare) int { return strings.Compare(a.owner, b.owner) })
	for _, s := range live {
		s.frame = s.enc.AppendFrame(s.frame[:0])
	}
	return blank, err
}

// handleIngest is the coordinator ingest path: decode the batch (text lines
// or binary frames, same formats as the single-node endpoint), route every
// line to its owning node through the ring, re-frame each owner's share as
// one binary wire frame, and dispatch all shares concurrently — the node's
// own share in process, the rest as forwarded POST /ingest sub-requests.
//
// Backpressure propagates: any owner that sheds (429) or cannot be reached
// makes the coordinator respond 429 with Retry-After, never silently
// dropping the lines (the unreachable owner's share counts as rejected).
func (n *Node) handleIngest(w http.ResponseWriter, r *http.Request) {
	sc := ingestScratchPool.Get().(*ingestScratch)
	// Safe to recycle at return: the dispatch loop below joins every share
	// goroutine before the handler exits, so nothing aliases the buffers.
	defer ingestScratchPool.Put(sc)
	var status int
	var err error
	if sc.body, status, err = wire.ReadBody(w, r, sc.body); err != nil {
		writeJSON(w, status, clusterIngestResponse{Error: err.Error()})
		return
	}
	blank, bodyErr := n.stageShares(sc, r.Header.Get("Content-Type"))

	path := "/ingest"
	if r.URL.Query().Get("wait") == "1" {
		path += "?wait=1"
	}
	// fanOut shares one body across members; ingest shares differ per
	// owner, so each share is dispatched individually (still concurrent).
	resp := clusterIngestResponse{Owners: make(map[string]ownerIngest, sc.n)}
	type shareResult struct {
		owner string
		lines int
		pr    peerResponse
	}
	resCh := make(chan shareResult, sc.n)
	header := clientHeader(r)
	for _, s := range sc.shares[:sc.n] {
		go func(owner string, lines int, frame []byte) {
			resCh <- shareResult{owner, lines, n.do(owner, http.MethodPost, path, wire.ContentType, frame, header)}
		}(s.owner, s.enc.Count(), s.frame)
	}
	for i := 0; i < sc.n; i++ {
		sr := <-resCh
		oi := ownerIngest{Lines: sr.lines}
		switch {
		case sr.pr.err != nil:
			// Partition-style failure: the owner is unreachable. Nothing
			// was ingested there; the whole share is rejected and the
			// client hears 429, not a silent drop.
			oi.Rejected = oi.Lines
			oi.Error = "forward: " + sr.pr.err.Error()
			n.forwardErrors.Add(1)
		case sr.pr.status == http.StatusAccepted || sr.pr.status == http.StatusTooManyRequests:
			var pir server.IngestResponse
			if err := json.Unmarshal(sr.pr.body, &pir); err != nil {
				oi.Rejected = oi.Lines
				oi.Error = "forward: bad response: " + err.Error()
				n.forwardErrors.Add(1)
				break
			}
			oi.Accepted, oi.Rejected, oi.Error = pir.Accepted, pir.Rejected, pir.Error
			resp.Pending += pir.Pending
		default:
			oi.Rejected = oi.Lines
			oi.Error = "forward: unexpected status " + strconv.Itoa(sr.pr.status) + ": " + strings.TrimSpace(string(sr.pr.body))
			n.forwardErrors.Add(1)
		}
		resp.Accepted += oi.Accepted
		resp.Rejected += oi.Rejected
		if oi.Error != "" && resp.Error == "" {
			resp.Error = sr.owner + ": " + oi.Error
		}
		resp.Owners[sr.owner] = oi
	}
	// Blank lines are coordinator-local no-ops, counted accepted as in
	// single-node mode; a malformed body rejects its undecodable remainder.
	resp.Accepted += blank
	if bodyErr != nil && resp.Error == "" {
		resp.Error = bodyErr.Error()
	}

	status = http.StatusAccepted
	if bodyErr != nil {
		status = http.StatusBadRequest
	}
	if resp.Rejected > 0 {
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	}
	writeJSON(w, status, resp)
}

// writeJSON renders v with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}
