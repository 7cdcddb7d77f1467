package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wire"
)

// IngestResponse reports what happened to one POST /ingest batch, to a
// client and to a cluster coordinator forwarding an owner's share. Accepted
// counts body records consumed (including blank ones, so it is always an
// exact record offset to resume from); Error carries a body fault — after
// which the accepted prefix was still ingested — or a durability failure.
type IngestResponse struct {
	Accepted int    `json:"accepted"`
	Rejected int    `json:"rejected"`
	Pending  int64  `json:"pending"`
	Error    string `json:"error,omitempty"`
}

// ingestScratch carries one ingest request's reusable buffers, so a steady
// stream of requests allocates no per-request body or record storage.
type ingestScratch struct {
	body []byte
	recs []synth.TimedLine
	pos  []int // pos[i] is the body offset (in records) of recs[i]
}

var ingestScratchPool = sync.Pool{New: func() any { return new(ingestScratch) }}

// handleIngest accepts a batch of wire lines. Content-Type chooses the body
// format and nothing else: the binary frames of internal/wire
// (application/x-datacron-frame) or newline-separated text, both walked by
// wire.EachRecord — each record is a wire line with an optional unix-ms
// timestamp, stamped with the server receive time when absent.
//
// Records are submitted in body order to the per-entity ingest workers; at
// the first one shed by a full worker queue the server stops and counts the
// whole remainder as rejected, so `accepted` is an exact resume offset: the
// client retries the batch from record `accepted` onward (never re-sending
// already-ingested records) after the 429's Retry-After. Blank records are
// no-ops but still count toward the offset — resending one is harmless,
// misaligning the offset is not. A malformed body (bad frame, over-long
// line) answers 400 with the records before the fault ingested and counted
// in `accepted`.
//
// In durable mode every accepted record is appended to the write-ahead log
// and the batch is group-committed before any response that reports it: an
// acknowledged record survives kill -9. Rejected records are never logged,
// so a resent record was never acked and never logged.
//
// ?wait=1 blocks until the submitted records (and any others in flight)
// have been fully processed — useful when a client wants read-your-writes
// consistency for a following query.
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	resp := IngestResponse{}
	sc := ingestScratchPool.Get().(*ingestScratch)
	// Safe to recycle at return: SubmitBatch copies the records it hands to
	// workers, and lines alias the iterator's own string, not sc.body.
	defer ingestScratchPool.Put(sc)
	var status int
	var err error
	if sc.body, status, err = wire.ReadBody(w, r, sc.body); err != nil {
		resp.Error = err.Error()
		resp.Pending = s.ing.Pending()
		writeJSON(w, status, resp)
		return
	}

	ct := r.Header.Get("Content-Type")
	recs, pos, total := sc.recs[:0], sc.pos[:0], 0
	frames, bodyErr := wire.EachRecord(sc.body, ct, time.Now().UnixMilli(), func(ts int64, line string) {
		if line != "" {
			recs = append(recs, synth.TimedLine{TS: ts, Line: line})
			pos = append(pos, total)
		}
		total++
	})
	sc.recs, sc.pos = recs, pos
	if ct == wire.ContentType {
		s.binFrames.Add(int64(frames))
		s.binRecords.Add(int64(total))
		if bodyErr != nil {
			s.binBadFrames.Add(1)
		}
	}

	status = http.StatusAccepted
	n, err := s.ing.SubmitBatch(s.wal, recs)
	resp.Accepted = total
	if n < len(recs) {
		resp.Accepted = pos[n]
	}
	if err == nil && s.wal != nil && resp.Accepted > 0 {
		// Group commit: one (usually shared) fsync covers the batch.
		if err = s.wal.Commit(); err != nil {
			err = fmt.Errorf("wal commit: %w", err)
		}
	}
	switch {
	case err != nil:
		// Nothing is acked — the client must retry the whole batch; lines
		// already queued will deduplicate in the store.
		resp.Error = err.Error()
		resp.Accepted = 0
		status = http.StatusInternalServerError
	case bodyErr != nil:
		resp.Error = bodyErr.Error()
		status = http.StatusBadRequest
	case resp.Accepted < total:
		status = http.StatusTooManyRequests
		w.Header().Set("Retry-After", "1")
	}
	resp.Rejected = total - resp.Accepted

	s.accepted.Add(int64(resp.Accepted))
	if r.URL.Query().Get("wait") == "1" {
		s.ing.Quiesce(30 * time.Second)
	}
	resp.Pending = s.ing.Pending()
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
