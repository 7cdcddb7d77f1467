package server

import (
	"net/http"

	"github.com/datacron-project/datacron/internal/core"
)

// snapshotResponse is the POST /snapshot body.
type snapshotResponse struct {
	Dir        string `json:"dir"`
	CutLSN     uint64 `json:"cutLSN"`
	ReplayFrom uint64 `json:"replayFrom"`
	Triples    int    `json:"triples"`
	TookMS     int64  `json:"tookMs"`
	Error      string `json:"error,omitempty"`
}

// handleSnapshot writes a full pipeline snapshot under the configured data
// directory: the cut is taken under the ingest barrier (workers pause at a
// line boundary; clients see queue backpressure, not errors, while the
// shards serialise), older snapshots are pruned and fully-covered WAL
// segments removed. Concurrent requests are serialised; the second one
// simply snapshots again at a later cut.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if s.cfg.DataDir == "" {
		writeJSON(w, http.StatusConflict, snapshotResponse{Error: "server is not running with a data directory"})
		return
	}
	info, err := s.Snapshot()
	if err != nil {
		writeJSON(w, http.StatusInternalServerError, snapshotResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, snapshotResponse{
		Dir:        info.Dir,
		CutLSN:     info.CutLSN,
		ReplayFrom: info.ReplayFrom,
		Triples:    info.Triples,
		TookMS:     info.Took.Milliseconds(),
	})
}

// Snapshot writes a full pipeline snapshot under the configured data
// directory, under the ingest barrier, and counts it on /metrics.
// Concurrent calls are serialised.
func (s *Server) Snapshot() (core.SnapshotInfo, error) {
	s.snapMu.Lock()
	defer s.snapMu.Unlock()
	info, err := s.p.WriteSnapshot(s.cfg.DataDir, s.ing, s.wal)
	if err != nil {
		return info, err
	}
	s.snapshots.Add(1)
	s.lastSnapshotLSN.Store(info.CutLSN)
	return info, nil
}

// sealResponse is the POST /seal body: what the pass did plus the tier
// layout it left behind.
type sealResponse struct {
	Sealed         int   `json:"sealed"`
	SealedTriples  int   `json:"sealedTriples"`
	Dropped        int   `json:"dropped"`
	DroppedTriples int   `json:"droppedTriples"`
	HeadTriples    int   `json:"headTriples"`
	Segments       int   `json:"segments"`
	SegmentTriples int   `json:"segmentTriples"`
	MaxAnchorTS    int64 `json:"maxAnchorTS"`
}

// handleSeal forces a tier-maintenance pass: every non-empty shard head is
// sealed into an immutable segment and the retention window (if any) is
// applied, all under the ingest barrier. Operators use it to persist a
// compact tier layout before a snapshot or to verify retention is
// bounding memory.
func (s *Server) handleSeal(w http.ResponseWriter, r *http.Request) {
	st := s.maintain(true)
	tiers := s.p.Store.TierStats()
	writeJSON(w, http.StatusOK, sealResponse{
		Sealed:         st.Sealed,
		SealedTriples:  st.SealedTriples,
		Dropped:        st.Dropped,
		DroppedTriples: st.DroppedTriples,
		HeadTriples:    tiers.HeadTriples,
		Segments:       tiers.Segments,
		SegmentTriples: tiers.SealedTriples,
		MaxAnchorTS:    s.p.Store.MaxAnchorTS(),
	})
}
