package server

import (
	"errors"
	"net/http"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/synopses"
)

// synopsisPointJSON is the wire shape of one critical point (the items of
// GET /synopses/{id} and the SSE "synopsis" event class).
type synopsisPointJSON struct {
	Kind string `json:"kind"`
	// Entity is set on SSE frames (a mixed stream); the per-entity
	// endpoint omits it — the envelope already names the entity.
	Entity       string  `json:"entity,omitempty"`
	TS           int64   `json:"ts"`
	Lon          float64 `json:"lon"`
	Lat          float64 `json:"lat"`
	Alt          float64 `json:"alt,omitempty"`
	SpeedMS      float64 `json:"speedMS"`
	CourseDeg    float64 `json:"courseDeg"`
	DurationMS   int64   `json:"durationMs,omitempty"`
	DeltaDeg     float64 `json:"deltaDeg,omitempty"`
	DeltaSpeedMS float64 `json:"deltaSpeedMS,omitempty"`
}

func toSynopsisPointJSON(cp synopses.CriticalPoint, withEntity bool) synopsisPointJSON {
	out := synopsisPointJSON{
		Kind: cp.Kind.String(),
		TS:   cp.Pos.TS, Lon: cp.Pos.Pt.Lon, Lat: cp.Pos.Pt.Lat, Alt: cp.Pos.Pt.Alt,
		SpeedMS: cp.Pos.SpeedMS, CourseDeg: cp.Pos.CourseDeg,
		DurationMS: cp.DurationMS, DeltaDeg: cp.DeltaDeg, DeltaSpeedMS: cp.DeltaSpeedMS,
	}
	if withEntity {
		out.Entity = cp.Pos.EntityID
	}
	return out
}

// synopsisResponse is the GET /synopses/{id} body: the entity's bounded
// critical point ring plus its compression accounting.
type synopsisResponse struct {
	Entity string `json:"entity"`
	// Raw counts gated reports observed; Critical the lifetime critical
	// points; Evicted how many of those have aged off the bounded ring.
	Raw      int64   `json:"raw"`
	Critical int64   `json:"critical"`
	Evicted  int64   `json:"evicted,omitempty"`
	Ratio    float64 `json:"ratio"`
	LastTS   int64   `json:"lastTS"`
	// Points is the ring, oldest first.
	Points []synopsisPointJSON `json:"points"`
}

// synopsesOr503 returns the pipeline's synopsis hub, or writes 503 when the
// daemon runs with synopses disabled.
func (s *Server) synopsesOr503(w http.ResponseWriter) *core.SynopsisHub {
	sh := s.p.SynopsisHub
	if sh == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			ErrorResponse{Error: "synopses disabled (run datacron-serve with -synopses)"})
	}
	return sh
}

// handleSynopsis is GET /synopses/{id}: one entity's trajectory synopsis —
// its critical points (stop / turn / speed-change / gap-start / gap-end,
// oldest first, ring-bounded) and the raw-vs-critical compression
// accounting. An entity the hub has never seen is 404.
func (s *Server) handleSynopsis(w http.ResponseWriter, r *http.Request) {
	sh := s.synopsesOr503(w)
	if sh == nil {
		return
	}
	entity := r.PathValue("id")
	es, err := sh.Synopsis(entity)
	if err != nil {
		status := http.StatusInternalServerError
		if errors.Is(err, core.ErrNoSynopsis) {
			status = http.StatusNotFound
		}
		writeJSON(w, status, ErrorResponse{Error: err.Error()})
		return
	}
	resp := synopsisResponse{
		Entity: es.Entity, Raw: es.Raw, Critical: es.Critical, Evicted: es.Evicted,
		Ratio: es.Ratio(), LastTS: es.LastTS,
		Points: make([]synopsisPointJSON, 0, len(es.Points)),
	}
	for _, cp := range es.Points {
		resp.Points = append(resp.Points, toSynopsisPointJSON(cp, false))
	}
	writeJSON(w, http.StatusOK, resp)
}

// SynopsisSummaryJSON is one entity's row in GET /synopses/batch.
type SynopsisSummaryJSON struct {
	Entity   string  `json:"entity"`
	Raw      int64   `json:"raw"`
	Critical int64   `json:"critical"`
	Ratio    float64 `json:"ratio"`
	LastTS   int64   `json:"lastTS"`
}

// SynopsesBatchResponse is the GET /synopses/batch body, from a node and
// from a cluster coordinator alike (QueryResponse has the Partial contract).
type SynopsesBatchResponse struct {
	Count int `json:"count"`
	// Hub-wide compression accounting.
	Observed int64                 `json:"observed"`
	Critical int64                 `json:"critical"`
	Ratio    float64               `json:"ratio"`
	ByKind   map[string]int64      `json:"byKind"`
	Entities []SynopsisSummaryJSON `json:"entities"`
	Partial  bool                  `json:"partial,omitempty"`
}

// handleSynopsesBatch is GET /synopses/batch: per-entity synopsis summaries
// (sorted by entity id, without the point payload) plus the hub-wide
// compression statistics — the volume-reduction scoreboard.
func (s *Server) handleSynopsesBatch(w http.ResponseWriter, r *http.Request) {
	sh := s.synopsesOr503(w)
	if sh == nil {
		return
	}
	st := sh.Stats()
	sums := sh.Summaries()
	resp := SynopsesBatchResponse{
		Observed: st.Observed, Critical: st.Critical, Ratio: st.Ratio(),
		ByKind:   make(map[string]int64, synopses.KindCount),
		Entities: make([]SynopsisSummaryJSON, 0, len(sums)),
	}
	for k, n := range st.ByKind {
		resp.ByKind[synopses.Kind(k).String()] = n
	}
	for _, es := range sums {
		resp.Entities = append(resp.Entities, SynopsisSummaryJSON{
			Entity: es.Entity, Raw: es.Raw, Critical: es.Critical,
			Ratio: es.Ratio(), LastTS: es.LastTS,
		})
	}
	resp.Count = len(resp.Entities)
	writeJSON(w, http.StatusOK, resp)
}
