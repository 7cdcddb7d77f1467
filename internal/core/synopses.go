package core

import (
	"fmt"
	"sort"
	"sync"
	"time"

	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synopses"
)

// SynopsesConfig parameterises the online trajectory synopses subsystem.
// The zero value is disabled; set Enabled and leave the rest zero for
// serving-default bounds. The detection thresholds are the domain's
// (synopses.ForDomain).
type SynopsesConfig struct {
	// Enabled switches the subsystem on: the pipeline then feeds every
	// gated report into the SynopsisHub.
	Enabled bool
	// RingLen bounds each entity's synopsis ring (critical points, default
	// 512); exceeding it drops the oldest point (counted per entity).
	RingLen int
	// MaxStale is the staleness window for entity eviction: entities
	// silent for evictAfterStale windows lose their warm state (default
	// 30 minutes, matching the forecast hub so the two evict in step).
	MaxStale time.Duration
}

func (c SynopsesConfig) withDefaults() SynopsesConfig {
	if c.RingLen <= 0 {
		c.RingLen = 512
	}
	if c.MaxStale <= 0 {
		c.MaxStale = 30 * time.Minute
	}
	return c
}

// entitySynopsis is one entity's synopsis state: the detector plus the
// bounded ring of its most recent critical points.
type entitySynopsis struct {
	det     *synopses.Detector
	ring    []synopses.CriticalPoint // capacity cfg.RingLen, oldest first
	evicted int64                    // critical points dropped off the ring
}

// SynopsisHub is the online trajectory-synopses subsystem: it taps the
// ingest workers' gated report stream (exactly like ForecastHub — inside
// the worker's per-line critical section, so the PR-2 snapshot barrier
// quiesces it) and maintains per-entity critical point synopses with
// compression accounting. All methods are safe for concurrent use; ingest
// workers observe while Synopsis/Summaries/Stats serve HTTP reads. The hub
// queues nothing for consumers: the critical points a line emits go back
// to its worker, which hands them on with the batch's events.
//
// Snapshot discipline: detector state, rings and counters are exported
// under the snapshot barrier and restored by Recover, and the detector is
// deterministic in stream order — so a kill -9 + WAL tail replay rebuilds
// bit-identical synopses.
type SynopsisHub struct {
	cfg        SynopsesConfig
	thresholds synopses.Config

	mu       sync.RWMutex
	entities map[string]*entitySynopsis

	// Lifetime compression accounting (guarded by mu; exact under the
	// snapshot barrier, consistent-enough for /metrics reads).
	observed int64 // gated reports seen
	critical int64 // critical points emitted
	byKind   [synopses.KindCount]int64

	// newestTS is the freshest report timestamp (stream time); sinceEvict
	// counts observes since the last stale-entity sweep.
	newestTS   int64
	sinceEvict int
}

// NewSynopsisHub builds a hub for the given domain.
func NewSynopsisHub(domain model.Domain, cfg SynopsesConfig) *SynopsisHub {
	return &SynopsisHub{
		cfg:        cfg.withDefaults(),
		thresholds: synopses.ForDomain(domain),
		entities:   make(map[string]*entitySynopsis),
	}
}

// Observe feeds one gated report through the entity's detector and returns
// how many critical points it emitted (0 for the common cruising case).
func (h *SynopsisHub) Observe(p model.Position) int { return len(h.observe(p, nil)) }

// observe is Observe for the ingest path: it appends the emitted critical
// points to dst, the worker's scratch, so steady cruising — the common,
// zero-emission case — allocates nothing.
func (h *SynopsisHub) observe(p model.Position, dst []synopses.CriticalPoint) []synopses.CriticalPoint {
	h.mu.Lock()
	defer h.mu.Unlock()
	es := h.entities[p.EntityID]
	if es == nil {
		es = &entitySynopsis{det: synopses.NewDetector(h.thresholds)}
		h.entities[p.EntityID] = es
	}
	n := len(dst)
	dst = es.det.Observe(p, dst)
	h.observed++
	for _, cp := range dst[n:] {
		h.critical++
		h.byKind[cp.Kind]++
		if len(es.ring) == h.cfg.RingLen {
			copy(es.ring, es.ring[1:])
			es.ring = es.ring[:h.cfg.RingLen-1]
			es.evicted++
		}
		es.ring = append(es.ring, cp)
	}
	if p.TS > h.newestTS {
		h.newestTS = p.TS
	}
	h.sinceEvict++
	if h.sinceEvict >= evictCheckEvery {
		h.sinceEvict = 0
		h.evictStale()
	}
	return dst
}

// evictStale drops entities whose last report is older than evictAfterStale
// staleness windows (stream time), bounding hub and snapshot growth under
// entity churn. Caller holds h.mu.
func (h *SynopsisHub) evictStale() {
	floor := h.newestTS - evictAfterStale*h.cfg.MaxStale.Milliseconds()
	for id, es := range h.entities {
		if st := es.det.State(); !st.HasLast || st.Last.TS < floor {
			delete(h.entities, id)
		}
	}
}

// ErrNoSynopsis reports a synopsis request for an entity the hub has never
// seen (or whose reports were all gated away).
var ErrNoSynopsis = fmt.Errorf("core: synopses: no synopsis for entity")

// EntitySynopsis is one entity's synopsis as served by GET /synopses/{id}.
type EntitySynopsis struct {
	Entity string
	// Raw counts the gated reports observed; Critical the lifetime
	// critical points (ring + evicted overflow).
	Raw, Critical int64
	// Evicted counts points dropped off the bounded ring.
	Evicted int64
	// LastTS is the entity's freshest observed report timestamp.
	LastTS int64
	// Points is the ring, oldest first (a copy; safe to retain).
	Points []synopses.CriticalPoint
}

// Ratio returns the per-entity compression ratio raw : critical. With no
// critical points yet, every raw report has been compressed away, so the
// ratio is the raw count itself (raw : 1), not 0 — a low reading must mean
// weak compression, never perfect compression.
func (s EntitySynopsis) Ratio() float64 {
	if s.Critical == 0 {
		return float64(s.Raw)
	}
	return float64(s.Raw) / float64(s.Critical)
}

// Synopsis returns one entity's synopsis.
func (h *SynopsisHub) Synopsis(entity string) (EntitySynopsis, error) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	es := h.entities[entity]
	if es == nil {
		return EntitySynopsis{}, fmt.Errorf("%w: %q", ErrNoSynopsis, entity)
	}
	return h.exportEntityLocked(entity, es), nil
}

// exportEntityLocked copies one entity's synopsis under at least a read
// lock.
func (h *SynopsisHub) exportEntityLocked(id string, es *entitySynopsis) EntitySynopsis {
	st := es.det.State()
	return EntitySynopsis{
		Entity:   id,
		Raw:      st.Raw,
		Critical: int64(len(es.ring)) + es.evicted,
		Evicted:  es.evicted,
		LastTS:   st.Last.TS,
		Points:   append([]synopses.CriticalPoint(nil), es.ring...),
	}
}

// Summaries returns every entity's synopsis without the point payload
// (Points nil), sorted by entity id — the /synopses/batch feed.
func (h *SynopsisHub) Summaries() []EntitySynopsis {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]EntitySynopsis, 0, len(h.entities))
	for id, es := range h.entities {
		s := h.exportEntityLocked(id, es)
		s.Points = nil
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Entity < out[j].Entity })
	return out
}

// SynopsisStats is the hub-wide compression accounting for /metrics and
// experiment reports.
type SynopsisStats struct {
	Observed int64
	Critical int64
	ByKind   [synopses.KindCount]int64
	Entities int
}

// Ratio returns the lifetime compression ratio raw : critical. With no
// critical points yet it is observed : 1 (see EntitySynopsis.Ratio): the
// gauge must read low only when compression is weak.
func (s SynopsisStats) Ratio() float64 {
	if s.Critical == 0 {
		return float64(s.Observed)
	}
	return float64(s.Observed) / float64(s.Critical)
}

// Stats returns the hub-wide compression accounting.
func (h *SynopsisHub) Stats() SynopsisStats {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return SynopsisStats{
		Observed: h.observed,
		Critical: h.critical,
		ByKind:   h.byKind,
		Entities: len(h.entities),
	}
}

// Entities returns how many entities have synopsis state.
func (h *SynopsisHub) Entities() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.entities)
}

// Observed returns how many gated reports the hub has consumed.
func (h *SynopsisHub) Observed() int64 {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.observed
}

// synopsisHubState is the hub's serialisable form for pipeline snapshots.
type synopsisHubState struct {
	Entities map[string]entitySynopsisState `json:"entities"`
	Observed int64                          `json:"observed"`
	Critical int64                          `json:"critical"`
	ByKind   []int64                        `json:"byKind"`
}

// entitySynopsisState is one entity's serialised synopsis.
type entitySynopsisState struct {
	Detector synopses.DetectorState   `json:"detector"`
	Ring     []synopses.CriticalPoint `json:"ring"`
	Evicted  int64                    `json:"evicted"`
}

// exportState captures the hub under the snapshot barrier (callers hold the
// barrier; the hub lock still guards against concurrent HTTP reads).
func (h *SynopsisHub) exportState() synopsisHubState {
	h.mu.RLock()
	defer h.mu.RUnlock()
	st := synopsisHubState{
		Entities: make(map[string]entitySynopsisState, len(h.entities)),
		Observed: h.observed,
		Critical: h.critical,
		ByKind:   append([]int64(nil), h.byKind[:]...),
	}
	for id, es := range h.entities {
		st.Entities[id] = entitySynopsisState{
			Detector: es.det.State(),
			Ring:     append([]synopses.CriticalPoint(nil), es.ring...),
			Evicted:  es.evicted,
		}
	}
	return st
}

// restoreState installs st (recovery path, before serving starts).
func (h *SynopsisHub) restoreState(st synopsisHubState) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.entities = make(map[string]*entitySynopsis, len(st.Entities))
	h.newestTS, h.sinceEvict = 0, 0
	for id, es := range st.Entities {
		det := synopses.NewDetector(h.thresholds)
		det.Restore(es.Detector)
		ring := es.Ring
		if len(ring) > h.cfg.RingLen {
			ring = ring[len(ring)-h.cfg.RingLen:]
		}
		// Rings grow on demand like the live path's (no RingLen
		// preallocation: a large fleet of mostly-cruising entities would
		// otherwise inflate post-recovery memory far beyond the pre-crash
		// process).
		h.entities[id] = &entitySynopsis{
			det:     det,
			ring:    append([]synopses.CriticalPoint(nil), ring...),
			evicted: es.Evicted,
		}
		if ts := es.Detector.Last.TS; es.Detector.HasLast && ts > h.newestTS {
			h.newestTS = ts
		}
	}
	h.observed, h.critical = st.Observed, st.Critical
	h.byKind = [synopses.KindCount]int64{}
	copy(h.byKind[:], st.ByKind)
}
