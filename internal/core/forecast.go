package core

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datacron-project/datacron/internal/forecast"
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// ForecastConfig parameterises the online forecasting subsystem. The zero
// value is disabled; set Enabled and leave the rest zero for serving
// defaults.
type ForecastConfig struct {
	// Enabled switches the subsystem on: the pipeline then feeds every
	// gated report into the ForecastHub.
	Enabled bool
	// HistoryLen is how many of an entity's newest reports the predictors
	// read (default 32) — what dead-reckoning/kinematic prediction
	// extrapolates. They are the tail of the entity's KNN trajectory, not a
	// second copy.
	HistoryLen int
	// KNNMaxPerEntity bounds each entity's stream-fed KNN trajectory
	// (default 4096 points; exceeding it drops the oldest half). It is
	// raised to 2 × HistoryLen, so a halving keeps the full history.
	KNNMaxPerEntity int
	// MaxStale is how long after its last report an entity still counts as
	// live for ForecastAll (default 30 minutes).
	MaxStale time.Duration

	// Model-selection ladder (see ChooseMethod). Zero values default to
	// Kinematic: 3, Route: 8, KNN: 16.
	KinematicMinHistory int
	RouteMinHistory     int
	KNNMinHistory       int
}

// The shared route-network and KNN index cover the world box with a
// forecastGrid × forecastGrid grid, and forecasts reach at most maxHorizon
// ahead: longer requests are rejected, not clamped, so clients never
// mistake a truncated forecast for the one they asked for.
const (
	forecastGrid = 96
	maxHorizon   = time.Hour
)

func (c ForecastConfig) withDefaults() ForecastConfig {
	if c.HistoryLen <= 1 {
		c.HistoryLen = 32
	}
	if c.KNNMaxPerEntity <= 0 {
		c.KNNMaxPerEntity = 4096
	}
	c.KNNMaxPerEntity = max(c.KNNMaxPerEntity, 2*c.HistoryLen)
	if c.MaxStale <= 0 {
		c.MaxStale = 30 * time.Minute
	}
	if c.KinematicMinHistory <= 0 {
		c.KinematicMinHistory = 3
	}
	if c.RouteMinHistory <= 0 {
		c.RouteMinHistory = 8
	}
	if c.KNNMinHistory <= 0 {
		c.KNNMinHistory = 16
	}
	return c
}

// Forecast methods, in fallback order.
const (
	MethodDeadReckoning = "dead-reckoning"
	MethodKinematic     = "kinematic"
	MethodRouteNetwork  = "route-network"
	MethodHistoryKNN    = "knn-history"
)

// ForecastResult is one online forecast: the predicted future location of
// an entity with an uncertainty radius and the model that produced it.
type ForecastResult struct {
	Entity string `json:"entity"`
	// TS is the forecast target instant (last report + horizon), unix ms.
	TS int64 `json:"ts"`
	// Method tags the model chosen by the fallback ladder.
	Method string    `json:"method"`
	Pt     geo.Point `json:"pt"`
	// RadiusM is the uncertainty radius in metres: a base GPS term plus a
	// horizon-proportional growth term plus the divergence between the
	// chosen model and dead reckoning (model disagreement is the cheapest
	// honest signal that the future is genuinely uncertain).
	RadiusM float64 `json:"radiusM"`
	// HistoryLen and LastTS describe the evidence the forecast used.
	HistoryLen int   `json:"historyLen"`
	LastTS     int64 `json:"lastTS"`
	// EventProb is the probability that the "sustained slow movement"
	// pattern (the loitering precursor, package forecast's Markov × pattern
	// automaton) completes within the event horizon.
	EventProb float64 `json:"eventProb"`
}

// entityTrack is one entity's Markov bookkeeping. Its history is the tail
// of its stream-fed KNN trajectory (HistoryKNN.Recent): both are fed the
// same reports and evicted together, so one copy serves both.
type entityTrack struct {
	prevSym int // previous speed symbol, -1 before first report
	runLen  int // current matching-symbol run length
}

// ForecastHub is the online forecasting subsystem: it taps the ingest
// workers' gated report stream to keep warm per-entity kinematic history
// and incrementally trains the shared models (route network, history KNN,
// Markov chain) that the paper's archival-data-helps-live-forecasting
// premise relies on. All methods are safe for concurrent use; Observe is
// called from ingest workers while Forecast/ForecastAll serve HTTP reads.
//
// Snapshot discipline: Observe only runs inside a worker's per-line
// critical section (or the serial ingest path), so the Ingestor barrier
// that WriteSnapshot takes quiesces the hub too — exported state is always
// a consistent cut, and Recover + WAL tail replay rebuilds the hub exactly.
type ForecastHub struct {
	cfg ForecastConfig
	box geo.BBox

	mu     sync.RWMutex
	tracks map[string]*entityTrack
	route  *forecast.RouteNetwork
	knn    *forecast.HistoryKNN
	chain  *forecast.MarkovChain
	pf     *forecast.PatternForecaster
	symFn  forecast.SymbolFn

	// newestTS is the freshest report timestamp seen (stream time, so
	// replayed feeds behave like live ones); sinceEvict counts observes
	// since the last stale-entity sweep.
	newestTS   int64
	sinceEvict int

	observed atomic.Int64
}

// eventPatternK is the run length (in reports) of the slow-movement
// pattern the hub forecasts, and eventHorizon the lookahead in reports —
// 5 minutes of 10s-cadence reports and a 2-minute lookahead.
const (
	eventPatternK = 30
	eventHorizon  = 12
	slowSpeedMS   = 1.0
)

// NewForecastHub builds a hub over the world box.
func NewForecastHub(box geo.BBox, cfg ForecastConfig) *ForecastHub {
	cfg = cfg.withDefaults()
	symFn, n := forecast.SpeedSymbols(slowSpeedMS)
	chain := forecast.NewMarkovChain(n)
	h := &ForecastHub{
		cfg:    cfg,
		box:    box,
		tracks: make(map[string]*entityTrack),
		route:  forecast.NewRouteNetwork(box, forecastGrid, forecastGrid),
		knn:    forecast.NewHistoryKNN(box, forecastGrid, forecastGrid),
		chain:  chain,
		symFn:  symFn,
		pf: &forecast.PatternForecaster{
			K:     eventPatternK,
			Match: func(s int) bool { return s == 0 },
			Chain: chain,
		},
	}
	return h
}

// Config returns the hub's effective (defaulted) configuration.
func (h *ForecastHub) Config() ForecastConfig { return h.cfg }

// Observe feeds one gated report into the hub: the route network, the KNN
// trajectory store (and with it the entity's history) and the Markov chain
// all advance by one report.
func (h *ForecastHub) Observe(p model.Position) {
	h.mu.Lock()
	defer h.mu.Unlock()
	t := h.tracks[p.EntityID]
	if t == nil {
		t = &entityTrack{prevSym: -1}
		h.tracks[p.EntityID] = t
	}
	h.route.Observe(p)
	h.knn.Observe(p, h.cfg.KNNMaxPerEntity)

	sym := h.symFn(p)
	if t.prevSym >= 0 {
		h.chain.ObserveTransition(t.prevSym, sym)
	}
	t.prevSym = sym
	if h.pf.Match(sym) {
		t.runLen++
	} else {
		t.runLen = 0
	}
	if p.TS > h.newestTS {
		h.newestTS = p.TS
	}
	h.sinceEvict++
	if h.sinceEvict >= evictCheckEvery {
		h.sinceEvict = 0
		h.evictStale()
	}
	h.observed.Add(1)
}

// evictCheckEvery is how many observes separate stale-entity sweeps, and
// evictAfterStale how many staleness windows an entity may sit silent
// before its warm state (Markov run, stream-fed KNN trajectory and with it
// the history) is dropped — without this, entity churn on an unbounded feed
// grows the hub and its snapshots forever. Learned route-network cells are
// kept: lanes outlive the vessels that taught them.
const (
	evictCheckEvery = 8192
	evictAfterStale = 4
)

// evictStale drops entities whose last report is older than
// evictAfterStale staleness windows (stream time). Caller holds h.mu.
func (h *ForecastHub) evictStale() {
	floor := h.newestTS - evictAfterStale*h.cfg.MaxStale.Milliseconds()
	var stale []string
	for id := range h.tracks {
		if last, ok := h.knn.Last(id); !ok || last.TS < floor {
			stale = append(stale, id)
		}
	}
	if len(stale) == 0 {
		return
	}
	for _, id := range stale {
		delete(h.tracks, id)
	}
	h.knn.DropEntities(stale)
}

// ChooseMethod is the model-selection policy: the fallback ladder
// dead-reckoning → kinematic → route-network → knn-history, climbed by
// history length and model readiness. A model is only chosen when the
// entity has enough history for it AND the shared model has learned
// anything (mirroring TestKinematicFallsBackOnShortHistory: a model that
// cannot improve on its fallback should not be asked).
func (h *ForecastHub) ChooseMethod(histLen int, routeTrainedCells, knnIndexedPoints int) string {
	switch {
	case histLen >= h.cfg.KNNMinHistory && knnIndexedPoints > 0:
		return MethodHistoryKNN
	case histLen >= h.cfg.RouteMinHistory && routeTrainedCells > 0:
		return MethodRouteNetwork
	case histLen >= h.cfg.KinematicMinHistory:
		return MethodKinematic
	default:
		return MethodDeadReckoning
	}
}

// predict runs one method over the history. The shared models use their
// strict variants (ok=false instead of a silent internal dead-reckoning
// fallback), so a method-tagged result always reflects that model's own
// knowledge and the ladder visibly falls through otherwise.
func (h *ForecastHub) predict(method string, hist []model.Position, ts int64) (geo.Point, bool) {
	switch method {
	case MethodHistoryKNN:
		return h.knn.PredictModel(hist, ts)
	case MethodRouteNetwork:
		return h.route.PredictModel(hist, ts)
	case MethodKinematic:
		return forecast.Kinematic{}.Predict(hist, ts)
	default:
		return forecast.DeadReckoning{}.Predict(hist, ts)
	}
}

// ErrNoHistory reports a forecast request for an entity the hub has never
// seen (or whose reports were all gated away).
var ErrNoHistory = fmt.Errorf("core: forecast: no history for entity")

// ErrHorizon reports a horizon outside (0, maxHorizon].
var ErrHorizon = fmt.Errorf("core: forecast: horizon out of range")

// Forecast predicts entity's location horizon after its last report. The
// model is chosen by ChooseMethod; a chosen model that declines (ok=false)
// falls down the ladder, so the result is always method-tagged with the
// model that actually produced it.
func (h *ForecastHub) Forecast(entity string, horizon time.Duration) (ForecastResult, error) {
	if horizon <= 0 || horizon > maxHorizon {
		return ForecastResult{}, fmt.Errorf("%w: %v (max %v)", ErrHorizon, horizon, maxHorizon)
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	t := h.tracks[entity]
	var hist []model.Position
	if t != nil {
		hist = h.knn.Recent(entity, h.cfg.HistoryLen, make([]model.Position, 0, h.cfg.HistoryLen))
	}
	if len(hist) == 0 {
		return ForecastResult{}, fmt.Errorf("%w: %q", ErrNoHistory, entity)
	}
	return h.forecastLocked(entity, t, hist, horizon), nil
}

// forecastLocked computes one forecast from the entity's non-empty history
// under at least a read lock.
func (h *ForecastHub) forecastLocked(entity string, t *entityTrack, hist []model.Position, horizon time.Duration) ForecastResult {
	last := hist[len(hist)-1]
	target := last.TS + horizon.Milliseconds()

	method := h.ChooseMethod(len(hist), h.route.TrainedCells(), h.knn.IndexedPoints())
	ladder := []string{method}
	switch method {
	case MethodHistoryKNN:
		ladder = append(ladder, MethodRouteNetwork, MethodKinematic, MethodDeadReckoning)
	case MethodRouteNetwork:
		ladder = append(ladder, MethodKinematic, MethodDeadReckoning)
	case MethodKinematic:
		ladder = append(ladder, MethodDeadReckoning)
	}
	var pt geo.Point
	var ok bool
	for _, m := range ladder {
		if pt, ok = h.predict(m, hist, target); ok {
			method = m
			break
		}
	}
	if !ok {
		// Unreachable with non-empty history and positive horizon, but be
		// defensive: report the last known position at the base uncertainty.
		pt, method = last.Pt, MethodDeadReckoning
	}

	// Uncertainty: base GPS error + 5% of the distance the entity would
	// cover at its current speed + disagreement with dead reckoning.
	hSec := horizon.Seconds()
	radius := 50 + 0.05*last.SpeedMS*hSec
	if method != MethodDeadReckoning {
		if dr, drOK := (forecast.DeadReckoning{}).Predict(hist, target); drOK {
			radius += geo.Haversine(pt, dr)
		}
	}

	sym := t.prevSym
	prob := 0.0
	if sym >= 0 {
		prob = h.pf.CompletionProb(sym, t.runLen, eventHorizon)
	}
	return ForecastResult{
		Entity: entity, TS: target, Method: method, Pt: pt, RadiusM: radius,
		HistoryLen: len(hist), LastTS: last.TS, EventProb: prob,
	}
}

// ForecastAll forecasts every live entity (last report within MaxStale of
// the freshest report anywhere) at the given horizon — the batch feed for
// hotspot-style consumers. Results are unordered.
func (h *ForecastHub) ForecastAll(horizon time.Duration) ([]ForecastResult, error) {
	if horizon <= 0 || horizon > maxHorizon {
		return nil, fmt.Errorf("%w: %v (max %v)", ErrHorizon, horizon, maxHorizon)
	}
	h.mu.RLock()
	defer h.mu.RUnlock()
	// Stream time, not wall time: the daemon replays historical feeds too.
	// The freshest report is always a held entity's: a sweep never finds it
	// stale.
	floor := h.newestTS - h.cfg.MaxStale.Milliseconds()
	out := make([]ForecastResult, 0, len(h.tracks))
	hist := make([]model.Position, 0, h.cfg.HistoryLen)
	for id, t := range h.tracks {
		if last, ok := h.knn.Last(id); !ok || last.TS < floor {
			continue
		}
		hist = h.knn.Recent(id, h.cfg.HistoryLen, hist[:0])
		out = append(out, h.forecastLocked(id, t, hist, horizon))
	}
	return out, nil
}

// Entities returns how many entities have warm history.
func (h *ForecastHub) Entities() int {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return len(h.tracks)
}

// Observed returns how many reports the hub has consumed.
func (h *ForecastHub) Observed() int64 { return h.observed.Load() }

// ModelStats reports the shared models' learned volume (for /metrics).
func (h *ForecastHub) ModelStats() (routeTrainedCells, knnIndexedPoints int) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	return h.route.TrainedCells(), h.knn.IndexedPoints()
}

// forecastHubState is the hub's serialisable form for pipeline snapshots.
type forecastHubState struct {
	Tracks   map[string]entityTrackState `json:"tracks"`
	Route    forecast.RouteNetworkState  `json:"route"`
	KNN      forecast.HistoryKNNState    `json:"knn"`
	Markov   [][]float64                 `json:"markov"`
	Observed int64                       `json:"observed"`
}

// entityTrackState is one entity's serialised Markov bookkeeping; its
// history is the tail of its KNN trajectory, restored with the KNN state.
// A state.json that still carries a track "history" field decodes the same:
// encoding/json skips the unknown field.
type entityTrackState struct {
	PrevSym int `json:"prevSym"`
	RunLen  int `json:"runLen"`
}

// writeState writes the hub's forecastHubState as encoding/json encodes
// it, the KNN trajectories streamed one at a time. Callers hold the
// snapshot barrier; the hub lock still guards against concurrent HTTP reads.
func (h *ForecastHub) writeState(s *jsonStream) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	s.begin()
	s.field("tracks", h.trackStates())
	s.field("route", h.route.ExportState())
	s.key("knn")
	s.fail(h.knn.WriteState(s.w))
	s.field("markov", h.chain.ExportCounts())
	s.field("observed", h.observed.Load())
	s.end()
}

// trackStates captures every entity's warm state; the caller holds the hub
// lock.
func (h *ForecastHub) trackStates() map[string]entityTrackState {
	tracks := make(map[string]entityTrackState, len(h.tracks))
	for id, t := range h.tracks {
		tracks[id] = entityTrackState{PrevSym: t.prevSym, RunLen: t.runLen}
	}
	return tracks
}

// restoreState installs st (recovery path, before serving starts). State
// that does not unpack is an error and leaves the hub as it was. An
// entity's history is the tail of its restored KNN trajectory; a track
// without one has no history and is dropped.
func (h *ForecastHub) restoreState(st forecastHubState) error {
	h.mu.Lock()
	defer h.mu.Unlock()
	if err := h.knn.RestoreState(st.KNN); err != nil {
		return err
	}
	tracks := make(map[string]*entityTrack, len(st.Tracks))
	var newest int64
	for id, ts := range st.Tracks {
		last, ok := h.knn.Last(id)
		if !ok {
			continue
		}
		tracks[id] = &entityTrack{prevSym: ts.PrevSym, runLen: ts.RunLen}
		newest = max(newest, last.TS)
	}
	h.tracks, h.newestTS, h.sinceEvict = tracks, newest, 0
	h.route.RestoreState(st.Route)
	h.chain.RestoreCounts(st.Markov)
	h.observed.Store(st.Observed)
	return nil
}
