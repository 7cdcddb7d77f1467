package server

import (
	"encoding/json"
	"errors"
	"net/http"
	"sort"
	"time"

	"github.com/datacron-project/datacron/internal/core"
)

// ForecastJSON is the wire shape of one forecast (GET /forecast, the items
// of GET /forecast/batch, and the SSE "forecast" event class).
type ForecastJSON struct {
	Entity     string  `json:"entity"`
	TS         int64   `json:"ts"`
	Method     string  `json:"method"`
	Lon        float64 `json:"lon"`
	Lat        float64 `json:"lat"`
	Alt        float64 `json:"alt,omitempty"`
	RadiusM    float64 `json:"radiusM"`
	HistoryLen int     `json:"historyLen"`
	LastTS     int64   `json:"lastTS"`
	EventProb  float64 `json:"eventProb"`
}

func toForecastJSON(f core.ForecastResult) ForecastJSON {
	return ForecastJSON{
		Entity: f.Entity, TS: f.TS, Method: f.Method,
		Lon: f.Pt.Lon, Lat: f.Pt.Lat, Alt: f.Pt.Alt,
		RadiusM: f.RadiusM, HistoryLen: f.HistoryLen, LastTS: f.LastTS,
		EventProb: f.EventProb,
	}
}

// ErrorResponse is the {"error": ...} body of every JSON error answer, from
// the forecast and synopses endpoints here and from a cluster coordinator.
type ErrorResponse struct {
	Error string `json:"error"`
}

// parseHorizon reads ?horizon= as a Go duration ("10m") or a bare number of
// seconds; def when absent.
func parseHorizon(raw string, def time.Duration) (time.Duration, error) {
	if raw == "" {
		return def, nil
	}
	if d, err := time.ParseDuration(raw); err == nil {
		return d, nil
	}
	var secs float64
	if err := json.Unmarshal([]byte(raw), &secs); err == nil {
		return time.Duration(secs * float64(time.Second)), nil
	}
	return 0, errors.New("horizon must be a duration (e.g. 10m) or seconds")
}

// forecastStatus maps a hub error to an HTTP status.
func forecastStatus(err error) int {
	switch {
	case errors.Is(err, core.ErrNoHistory):
		return http.StatusNotFound
	case errors.Is(err, core.ErrHorizon):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}

// hubOr503 returns the pipeline's forecast hub, or writes 503 when the
// daemon runs with forecasting disabled.
func (s *Server) hubOr503(w http.ResponseWriter) *core.ForecastHub {
	fh := s.p.ForecastHub
	if fh == nil {
		writeJSON(w, http.StatusServiceUnavailable,
			ErrorResponse{Error: "forecasting disabled (run datacron-serve with -forecast)"})
	}
	return fh
}

// handleForecast is GET /forecast?entity=&horizon=: the predicted future
// location of one entity (point + uncertainty radius, method-tagged per the
// fallback ladder dead-reckoning → kinematic → route/KNN). Horizon defaults
// to 10m and is capped at 1h (400 beyond it); an unknown entity is 404.
func (s *Server) handleForecast(w http.ResponseWriter, r *http.Request) {
	fh := s.hubOr503(w)
	if fh == nil {
		return
	}
	entity := r.URL.Query().Get("entity")
	if entity == "" {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: "missing ?entity="})
		return
	}
	horizon, err := parseHorizon(r.URL.Query().Get("horizon"), 10*time.Minute)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	res, err := fh.Forecast(entity, horizon)
	if err != nil {
		writeJSON(w, forecastStatus(err), ErrorResponse{Error: err.Error()})
		return
	}
	writeJSON(w, http.StatusOK, toForecastJSON(res))
}

// ForecastBatchResponse is the GET /forecast/batch body, from a node and
// from a cluster coordinator alike (QueryResponse has the Partial contract).
type ForecastBatchResponse struct {
	HorizonMS int64          `json:"horizonMs"`
	Count     int            `json:"count"`
	Forecasts []ForecastJSON `json:"forecasts"`
	Partial   bool           `json:"partial,omitempty"`
}

// handleForecastBatch is GET /forecast/batch?horizon=: forecasts for every
// live entity (last report within the hub's staleness window), sorted by
// entity id — the feed for hotspot-style consumers that want the predicted
// traffic picture rather than one vessel.
func (s *Server) handleForecastBatch(w http.ResponseWriter, r *http.Request) {
	fh := s.hubOr503(w)
	if fh == nil {
		return
	}
	horizon, err := parseHorizon(r.URL.Query().Get("horizon"), 10*time.Minute)
	if err != nil {
		writeJSON(w, http.StatusBadRequest, ErrorResponse{Error: err.Error()})
		return
	}
	all, err := fh.ForecastAll(horizon)
	if err != nil {
		writeJSON(w, forecastStatus(err), ErrorResponse{Error: err.Error()})
		return
	}
	sort.Slice(all, func(i, j int) bool { return all[i].Entity < all[j].Entity })
	resp := ForecastBatchResponse{HorizonMS: horizon.Milliseconds(), Count: len(all), Forecasts: make([]ForecastJSON, 0, len(all))}
	for _, f := range all {
		resp.Forecasts = append(resp.Forecasts, toForecastJSON(f))
	}
	writeJSON(w, http.StatusOK, resp)
}

// forecastSSEHorizon is how far ahead the SSE "forecast" frames look.
const forecastSSEHorizon = 10 * time.Minute

// runForecastTicker publishes a batch forecast as SSE "forecast" frames
// every interval until the server closes — CER events and forecasts share
// one /events stream, so a dashboard subscribes once for both the present
// and the predicted picture. Errors (e.g. no entities yet) skip the tick.
func (s *Server) runForecastTicker(interval time.Duration) {
	defer s.tickerWG.Done()
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-s.stopTicker:
			return
		case <-t.C:
			if s.hub.subscribers() == 0 {
				continue // nobody listening: skip the whole batch compute
			}
			all, err := s.p.ForecastHub.ForecastAll(forecastSSEHorizon)
			if err != nil {
				continue
			}
			for _, f := range all {
				data, err := json.Marshal(toForecastJSON(f))
				if err != nil {
					continue
				}
				s.forecastPublished.Add(1) // before the frame, as for synopses
				s.hub.publish(frame{event: "forecast", data: data})
			}
		}
	}
}
