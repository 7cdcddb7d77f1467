package server

import (
	"fmt"
	"net/http"
	"time"

	"github.com/datacron-project/datacron/internal/model"
)

// eventJSON is the SSE wire shape of one recognised complex event.
type eventJSON struct {
	Type     string  `json:"type"`
	Entity   string  `json:"entity"`
	Other    string  `json:"other,omitempty"`
	StartTS  int64   `json:"startTS"`
	EndTS    int64   `json:"endTS"`
	Lon      float64 `json:"lon"`
	Lat      float64 `json:"lat"`
	Area     string  `json:"area,omitempty"`
	DetectTS int64   `json:"detectTS"`
}

func toEventJSON(ev model.Event) eventJSON {
	return eventJSON{
		Type: ev.Type, Entity: ev.Entity, Other: ev.Other,
		StartTS: ev.StartTS, EndTS: ev.EndTS,
		Lon: ev.Where.Lon, Lat: ev.Where.Lat,
		Area: ev.Area, DetectTS: ev.DetectTS,
	}
}

// handleEvents streams the hub's SSE frames: one "event: <type>" +
// "data: <json>" frame per recognised complex event (class = CER type),
// per critical point (class "synopsis") or per published forecast (class
// "forecast"), with periodic comment
// heartbeats so intermediaries keep the connection alive. The stream ends
// when the client disconnects or the server closes.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("Connection", "keep-alive")
	w.WriteHeader(http.StatusOK)
	fmt.Fprint(w, ": datacron event stream\n\n")
	flusher.Flush()

	ch, cancel := s.hub.subscribe()
	defer cancel()
	heartbeat := time.NewTicker(15 * time.Second)
	defer heartbeat.Stop()
	for {
		select {
		case <-r.Context().Done():
			return
		case <-heartbeat.C:
			fmt.Fprint(w, ": ping\n\n")
			flusher.Flush()
		case f, ok := <-ch:
			if !ok {
				return // hub closed (server shutting down)
			}
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", f.event, f.data)
			flusher.Flush()
		}
	}
}
