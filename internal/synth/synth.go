// Package synth generates the synthetic surveillance worlds that stand in
// for the proprietary AIS and ADS-B feeds used by the datAcron project (see
// DESIGN.md §2 for the substitution rationale). Both generators are fully
// deterministic for a given seed and produce three aligned artefacts:
//
//   - noise-free ground-truth trajectories (what the entity actually did),
//   - an observed wire stream (AIS AIVDM sentences / SBS-1 lines) with GPS
//     noise, outliers, reporting gaps and quantisation, and
//   - a scripted ground-truth event log (rendezvous, loitering, area entry,
//     holding-pattern hotspots) against which analytics are scored.
package synth

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// Scenario is the output of a generator run.
type Scenario struct {
	Domain   model.Domain
	Entities []model.Entity
	// Truth maps entity id to its noise-free trajectory sampled at the
	// reporting interval.
	Truth map[string]*model.Trajectory
	// Positions is the observed (noisy) position stream in time order.
	Positions []model.Position
	// WireLines is the encoded wire stream (AIVDM or SBS-1) in time order,
	// aligned 1:1 with position reports plus any static messages.
	WireLines []string
	// WireTimed pairs each wire line with its receiver timestamp, since AIS
	// payloads only carry the UTC second-of-minute.
	WireTimed []TimedLine
	// Events is the scripted ground-truth event log.
	Events []model.Event
	// Areas holds the named areas of interest (ports, zones, sectors).
	Areas map[string]*geo.Polygon
	// Box is the world bounding box.
	Box geo.BBox
}

// EventsOfType returns the ground-truth events with the given type.
func (s *Scenario) EventsOfType(typ string) []model.Event {
	var out []model.Event
	for _, e := range s.Events {
		if e.Type == typ {
			out = append(out, e)
		}
	}
	return out
}

// rng wraps math/rand with the distributions the generators need.
type rng struct{ *rand.Rand }

func newRNG(seed int64) rng { return rng{rand.New(rand.NewSource(seed))} }

// between returns a uniform value in [lo, hi).
func (r rng) between(lo, hi float64) float64 { return lo + r.Float64()*(hi-lo) }

// gauss returns a normal value with the given mean and standard deviation.
func (r rng) gauss(mean, sigma float64) float64 { return mean + r.NormFloat64()*sigma }

// jitterPoint displaces p by a 2D Gaussian with the given sigma in metres.
func (r rng) jitterPoint(p geo.Point, sigmaM float64) geo.Point {
	if sigmaM <= 0 {
		return p
	}
	brg := r.between(0, 360)
	dist := math.Abs(r.NormFloat64()) * sigmaM
	out := geo.Destination(p, brg, dist)
	out.Alt = p.Alt
	return out
}

// pick returns a random element of xs.
func pick[T any](r rng, xs []T) T { return xs[r.Intn(len(xs))] }

// defaultStart is the deterministic epoch used when a config leaves Start
// zero: the date of the EDBT/ICDT 2017 workshop.
var defaultStart = time.Date(2017, 3, 21, 6, 0, 0, 0, time.UTC)

// areaEntryEvents scans a ground-truth trajectory against named areas and
// emits an areaEntry event for every contiguous run of samples inside an
// area.
func areaEntryEvents(tr *model.Trajectory, areas map[string]*geo.Polygon, skip func(name string) bool) []model.Event {
	var out []model.Event
	for name, poly := range areas {
		if skip != nil && skip(name) {
			continue
		}
		inside := false
		var start int64
		var where geo.Point
		for _, p := range tr.Points {
			now := poly.Contains(p.Pt)
			switch {
			case now && !inside:
				inside = true
				start = p.TS
				where = p.Pt
			case !now && inside:
				inside = false
				out = append(out, model.Event{
					Type: "areaEntry", Entity: tr.EntityID, Area: name,
					StartTS: start, EndTS: p.TS, Where: where,
				})
			}
		}
		if inside {
			out = append(out, model.Event{
				Type: "areaEntry", Entity: tr.EntityID, Area: name,
				StartTS: start, EndTS: tr.End(), Where: where,
			})
		}
	}
	return out
}

// mmsiFor returns a deterministic Greek-flag MMSI for vessel index i.
func mmsiFor(i int) uint32 { return uint32(237000000 + i + 1) }

// mmsiString renders an MMSI the way the pipeline uses it as an entity id.
func mmsiString(m uint32) string { return fmt.Sprintf("%09d", m) }

// icaoFor returns a deterministic ICAO24 hex address for flight index i.
func icaoFor(i int) string { return fmt.Sprintf("%06X", 0x468000+i) }
