package cer

import (
	"sort"
	"strings"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// Condition library: the primitive predicates patterns are built from.

// SpeedBelow holds when speed over ground is below v m/s.
func SpeedBelow(v float64) Cond {
	return func(p model.Position) bool { return p.SpeedMS < v }
}

// SpeedAbove holds when speed over ground is above v m/s.
func SpeedAbove(v float64) Cond {
	return func(p model.Position) bool { return p.SpeedMS > v }
}

// InArea holds when the position lies inside the polygon.
func InArea(poly *geo.Polygon) Cond {
	return func(p model.Position) bool { return poly.Contains(p.Pt) }
}

// OutsideAreas holds when the position is inside none of the polygons;
// used to mask port zones where slow movement is normal.
func OutsideAreas(polys []*geo.Polygon) Cond {
	return func(p model.Position) bool {
		for _, poly := range polys {
			if poly.Contains(p.Pt) {
				return false
			}
		}
		return true
	}
}

// BelowAlt holds when altitude is below metres.
func BelowAlt(m float64) Cond {
	return func(p model.Position) bool { return p.Pt.Alt < m }
}

// And combines conditions conjunctively.
func And(cs ...Cond) Cond {
	return func(p model.Position) bool {
		for _, c := range cs {
			if !c(p) {
				return false
			}
		}
		return true
	}
}

// Not negates a condition.
func Not(c Cond) Cond {
	return func(p model.Position) bool { return !c(p) }
}

// Standard maritime patterns (MSA indicators; §3 of the paper).

// LoiteringPattern: sustained near-zero speed in open sea. portMasks are
// the port-approach polygons where lingering is normal.
func LoiteringPattern(portMasks []*geo.Polygon, minDur time.Duration) Pattern {
	return Pattern{
		Name: "loitering",
		Steps: []Step{{
			Name:        "drifting",
			Cond:        And(SpeedBelow(1.0), OutsideAreas(portMasks)),
			MinDuration: minDur,
		}},
		MaxGap: 5 * time.Minute,
	}
}

// RendezvousPattern: two vessels close together, both slow, for a sustained
// period. Runs over Pairer output (pseudo-positions keyed by pair).
func RendezvousPattern(minDur time.Duration) Pattern {
	return Pattern{
		Name: "rendezvous",
		Steps: []Step{{
			Name:        "close-and-slow",
			Cond:        SpeedBelow(1.5), // pair pseudo-speed = max of the two
			MinDuration: minDur,
		}},
		MaxGap: 5 * time.Minute,
	}
}

// AreaEntryPattern: transition from outside to inside a named area.
func AreaEntryPattern(name string, poly *geo.Polygon) Pattern {
	return Pattern{
		Name: "areaEntry:" + name,
		Steps: []Step{
			{Name: "outside", Cond: Not(InArea(poly))},
			{Name: "inside", Cond: InArea(poly)},
		},
		MaxGap: 10 * time.Minute,
	}
}

// GoFastPattern: a small craft surging to high speed (smuggling indicator).
func GoFastPattern() Pattern {
	return Pattern{
		Name: "goFast",
		Steps: []Step{
			{Name: "slow", Cond: SpeedBelow(geo.Knots(10))},
			{Name: "surge", Cond: SpeedAbove(geo.Knots(35)), MinDuration: 2 * time.Minute},
		},
		Window: 30 * time.Minute,
	}
}

// Aviation patterns.

// HoldingPattern: an aircraft staying level and slow near a terminal area —
// the primitive the E9 hotspot analytics aggregates.
func HoldingPattern(minDur time.Duration) Pattern {
	return Pattern{
		Name: "holding",
		Steps: []Step{{
			Name:        "orbiting",
			Cond:        And(SpeedAbove(geo.Knots(150)), SpeedBelow(geo.Knots(280))),
			MinDuration: minDur,
		}},
		MaxGap: 2 * time.Minute,
	}
}

// MaritimeSuiteConfig tunes the maritime detector thresholds; the zero
// value yields the operational defaults the pipeline and tests use.
type MaritimeSuiteConfig struct {
	// LoiterMinDur is the sustained-drift duration for loitering.
	// Default 20 minutes.
	LoiterMinDur time.Duration
	// RendezvousMinDur is the sustained-proximity duration. Default 10
	// minutes.
	RendezvousMinDur time.Duration
	// PairDistM is the vessel pairing distance. Default 1000 m.
	PairDistM float64
	// GapThreshold is the AIS silence that counts as a gap. Default 10
	// minutes.
	GapThreshold time.Duration
}

func (c MaritimeSuiteConfig) withDefaults() MaritimeSuiteConfig {
	if c.LoiterMinDur <= 0 {
		c.LoiterMinDur = 20 * time.Minute
	}
	if c.RendezvousMinDur <= 0 {
		c.RendezvousMinDur = 10 * time.Minute
	}
	if c.PairDistM <= 0 {
		c.PairDistM = 1000
	}
	if c.GapThreshold <= 0 {
		c.GapThreshold = 10 * time.Minute
	}
	return c
}

// MaritimeSuite bundles the standard maritime recognizers plus the pairing
// preprocessor and gap detector into one pass over a position stream.
type MaritimeSuite struct {
	Loitering  *Recognizer
	Rendezvous *Recognizer
	Entries    []*Recognizer
	Gap        *GapDetector
	Pairer     *Pairer
}

// NewMaritimeSuite builds the suite with default thresholds for a world:
// areas are the named areas of interest (area-entry patterns are created
// for non-port areas; port areas become loitering masks).
func NewMaritimeSuite(box geo.BBox, areas map[string]*geo.Polygon) *MaritimeSuite {
	return NewMaritimeSuiteConfig(box, areas, MaritimeSuiteConfig{})
}

// NewMaritimeSuiteConfig builds the suite with explicit thresholds.
func NewMaritimeSuiteConfig(box geo.BBox, areas map[string]*geo.Polygon, cfg MaritimeSuiteConfig) *MaritimeSuite {
	cfg = cfg.withDefaults()
	// In name order: a report entering two areas at once emits its two
	// events in the same order in every process.
	names := make([]string, 0, len(areas))
	for name := range areas {
		names = append(names, name)
	}
	sort.Strings(names)
	var portMasks []*geo.Polygon
	var entries []*Recognizer
	for _, name := range names {
		if strings.HasPrefix(name, "PORT-") {
			portMasks = append(portMasks, areas[name])
			continue
		}
		entries = append(entries, NewRecognizer(AreaEntryPattern(name, areas[name])))
	}
	return &MaritimeSuite{
		Loitering:  NewRecognizer(LoiteringPattern(portMasks, cfg.LoiterMinDur)),
		Rendezvous: NewRecognizer(RendezvousPattern(cfg.RendezvousMinDur)),
		Entries:    entries,
		Gap:        NewGapDetector(cfg.GapThreshold),
		Pairer:     NewPairer(box, cfg.PairDistM),
	}
}

// Process consumes one report and returns all detections, rewriting pair
// and area detections into the shared event shape.
func (s *MaritimeSuite) Process(p model.Position) []model.Event {
	var out []model.Event
	for _, d := range s.Loitering.Process(p.EntityID, p) {
		out = append(out, d.Event)
	}
	for _, rec := range s.Entries {
		for _, d := range rec.Process(p.EntityID, p) {
			ev := d.Event
			// "areaEntry:NAME" → type areaEntry, Area=NAME.
			if i := strings.IndexByte(ev.Type, ':'); i > 0 {
				ev.Area = ev.Type[i+1:]
				ev.Type = ev.Type[:i]
			}
			out = append(out, ev)
		}
	}
	for _, d := range s.Gap.Process(p) {
		out = append(out, d.Event)
	}
	for _, pe := range s.Pairer.Process(p) {
		for _, d := range s.Rendezvous.Process(pe.Key, pe.AsPosition()) {
			ev := d.Event
			ev.Entity, ev.Other = pe.A, pe.B
			out = append(out, ev)
		}
	}
	return out
}
