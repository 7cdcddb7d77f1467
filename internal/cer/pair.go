package cer

import (
	"sort"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// PairEvent is a joint observation of two entities that are spatially close
// at (approximately) the same time, produced by the Pairer. Two-entity
// patterns (rendezvous, potential collision) run over pair events keyed by
// the sorted entity pair.
type PairEvent struct {
	Key      string // "A|B" with A < B
	A, B     string
	TS       int64
	DistM    float64
	MaxSpeed float64 // the faster of the two current speeds
	Mid      geo.Point
}

// Pairer finds proximate entity pairs in a position stream using a spatial
// grid of each entity's latest report. One Pairer serves one stream; it is
// not safe for concurrent use.
type Pairer struct {
	// MaxDistM pairs entities closer than this. Default 500 m.
	MaxDistM float64
	// MaxDeltaT ignores stale last-reports. Default 60 s.
	MaxDeltaT time.Duration

	grid    geo.Grid
	last    map[string]model.Position
	cellOf  map[string]int
	members map[int]map[string]struct{}
}

// NewPairer returns a pairer over the world box.
func NewPairer(box geo.BBox, maxDistM float64) *Pairer {
	if maxDistM <= 0 {
		maxDistM = 500
	}
	// Cell size ≥ pairing distance so neighbours cover the radius:
	// 0.02° ≈ 2.2 km; scale up for larger radii.
	cellDeg := 0.02
	if maxDistM > 2000 {
		cellDeg = maxDistM / 111_000 * 1.2
	}
	return &Pairer{
		MaxDistM:  maxDistM,
		MaxDeltaT: time.Minute,
		grid:      geo.NewGridCellSize(box, cellDeg),
		last:      make(map[string]model.Position),
		cellOf:    make(map[string]int),
		members:   make(map[int]map[string]struct{}),
	}
}

// PairKey returns the canonical key of two entity ids.
func PairKey(a, b string) string {
	if a > b {
		a, b = b, a
	}
	return a + "|" + b
}

// Process consumes one report and returns the pair events it forms with
// other current entities.
func (pr *Pairer) Process(p model.Position) []PairEvent {
	// Update the grid membership of this entity.
	newCell := pr.grid.CellID(p.Pt)
	if oldCell, ok := pr.cellOf[p.EntityID]; ok {
		if oldCell != newCell {
			delete(pr.members[oldCell], p.EntityID)
		}
	}
	if pr.members[newCell] == nil {
		pr.members[newCell] = make(map[string]struct{})
	}
	pr.members[newCell][p.EntityID] = struct{}{}
	pr.cellOf[p.EntityID] = newCell
	pr.last[p.EntityID] = p

	// Candidates: entities in this cell and its neighbours.
	var out []PairEvent
	cells := append(pr.grid.Neighbors(newCell), newCell)
	var cands []string
	for _, c := range cells {
		for id := range pr.members[c] {
			if id != p.EntityID {
				cands = append(cands, id)
			}
		}
	}
	sort.Strings(cands) // deterministic emission order
	for _, id := range cands {
		q := pr.last[id]
		dt := p.TS - q.TS
		if dt < 0 {
			dt = -dt
		}
		if dt > pr.MaxDeltaT.Milliseconds() {
			continue
		}
		d := geo.Dist3D(p.Pt, q.Pt)
		if d > pr.MaxDistM {
			continue
		}
		a, b := p.EntityID, id
		if a > b {
			a, b = b, a
		}
		speed := p.SpeedMS
		if q.SpeedMS > speed {
			speed = q.SpeedMS
		}
		out = append(out, PairEvent{
			Key: PairKey(a, b), A: a, B: b, TS: p.TS, DistM: d,
			MaxSpeed: speed, Mid: geo.Midpoint(p.Pt, q.Pt),
		})
	}
	return out
}

// AsPosition converts a pair event to a pseudo-position so that pair
// patterns can reuse the Recognizer machinery: speed carries the max speed
// of the pair.
func (pe PairEvent) AsPosition() model.Position {
	return model.Position{
		EntityID: pe.Key, TS: pe.TS, Pt: pe.Mid, SpeedMS: pe.MaxSpeed,
	}
}
