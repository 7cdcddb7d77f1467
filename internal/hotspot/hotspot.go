// Package hotspot implements the density analytics behind the paper's
// "prediction of ... capacity demand, hot spots / paths" (§1): windowed
// density grids, Getis-Ord-style hotspot scoring and per-sector occupancy
// (ATM capacity demand).
package hotspot

import (
	"math"
	"sort"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// DensityGrid accumulates report counts per grid cell.
type DensityGrid struct {
	Grid   geo.Grid
	Counts []float64
	total  float64
}

// NewDensityGrid returns an empty density grid.
func NewDensityGrid(g geo.Grid) *DensityGrid {
	return &DensityGrid{Grid: g, Counts: make([]float64, g.NumCells())}
}

// Add counts one report.
func (d *DensityGrid) Add(p geo.Point) {
	d.Counts[d.Grid.CellID(p)]++
	d.total++
}

// Total returns the accumulated weight.
func (d *DensityGrid) Total() float64 { return d.total }

// RestoreCounts replaces the cell counts with a copy of counts (padded or
// clipped to the grid size) and recomputes the total — snapshot restore
// for the durable serving layer.
func (d *DensityGrid) RestoreCounts(counts []float64) {
	d.Counts = make([]float64, d.Grid.NumCells())
	d.total = 0
	for i, c := range counts {
		if i >= len(d.Counts) {
			break
		}
		d.Counts[i] = c
		d.total += c
	}
}

// Max returns the maximum cell weight.
func (d *DensityGrid) Max() float64 {
	m := 0.0
	for _, c := range d.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// GiStar computes a Getis-Ord Gi*-style z-score per cell: how far the
// cell's neighbourhood (cell + 8 neighbours) mean deviates from the global
// mean, in units of the global standard deviation adjusted for
// neighbourhood size. Cells with z ≥ ~2 are significant hotspots.
func (d *DensityGrid) GiStar() []float64 {
	n := float64(len(d.Counts))
	if n == 0 {
		return nil
	}
	var sum, sumSq float64
	for _, c := range d.Counts {
		sum += c
		sumSq += c * c
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	out := make([]float64, len(d.Counts))
	if std == 0 {
		return out
	}
	for cell := range d.Counts {
		neigh := append(d.Grid.Neighbors(cell), cell)
		var local float64
		for _, c := range neigh {
			local += d.Counts[c]
		}
		w := float64(len(neigh))
		// Gi* numerator: local sum - mean*w; denominator: std * sqrt(w*(n-w)/(n-1)).
		denom := std * math.Sqrt(w*(n-w)/(n-1))
		if denom == 0 {
			continue
		}
		out[cell] = (local - mean*w) / denom
	}
	return out
}

// Hotspot is one significant cell.
type Hotspot struct {
	Cell   int
	Center geo.Point
	Z      float64
	Count  float64
}

// Hotspots returns the cells with Gi* z-score at or above zThreshold,
// strongest first.
func (d *DensityGrid) Hotspots(zThreshold float64) []Hotspot {
	zs := d.GiStar()
	var out []Hotspot
	for cell, z := range zs {
		if z >= zThreshold {
			out = append(out, Hotspot{Cell: cell, Center: d.Grid.CellCenter(cell), Z: z, Count: d.Counts[cell]})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Z != out[j].Z {
			return out[i].Z > out[j].Z
		}
		return out[i].Cell < out[j].Cell
	})
	return out
}

// Occupancy tracks distinct entities per named area per time window —
// the ATM "capacity demand" measure.
type Occupancy struct {
	WindowMS int64
	// window start → area → set of entities
	counts map[int64]map[string]map[string]struct{}
}

// NewOccupancy returns an occupancy tracker with the given window size.
func NewOccupancy(windowMS int64) *Occupancy {
	if windowMS <= 0 {
		windowMS = 10 * 60000
	}
	return &Occupancy{WindowMS: windowMS, counts: make(map[int64]map[string]map[string]struct{})}
}

// Observe records that entity was in area at ts.
func (o *Occupancy) Observe(area, entity string, ts int64) {
	w := ts - mod(ts, o.WindowMS)
	byArea, ok := o.counts[w]
	if !ok {
		byArea = make(map[string]map[string]struct{})
		o.counts[w] = byArea
	}
	set, ok := byArea[area]
	if !ok {
		set = make(map[string]struct{})
		byArea[area] = set
	}
	set[entity] = struct{}{}
}

// WindowCount is one (window, area) occupancy result.
type WindowCount struct {
	WindowStart int64
	Area        string
	Entities    int
}

// Counts returns all occupancy counts ordered by window then area.
func (o *Occupancy) Counts() []WindowCount {
	var out []WindowCount
	for w, byArea := range o.counts {
		for area, set := range byArea {
			out = append(out, WindowCount{WindowStart: w, Area: area, Entities: len(set)})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].WindowStart != out[j].WindowStart {
			return out[i].WindowStart < out[j].WindowStart
		}
		return out[i].Area < out[j].Area
	})
	return out
}

// CongestionEvents turns occupancy counts into hotspot events: windows
// where an area's occupancy reaches `threshold` entities. Consecutive
// windows merge into one event.
func (o *Occupancy) CongestionEvents(threshold int) []model.Event {
	counts := o.Counts()
	// Group by area, walk windows in order.
	byArea := make(map[string][]WindowCount)
	for _, wc := range counts {
		byArea[wc.Area] = append(byArea[wc.Area], wc)
	}
	var events []model.Event
	var areas []string
	for a := range byArea {
		areas = append(areas, a)
	}
	sort.Strings(areas)
	for _, area := range areas {
		var cur *model.Event
		for _, wc := range byArea[area] {
			hot := wc.Entities >= threshold
			switch {
			case hot && cur == nil:
				events = append(events, model.Event{
					Type: "hotspot", Area: area, Entity: area,
					StartTS: wc.WindowStart, EndTS: wc.WindowStart + o.WindowMS,
				})
				cur = &events[len(events)-1]
			case hot && cur != nil && wc.WindowStart <= cur.EndTS:
				cur.EndTS = wc.WindowStart + o.WindowMS
			case !hot:
				cur = nil
			}
		}
	}
	return events
}

func mod(a, b int64) int64 {
	m := a % b
	if m < 0 {
		m += b
	}
	return m
}
