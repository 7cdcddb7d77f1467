// Package forecast implements the forecasting components of the datAcron
// architecture: "reconstruction and forecasting of moving entities'
// trajectories in the challenging Maritime (2D space) and Aviation (3D
// space) domains" and "forecasting of complex events and patterns" (§1).
//
// Trajectory prediction offers three models:
//
//   - DeadReckoning: constant speed and course from the last report — the
//     surveillance baseline.
//   - Kinematic: constant turn rate and acceleration estimated from the
//     recent history; better through manoeuvres, diverges long-term.
//   - RouteNetwork: a grid motion model learned from archival trajectories
//     (mean course/speed per cell), exploiting the paper's central premise
//     that archival data improves forecasting of data-in-motion.
//
// Event forecasting (markov.go) follows the pattern-automaton × Markov
// chain construction: it estimates the probability that a CER pattern
// completes within a horizon given the current partial-match state.
//
// Every model is usable both batch-trained (Train over archival
// trajectories; claim E6, DESIGN.md §4) and online (state.go: Observe grows a model
// one live report at a time, ExportState/RestoreState round-trip it
// through pipeline snapshots). The serving layer's core.ForecastHub feeds
// the online surface from the live ingest stream (DESIGN.md §9).
package forecast

import (
	"math"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// Predictor forecasts a future position from per-entity history.
type Predictor interface {
	// Name identifies the model in reports.
	Name() string
	// Predict extrapolates the (time-sorted) history to ts. ok=false when
	// the history is insufficient.
	Predict(history []model.Position, ts int64) (geo.Point, bool)
}

// DeadReckoning extrapolates the last report at constant speed and course.
type DeadReckoning struct{}

// Name implements Predictor.
func (DeadReckoning) Name() string { return "dead-reckoning" }

// Predict implements Predictor.
func (DeadReckoning) Predict(history []model.Position, ts int64) (geo.Point, bool) {
	if len(history) == 0 {
		return geo.Point{}, false
	}
	last := history[len(history)-1]
	dt := float64(ts-last.TS) / 1000
	if dt < 0 {
		return geo.Point{}, false
	}
	out := geo.Destination(last.Pt, last.CourseDeg, last.SpeedMS*dt)
	out.Alt = last.Pt.Alt + last.VertRateMS*dt
	return out, true
}

// Kinematic estimates turn rate and acceleration over the last
// kinematicLookback reports and extrapolates with constant turn rate (CTR
// model).
type Kinematic struct{}

// kinematicLookback is how many trailing reports estimate the derivatives.
const kinematicLookback = 5

// Name implements Predictor.
func (Kinematic) Name() string { return "kinematic" }

// Predict implements Predictor.
func (Kinematic) Predict(history []model.Position, ts int64) (geo.Point, bool) {
	if len(history) < 2 {
		return DeadReckoning{}.Predict(history, ts)
	}
	if len(history) > kinematicLookback {
		history = history[len(history)-kinematicLookback:]
	}
	first, last := history[0], history[len(history)-1]
	span := float64(last.TS-first.TS) / 1000
	if span <= 0 {
		return DeadReckoning{}.Predict(history, ts)
	}
	turnRate := geo.AngleDiff(first.CourseDeg, last.CourseDeg) / span // deg/s
	accel := (last.SpeedMS - first.SpeedMS) / span
	climb := (last.Pt.Alt - first.Pt.Alt) / span

	// Integrate in small steps: constant turn rate bends the path.
	dt := float64(ts-last.TS) / 1000
	if dt < 0 {
		return geo.Point{}, false
	}
	const step = 10.0 // seconds
	pos := last.Pt
	course := last.CourseDeg
	speed := last.SpeedMS
	for remaining := dt; remaining > 0; remaining -= step {
		h := step
		if remaining < step {
			h = remaining
		}
		pos = geo.Destination(pos, course, speed*h)
		course += turnRate * h
		speed += accel * h
		if speed < 0 {
			speed = 0
		}
	}
	pos.Alt = last.Pt.Alt + climb*dt
	return pos, true
}

// RouteNetwork is a grid motion model learned from archival trajectories.
// Each cell keeps statistics per 45° course sector, so opposite-direction
// lanes through the same water and lane crossings do not corrupt each
// other: prediction looks up the sector matching the entity's current
// course. Cells/sectors without enough data fall back to the entity's own
// course, degrading gracefully to dead reckoning off the network.
type RouteNetwork struct {
	grid geo.Grid
	// slot maps a grid cell to 1 + its index in cells, 0 while untrained:
	// a serving-resolution grid is mostly empty water.
	slot  []int32
	cells []routeCell
}

// routeCell is the learned motion of one trained cell, per course sector.
type routeCell struct {
	sumSin, sumCos [nSectors]float64 // circular course sums
	sumSpd         [nSectors]float64
	counts         [nSectors]int
}

// nSectors is the number of 45° course sectors per cell.
const nSectors = 8

// sectorOf returns the sector index of a course.
func sectorOf(courseDeg float64) int {
	c := math.Mod(courseDeg, 360)
	if c < 0 {
		c += 360
	}
	s := int(c / (360 / nSectors))
	if s >= nSectors {
		s = nSectors - 1
	}
	return s
}

// NewRouteNetwork returns an empty model over box with the given grid
// resolution (e.g. 128x128 for the Aegean).
func NewRouteNetwork(box geo.BBox, cols, rows int) *RouteNetwork {
	g := geo.NewGrid(box, cols, rows)
	return &RouteNetwork{grid: g, slot: make([]int32, g.NumCells())}
}

// Train adds archival trajectories to the model. Only moving reports
// (speed > 0.5 m/s) contribute, so anchorages do not pollute lane cells.
func (rn *RouteNetwork) Train(trajectories ...*model.Trajectory) {
	for _, tr := range trajectories {
		for _, p := range tr.Points {
			if p.SpeedMS <= 0.5 {
				continue
			}
			rn.add(p)
		}
	}
}

// add accumulates one moving report into its cell sector.
func (rn *RouteNetwork) add(p model.Position) {
	c := rn.cellFor(rn.grid.CellID(p.Pt))
	sec := sectorOf(p.CourseDeg)
	rad := geo.Radians(p.CourseDeg)
	c.sumSin[sec] += math.Sin(rad)
	c.sumCos[sec] += math.Cos(rad)
	c.sumSpd[sec] += p.SpeedMS
	c.counts[sec]++
}

// cellFor returns the statistics of a grid cell, adding the cell to the
// trained table on first use.
func (rn *RouteNetwork) cellFor(cell int) *routeCell {
	if rn.slot[cell] == 0 {
		rn.cells = append(rn.cells, routeCell{})
		rn.slot[cell] = int32(len(rn.cells))
	}
	return &rn.cells[rn.slot[cell]-1]
}

// TrainedCells returns how many cells carry data in any sector.
func (rn *RouteNetwork) TrainedCells() int { return len(rn.cells) }

// cellMotion returns the learned mean course/speed of the cell sector
// matching the given course (also checking the two adjacent sectors, since
// lane courses straddle sector boundaries).
func (rn *RouteNetwork) cellMotion(cell int, courseDeg float64) (course, speed float64, ok bool) {
	slot := rn.slot[cell]
	if slot == 0 {
		return 0, 0, false
	}
	rc := &rn.cells[slot-1]
	base := sectorOf(courseDeg)
	bestCount := 0
	for _, d := range []int{0, 1, nSectors - 1} {
		sec := (base + d) % nSectors
		cnt := rc.counts[sec]
		if cnt < 3 || cnt <= bestCount {
			continue
		}
		c := math.Mod(geo.Degrees(math.Atan2(rc.sumSin[sec], rc.sumCos[sec]))+360, 360)
		// Only trust the sector when its mean course is genuinely close to
		// the entity's heading.
		if diff := geo.AngleDiff(courseDeg, c); diff > 50 || diff < -50 {
			continue
		}
		bestCount = cnt
		course = c
		speed = rc.sumSpd[sec] / float64(cnt)
		ok = true
	}
	return course, speed, ok
}

// Name implements Predictor.
func (rn *RouteNetwork) Name() string { return "route-network" }

// Predict implements Predictor: walk the learned motion field from the last
// report. The learned course is only trusted when it roughly agrees with
// the entity's current heading (±60°), otherwise the vessel is off-lane or
// on the opposite lane direction and dead reckoning is safer.
func (rn *RouteNetwork) Predict(history []model.Position, ts int64) (geo.Point, bool) {
	pt, _, ok := rn.predict(history, ts)
	return pt, ok
}

// PredictModel is Predict, except ok=false when no trained cell influenced
// the walk — i.e. when the result would be indistinguishable from dead
// reckoning. The serving layer's model-selection ladder uses this so a
// forecast tagged "route-network" always reflects learned lane knowledge.
func (rn *RouteNetwork) PredictModel(history []model.Position, ts int64) (geo.Point, bool) {
	pt, usedLane, ok := rn.predict(history, ts)
	return pt, ok && usedLane
}

// predict walks the motion field, reporting whether any learned cell
// steered the walk.
func (rn *RouteNetwork) predict(history []model.Position, ts int64) (pt geo.Point, usedLane, ok bool) {
	if len(history) == 0 {
		return geo.Point{}, false, false
	}
	last := history[len(history)-1]
	dt := float64(ts-last.TS) / 1000
	if dt < 0 {
		return geo.Point{}, false, false
	}
	const step = 30.0 // seconds
	pos := last.Pt
	course := last.CourseDeg
	speed := last.SpeedMS
	for remaining := dt; remaining > 0; remaining -= step {
		h := step
		if remaining < step {
			h = remaining
		}
		if c, _, ok := rn.cellMotion(rn.grid.CellID(pos), course); ok {
			// Adopt the lane's course but keep the entity's own speed: the
			// lane knows where traffic bends, the entity knows how fast it
			// moves.
			course = c
			usedLane = true
		}
		pos = geo.Destination(pos, course, speed*h)
	}
	pos.Alt = last.Pt.Alt + last.VertRateMS*dt
	return pos, usedLane, true
}

// HorizonError evaluates a predictor against ground truth: for each truth
// trajectory, anchors are placed every anchorStep at instants where the
// entity is underway (speed > 1 m/s — forecasting a moored entity is
// trivial for every model and only dilutes the comparison); the prediction
// at anchor+horizon is compared against truth.At. Returns the mean error in
// metres per horizon and the sample counts.
func HorizonError(p Predictor, truth map[string]*model.Trajectory, horizons []time.Duration, anchorStep time.Duration) (meanM []float64, n []int) {
	meanM = make([]float64, len(horizons))
	n = make([]int, len(horizons))
	stepMS := anchorStep.Milliseconds()
	for _, tr := range truth {
		if tr.Len() < 4 {
			continue
		}
		for anchorTS := tr.Start() + stepMS; anchorTS < tr.End(); anchorTS += stepMS {
			// History visible to the predictor: everything up to anchor.
			hist := tr.Slice(tr.Start(), anchorTS).Points
			if len(hist) < 2 {
				continue
			}
			if hist[len(hist)-1].SpeedMS <= 1 {
				continue // moored/drifting anchor: trivial for all models
			}
			for hi, h := range horizons {
				target := anchorTS + h.Milliseconds()
				if target > tr.End() {
					continue
				}
				actual, ok := tr.At(target)
				if !ok {
					continue
				}
				pred, ok := p.Predict(hist, target)
				if !ok {
					continue
				}
				meanM[hi] += geo.Dist3D(pred, actual.Pt)
				n[hi]++
			}
		}
	}
	for i := range meanM {
		if n[i] > 0 {
			meanM[i] /= float64(n[i])
		}
	}
	return meanM, n
}
