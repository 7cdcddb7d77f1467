package forecast

import (
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// HistoryKNN predicts by analogy to archival trajectories: it finds the
// historical report most similar to the entity's current state (nearest in
// position with a compatible course) and replays that trajectory's actual
// displacement over the forecast horizon. This captures bends, slow-downs
// and port approaches that no kinematic extrapolation can, and is the
// strongest expression of the paper's premise that archival data improves
// forecasting of data-in-motion. Falls back to dead reckoning when no
// similar history exists.
type HistoryKNN struct {
	grid geo.Grid
	// MaxCourseDiffDeg bounds the course mismatch for a candidate; default 30.
	MaxCourseDiffDeg float64
	trajs            []*model.Trajectory
	index            map[int][]knnRef // grid cell → candidate reports
	// live maps an entity to its stream-fed trajectory (Observe); archival
	// trajectories added with Train are not in this map.
	live map[string]int32
	// indexed caches the total index size, so IndexedPoints is O(1) on the
	// serving path.
	indexed int
}

type knnRef struct {
	traj int32
	pt   int32
}

// NewHistoryKNN returns an empty model over box with the given index
// resolution.
func NewHistoryKNN(box geo.BBox, cols, rows int) *HistoryKNN {
	return &HistoryKNN{
		grid:             geo.NewGrid(box, cols, rows),
		MaxCourseDiffDeg: 30,
		index:            make(map[int][]knnRef),
	}
}

// Train indexes archival trajectories. Only moving reports are indexed.
func (k *HistoryKNN) Train(trajectories ...*model.Trajectory) {
	for _, tr := range trajectories {
		k.trajs = append(k.trajs, tr)
		k.indexTrajectory(int32(len(k.trajs) - 1))
	}
}

// IndexedPoints returns the number of indexed reports.
func (k *HistoryKNN) IndexedPoints() int { return k.indexed }

// Name implements Predictor.
func (k *HistoryKNN) Name() string { return "knn-history" }

// Predict implements Predictor.
func (k *HistoryKNN) Predict(history []model.Position, ts int64) (geo.Point, bool) {
	if len(history) == 0 {
		return geo.Point{}, false
	}
	last := history[len(history)-1]
	dtMS := ts - last.TS
	if dtMS < 0 {
		return geo.Point{}, false
	}
	// Stationary entities stay put; history replay would teleport them.
	if last.SpeedMS <= 0.5 {
		return last.Pt, true
	}
	if pt, ok := k.PredictModel(history, ts); ok {
		return pt, ok
	}
	return DeadReckoning{}.Predict(history, ts)
}

// PredictModel is Predict without the dead-reckoning safety net: ok=false
// when the history is degenerate, the entity is stationary, or no similar
// archival report with enough recorded future exists. The serving layer's
// model-selection ladder uses this so a forecast tagged "knn-history"
// always reflects replayed history rather than a silent fallback.
func (k *HistoryKNN) PredictModel(history []model.Position, ts int64) (geo.Point, bool) {
	if len(history) == 0 {
		return geo.Point{}, false
	}
	last := history[len(history)-1]
	dtMS := ts - last.TS
	if dtMS < 0 || last.SpeedMS <= 0.5 {
		return geo.Point{}, false
	}
	cell := k.grid.CellID(last.Pt)
	cells := append(k.grid.Neighbors(cell), cell)
	// Collect scored candidates: nearby, course-compatible, steadily
	// moving, with enough recorded future.
	type cand struct {
		score float64
		ref   knnRef
	}
	var cands []cand
	for _, c := range cells {
		for _, ref := range k.index[c] {
			p := k.trajs[ref.traj].Points[ref.pt]
			if p.SpeedMS < 2 { // drifting/fishing reports are not lane history
				continue
			}
			cd := geo.AngleDiff(last.CourseDeg, p.CourseDeg)
			if cd > k.MaxCourseDiffDeg || cd < -k.MaxCourseDiffDeg {
				continue
			}
			if p.TS+dtMS > k.trajs[ref.traj].End() {
				continue
			}
			if cd < 0 {
				cd = -cd
			}
			score := geo.Haversine(last.Pt, p.Pt) + 60*cd // 60 m per degree
			cands = append(cands, cand{score: score, ref: ref})
		}
	}
	if len(cands) == 0 {
		return geo.Point{}, false
	}
	// Top-k by score (small k: partial selection).
	const topK = 5
	if len(cands) > topK {
		for i := 0; i < topK; i++ {
			min := i
			for j := i + 1; j < len(cands); j++ {
				if cands[j].score < cands[min].score {
					min = j
				}
			}
			cands[i], cands[min] = cands[min], cands[i]
		}
		cands = cands[:topK]
	}
	// Average the replayed displacements of the top candidates.
	var sumLon, sumLat, sumAlt float64
	n := 0
	for _, c := range cands {
		tr := k.trajs[c.ref.traj]
		match := tr.Points[c.ref.pt]
		future, ok := tr.At(match.TS + dtMS)
		if !ok {
			continue
		}
		brg := geo.Bearing(match.Pt, future.Pt)
		dist := geo.Haversine(match.Pt, future.Pt)
		// Scale by the speed ratio so a faster/slower entity travels
		// proportionally further/shorter along the same path.
		if match.SpeedMS > 1 && last.SpeedMS > 1 {
			ratio := last.SpeedMS / match.SpeedMS
			if ratio < 0.6 {
				ratio = 0.6
			}
			if ratio > 1.7 {
				ratio = 1.7
			}
			dist *= ratio
		}
		pt := geo.Destination(last.Pt, brg, dist)
		sumLon += pt.Lon
		sumLat += pt.Lat
		sumAlt += last.Pt.Alt + (future.Pt.Alt - match.Pt.Alt)
		n++
	}
	if n == 0 {
		return geo.Point{}, false
	}
	return geo.Point{Lon: sumLon / float64(n), Lat: sumLat / float64(n), Alt: sumAlt / float64(n)}, true
}
