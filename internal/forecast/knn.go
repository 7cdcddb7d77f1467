package forecast

import (
	"sort"

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
	trajs            []knnTraj
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

// knnTraj is one indexed trajectory. Its points hold no pointer, so the
// collector never scans the reports a long-running hub keeps; the entity
// and domain every point shares are stored once.
type knnTraj struct {
	entity string
	domain model.Domain
	pts    []knnPoint
}

// knnPoint is what the predictors read of a model.Position: 56 bytes
// against its 88, and no string.
type knnPoint struct {
	TS                             int64
	Pt                             geo.Point
	SpeedMS, CourseDeg, VertRateMS float64
}

func pointOf(p *model.Position) knnPoint {
	return knnPoint{TS: p.TS, Pt: p.Pt, SpeedMS: p.SpeedMS, CourseDeg: p.CourseDeg, VertRateMS: p.VertRateMS}
}

// position is point i as a report of the trajectory's entity. The status
// is not kept: no predictor reads it.
func (t *knnTraj) position(i int) model.Position {
	p := &t.pts[i]
	return model.Position{
		EntityID: t.entity, Domain: t.domain, TS: p.TS, Pt: p.Pt,
		SpeedMS: p.SpeedMS, CourseDeg: p.CourseDeg, VertRateMS: p.VertRateMS,
	}
}

// positions appends the trajectory's points to dst as positions.
func (t *knnTraj) positions(dst []model.Position) []model.Position {
	for i := range t.pts {
		dst = append(dst, t.position(i))
	}
	return dst
}

// end is the last timestamp; the trajectory is not empty.
func (t *knnTraj) end() int64 { return t.pts[len(t.pts)-1].TS }

// at is model.Trajectory.At's interpolated point at ts, computed by the
// same float operations, so a replay predicts bit for bit as it did over
// positions. The trajectory is not empty.
func (t *knnTraj) at(ts int64) geo.Point {
	pts := t.pts
	n := len(pts)
	if ts <= pts[0].TS {
		return pts[0].Pt
	}
	if ts >= pts[n-1].TS {
		return pts[n-1].Pt
	}
	i := sort.Search(n, func(i int) bool { return pts[i].TS >= ts })
	a, b := &pts[i-1], &pts[i]
	if b.TS == a.TS {
		return a.Pt
	}
	return geo.Interpolate(a.Pt, b.Pt, float64(ts-a.TS)/float64(b.TS-a.TS))
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
		pts := make([]knnPoint, len(tr.Points))
		for i := range tr.Points {
			pts[i] = pointOf(&tr.Points[i])
		}
		k.trajs = append(k.trajs, knnTraj{entity: tr.EntityID, domain: tr.Domain, pts: pts})
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
			tr := &k.trajs[ref.traj]
			p := &tr.pts[ref.pt]
			if p.SpeedMS < 2 { // drifting/fishing reports are not lane history
				continue
			}
			cd := geo.AngleDiff(last.CourseDeg, p.CourseDeg)
			if cd > k.MaxCourseDiffDeg || cd < -k.MaxCourseDiffDeg {
				continue
			}
			if p.TS+dtMS > tr.end() {
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
	for _, c := range cands {
		tr := &k.trajs[c.ref.traj]
		match := &tr.pts[c.ref.pt]
		future := tr.at(match.TS + dtMS)
		brg := geo.Bearing(match.Pt, future)
		dist := geo.Haversine(match.Pt, future)
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
		sumAlt += last.Pt.Alt + (future.Alt - match.Pt.Alt)
	}
	n := len(cands)
	return geo.Point{Lon: sumLon / float64(n), Lat: sumLat / float64(n), Alt: sumAlt / float64(n)}, true
}
