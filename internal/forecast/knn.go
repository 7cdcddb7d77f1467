package forecast

import (
	"cmp"
	"math"
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
	index            map[int][]knnRun // grid cell → runs of candidate reports
	// live maps an entity to its stream-fed trajectory (Observe); archival
	// trajectories added with Train are not in this map.
	live map[string]int32
	// indexed caches the number of indexed reports, so IndexedPoints is
	// O(1) on the serving path.
	indexed int
}

// knnRun is n consecutive indexed reports of one trajectory, pt to
// pt+n-1, in one grid cell: a vessel crosses a cell in a run of reports,
// so a cell holds one entry per crossing, not one per report.
type knnRun struct {
	traj, pt, n int32
}

// knnTraj is one indexed trajectory. Its points hold no pointer, so the
// collector never scans the reports a long-running hub keeps; the entity
// and domain every point shares are stored once.
type knnTraj struct {
	entity string
	domain model.Domain
	pts    []knnPoint
	// alt is the altitude column, aligned with pts. It stays nil while
	// every altitude and vertical rate is +0 (a vessel's), and is
	// back-filled with zeros when the first other bit pattern arrives.
	alt []altPoint
	// lastCell and lastRun locate the run that holds the trajectory's
	// newest indexed report, index[lastCell][lastRun] (lastCell -1: none),
	// for the next report to extend. Filtering a cell moves its runs, so
	// the hint is checked before use.
	lastCell int
	lastRun  int32
}

// knnPoint is what the predictors read of a model.Position, apart from
// the altitude column: 40 bytes against its 88, and no string.
type knnPoint struct {
	TS                           int64
	Lon, Lat, SpeedMS, CourseDeg float64
}

// altPoint is a report's altitude and vertical rate.
type altPoint struct{ Alt, VertRateMS float64 }

// hasAlt reports whether p's altitude or vertical rate is other than +0.
// It compares bits, so a −0 or a NaN payload is kept exactly.
func hasAlt(p *model.Position) bool {
	return math.Float64bits(p.Pt.Alt)|math.Float64bits(p.VertRateMS) != 0
}

// push appends p to the trajectory, starting the altitude column when p
// is the first report that needs it.
func (t *knnTraj) push(p *model.Position) {
	t.pts = append(t.pts, knnPoint{TS: p.TS, Lon: p.Pt.Lon, Lat: p.Pt.Lat, SpeedMS: p.SpeedMS, CourseDeg: p.CourseDeg})
	if t.alt == nil {
		if !hasAlt(p) {
			return
		}
		t.alt = make([]altPoint, len(t.pts)-1, cap(t.pts))
	}
	t.alt = append(t.alt, altPoint{Alt: p.Pt.Alt, VertRateMS: p.VertRateMS})
}

// pt is point i's location.
func (t *knnTraj) pt(i int) geo.Point {
	p := &t.pts[i]
	if t.alt == nil {
		return geo.Pt(p.Lon, p.Lat)
	}
	return geo.Point{Lon: p.Lon, Lat: p.Lat, Alt: t.alt[i].Alt}
}

// position is point i as a report of the trajectory's entity. The status
// is not kept: no predictor reads it.
func (t *knnTraj) position(i int) model.Position {
	p := &t.pts[i]
	pos := model.Position{
		EntityID: t.entity, Domain: t.domain, TS: p.TS, Pt: t.pt(i),
		SpeedMS: p.SpeedMS, CourseDeg: p.CourseDeg,
	}
	if t.alt != nil {
		pos.VertRateMS = t.alt[i].VertRateMS
	}
	return pos
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
		return t.pt(0)
	}
	if ts >= pts[n-1].TS {
		return t.pt(n - 1)
	}
	i := sort.Search(n, func(i int) bool { return pts[i].TS >= ts })
	a, b := &pts[i-1], &pts[i]
	if b.TS == a.TS {
		return t.pt(i - 1)
	}
	return geo.Interpolate(t.pt(i-1), t.pt(i), float64(ts-a.TS)/float64(b.TS-a.TS))
}

// NewHistoryKNN returns an empty model over box with the given index
// resolution.
func NewHistoryKNN(box geo.BBox, cols, rows int) *HistoryKNN {
	return &HistoryKNN{
		grid:             geo.NewGrid(box, cols, rows),
		MaxCourseDiffDeg: 30,
		index:            make(map[int][]knnRun),
	}
}

// Train indexes archival trajectories. Only moving reports are indexed.
func (k *HistoryKNN) Train(trajectories ...*model.Trajectory) {
	for _, tr := range trajectories {
		t := knnTraj{entity: tr.EntityID, domain: tr.Domain, pts: make([]knnPoint, 0, len(tr.Points))}
		for i := range tr.Points {
			t.push(&tr.Points[i])
		}
		k.trajs = append(k.trajs, t)
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
//
// The candidates are the indexed reports in the grid cells of the 3×3
// block around the last report's cell that move at 2 m/s or more, whose
// course is within MaxCourseDiffDeg of the last report's and whose
// trajectory runs on for at least ts − last.TS after them. A candidate
// scores its distance to the last report plus 60 m per degree of course
// difference. The knnTopK lowest under the order (score, entity id, report
// time, index in the trajectory, trajectory), a NaN score after every
// number, are averaged in that order. The order is total, so the forecast
// does not depend on the order reports were indexed in.
func (k *HistoryKNN) PredictModel(history []model.Position, ts int64) (geo.Point, bool) {
	if len(history) == 0 {
		return geo.Point{}, false
	}
	last := &history[len(history)-1]
	dtMS := ts - last.TS
	if dtMS < 0 || last.SpeedMS <= 0.5 {
		return geo.Point{}, false
	}
	var cells [9]int
	var top [knnTopK]knnCand
	n := 0
	for _, c := range cells[:k.block(k.grid.CellID(last.Pt), &cells)] {
		for _, r := range k.index[c] {
			tr := &k.trajs[r.traj]
			end := tr.end()
			for i := r.pt; i < r.pt+r.n; i++ {
				p := &tr.pts[i]
				if p.SpeedMS < 2 { // drifting/fishing reports are not lane history
					continue
				}
				cd := geo.AngleDiff(last.CourseDeg, p.CourseDeg)
				if cd > k.MaxCourseDiffDeg || cd < -k.MaxCourseDiffDeg {
					continue
				}
				if p.TS+dtMS > end {
					continue
				}
				if cd < 0 {
					cd = -cd
				}
				score := geo.Haversine(last.Pt, tr.pt(int(i))) + 60*cd // 60 m per degree
				n = k.insertTop(&top, n, knnCand{score: score, traj: r.traj, pt: i})
			}
		}
	}
	if n == 0 {
		return geo.Point{}, false
	}
	// Average the replayed displacements of the top candidates.
	var sumLon, sumLat, sumAlt float64
	for _, c := range top[:n] {
		tr := &k.trajs[c.traj]
		match := &tr.pts[c.pt]
		matchPt := tr.pt(int(c.pt))
		future := tr.at(match.TS + dtMS)
		brg := geo.Bearing(matchPt, future)
		dist := geo.Haversine(matchPt, future)
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
		sumAlt += last.Pt.Alt + (future.Alt - matchPt.Alt)
	}
	return geo.Point{Lon: sumLon / float64(n), Lat: sumLat / float64(n), Alt: sumAlt / float64(n)}, true
}

// knnTopK is how many candidates a forecast averages.
const knnTopK = 5

// knnCand is a scored candidate: report pt of trajectory traj.
type knnCand struct {
	score    float64
	traj, pt int32
}

// block writes the cells of the 3×3 block around cell that lie in the
// grid to out and returns how many there are.
func (k *HistoryKNN) block(cell int, out *[9]int) int {
	g := &k.grid
	col, row := cell%g.Cols, cell/g.Cols
	n := 0
	for r := max(row-1, 0); r <= min(row+1, g.Rows-1); r++ {
		for c := max(col-1, 0); c <= min(col+1, g.Cols-1); c++ {
			out[n] = r*g.Cols + c
			n++
		}
	}
	return n
}

// insertTop inserts c into top[:n], kept in ascending order and at most
// knnTopK long, and returns the new length.
func (k *HistoryKNN) insertTop(top *[knnTopK]knnCand, n int, c knnCand) int {
	if n == knnTopK {
		if !k.before(c, top[n-1]) {
			return n
		}
	} else {
		n++
	}
	j := n - 1
	for ; j > 0 && k.before(c, top[j-1]); j-- {
		top[j] = top[j-1]
	}
	top[j] = c
	return n
}

// before is PredictModel's candidate order.
func (k *HistoryKNN) before(a, b knnCand) bool {
	if c := compareScores(a.score, b.score); c != 0 {
		return c < 0
	}
	ta, tb := &k.trajs[a.traj], &k.trajs[b.traj]
	if ta.entity != tb.entity {
		return ta.entity < tb.entity
	}
	if ta, tb := ta.pts[a.pt].TS, tb.pts[b.pt].TS; ta != tb {
		return ta < tb
	}
	if a.pt != b.pt {
		return a.pt < b.pt
	}
	return a.traj < b.traj
}

// compareScores is cmp.Compare with NaN after every number: a score that
// compares with nothing is the least similar.
func compareScores(a, b float64) int {
	switch an, bn := math.IsNaN(a), math.IsNaN(b); {
	case an && bn:
		return 0
	case an:
		return 1
	case bn:
		return -1
	}
	return cmp.Compare(a, b)
}
