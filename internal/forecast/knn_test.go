package forecast

import (
	"cmp"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"
	"unsafe"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
)

// knnSpec is HistoryKNN as PredictModel documents it, over plain copies of
// every trajectory: no index, no columns, every report searched.
type knnSpec struct {
	grid      geo.Grid
	maxCourse float64
	trajs     [][]model.Position
	live      map[string]int
}

func newKNNSpec(k *HistoryKNN) *knnSpec {
	return &knnSpec{grid: k.grid, maxCourse: k.MaxCourseDiffDeg, live: map[string]int{}}
}

func (s *knnSpec) train(pts []model.Position) {
	s.trajs = append(s.trajs, slices.Clone(pts))
}

// observe appends p to its entity's trajectory and keeps the newest half
// of one that exceeds maxPer.
func (s *knnSpec) observe(p model.Position, maxPer int) {
	ti, ok := s.live[p.EntityID]
	if !ok {
		ti = len(s.trajs)
		s.trajs = append(s.trajs, nil)
		s.live[p.EntityID] = ti
	}
	tr := append(s.trajs[ti], p)
	if len(tr) > maxPer {
		tr = slices.Clone(tr[len(tr)/2:])
	}
	s.trajs[ti] = tr
}

func (s *knnSpec) drop(id string) {
	ti, ok := s.live[id]
	if !ok {
		return
	}
	s.trajs = slices.Delete(s.trajs, ti, ti+1)
	delete(s.live, id)
	for e, tj := range s.live {
		if tj > ti {
			s.live[e] = tj - 1
		}
	}
}

// indexed counts the moving reports.
func (s *knnSpec) indexed() int {
	n := 0
	for _, tr := range s.trajs {
		for _, p := range tr {
			if p.SpeedMS > 0.5 {
				n++
			}
		}
	}
	return n
}

type specCand struct {
	score    float64
	entity   string
	ts       int64
	i, traj  int
	pts      []model.Position
	matchIdx int
}

// compareSpecCands is the documented order: score with NaN after every
// number, entity id, report time, index in the trajectory, trajectory.
func compareSpecCands(a, b specCand) int {
	an, bn := math.IsNaN(a.score), math.IsNaN(b.score)
	if an != bn {
		if an {
			return 1
		}
		return -1
	}
	if !an && a.score != b.score {
		return cmp.Compare(a.score, b.score)
	}
	return cmp.Or(strings.Compare(a.entity, b.entity), cmp.Compare(a.ts, b.ts), cmp.Compare(a.i, b.i), cmp.Compare(a.traj, b.traj))
}

// candidates lists every candidate of a forecast from last to last.TS+dtMS,
// in the documented order.
func (s *knnSpec) candidates(last model.Position, dtMS int64) []specCand {
	col0, row0 := s.grid.ColRow(last.Pt)
	var cands []specCand
	for ti, tr := range s.trajs {
		for i, p := range tr {
			col, row := s.grid.ColRow(p.Pt)
			if p.SpeedMS <= 0.5 || col < col0-1 || col > col0+1 || row < row0-1 || row > row0+1 {
				continue // not indexed, or outside the 3×3 block
			}
			cd := geo.AngleDiff(last.CourseDeg, p.CourseDeg)
			if p.SpeedMS < 2 || math.Abs(cd) > s.maxCourse || p.TS+dtMS > tr[len(tr)-1].TS {
				continue
			}
			cands = append(cands, specCand{
				score: geo.Haversine(last.Pt, p.Pt) + 60*math.Abs(cd), entity: p.EntityID,
				ts: p.TS, i: i, traj: ti, pts: tr, matchIdx: i,
			})
		}
	}
	slices.SortStableFunc(cands, compareSpecCands)
	return cands
}

// predict averages the replayed displacements of the first knnTopK
// candidates, in order, the future read by model.Trajectory.At.
func (s *knnSpec) predict(history []model.Position, ts int64) (geo.Point, bool) {
	last := history[len(history)-1]
	dtMS := ts - last.TS
	if dtMS < 0 || last.SpeedMS <= 0.5 {
		return geo.Point{}, false
	}
	cands := s.candidates(last, dtMS)
	if len(cands) == 0 {
		return geo.Point{}, false
	}
	cands = cands[:min(len(cands), knnTopK)]
	var sumLon, sumLat, sumAlt float64
	for _, c := range cands {
		match := c.pts[c.matchIdx]
		future, _ := (&model.Trajectory{Points: c.pts}).At(match.TS + dtMS)
		dist := geo.Haversine(match.Pt, future.Pt)
		if match.SpeedMS > 1 && last.SpeedMS > 1 {
			dist *= min(max(last.SpeedMS/match.SpeedMS, 0.6), 1.7)
		}
		pt := geo.Destination(last.Pt, geo.Bearing(match.Pt, future.Pt), dist)
		sumLon += pt.Lon
		sumLat += pt.Lat
		sumAlt += last.Pt.Alt + (future.Pt.Alt - match.Pt.Alt)
	}
	n := float64(len(cands))
	return geo.Point{Lon: sumLon / n, Lat: sumLat / n, Alt: sumAlt / n}, true
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

func pointBits(p geo.Point) [3]uint64 {
	return [3]uint64{math.Float64bits(p.Lon), math.Float64bits(p.Lat), math.Float64bits(p.Alt)}
}

// knnAgree fails t unless k holds the spec's trajectories bit for bit,
// indexes as many reports, and forecasts history at each horizon as the
// spec does. It returns how many forecasts succeeded and how many had a
// tie across the knnTopK boundary.
func knnAgree(t testing.TB, k *HistoryKNN, s *knnSpec, history []model.Position, horizons []int64) (ok, ties int) {
	t.Helper()
	if got, want := k.IndexedPoints(), s.indexed(); got != want {
		t.Fatalf("IndexedPoints = %d, the spec indexes %d", got, want)
	}
	for id, ti := range s.live {
		want := s.trajs[ti]
		got := k.Recent(id, len(want)+1, nil)
		if len(got) != len(want) {
			t.Fatalf("%s: %d reports held, the spec holds %d", id, len(got), len(want))
		}
		for i := range want {
			g, w := got[i], want[i]
			if g.TS != w.TS || !sameBits(g.Pt.Lon, w.Pt.Lon) || !sameBits(g.Pt.Lat, w.Pt.Lat) || !sameBits(g.Pt.Alt, w.Pt.Alt) ||
				!sameBits(g.SpeedMS, w.SpeedMS) || !sameBits(g.CourseDeg, w.CourseDeg) || !sameBits(g.VertRateMS, w.VertRateMS) {
				t.Fatalf("%s report %d: held %+v, the spec holds %+v", id, i, g, w)
			}
		}
	}
	last := history[len(history)-1]
	for _, h := range horizons {
		want, wantOK := s.predict(history, last.TS+h)
		got, gotOK := k.PredictModel(history, last.TS+h)
		if gotOK != wantOK || !sameBits(got.Lon, want.Lon) || !sameBits(got.Lat, want.Lat) || !sameBits(got.Alt, want.Alt) {
			t.Fatalf("forecast from %+v at +%d ms: %x %v, the spec %x %v", last, h, pointBits(got), gotOK, pointBits(want), wantOK)
		}
		if wantOK {
			ok++
			if c := s.candidates(last, h); len(c) > knnTopK && c[knnTopK-1].score == c[knnTopK].score {
				ties++
			}
		}
	}
	return ok, ties
}

// TestKNNPredictMatchesSpec holds PredictModel, the kept reports and the
// index count to the brute-force specification over a stream that halves
// trajectories many times and mixes a maritime fleet on shared lattice
// points (equal scores), an archival trajectory trained three times, an
// aircraft, a vessel whose altitude column starts mid-stream and one that
// reports a −0 altitude. Then it runs the fuzz target's seed corpus.
func TestKNNPredictMatchesSpec(t *testing.T) {
	box := geo.NewBBox(22, 34, 30, 42)
	knn := NewHistoryKNN(box, 48, 48)
	spec := newKNNSpec(knn)
	archive := turning(300, 10, 8, 0.05)
	for _, id := range []string{"archive", "archive", "archive-b"} {
		tr := slices.Clone(archive)
		for i := range tr {
			tr[i].EntityID = id
		}
		knn.Train(&model.Trajectory{EntityID: id, Points: tr})
		spec.train(tr)
	}
	const maxPer = 60
	ok, ties := 0, 0
	for i := 0; i < 600; i++ {
		for e, id := range []string{"A", "B", "C", "AV", "M", "Z"} {
			p := model.Position{
				EntityID: id, Domain: model.Maritime, TS: int64(i) * 10_000,
				Pt:        geo.Pt(24+0.01*float64((i+7*e)%120), 37+0.01*float64((i/11+e)%3)),
				SpeedMS:   float64((i + e) % 7), // stationary, drifting and moving
				CourseDeg: 90 + float64((i+e)%3)*5,
			}
			switch {
			case id == "AV":
				p.Domain, p.Pt.Alt, p.VertRateMS = model.Aviation, 1000+float64(i), 1.5
			case id == "M" && i >= 250:
				p.Pt.Alt = 3
			case id == "Z" && i%4 == 0:
				p.Pt.Alt = math.Copysign(0, -1)
			}
			knn.Observe(p, maxPer)
			spec.observe(p, maxPer)
		}
		if i%5 != 0 {
			continue
		}
		for _, id := range []string{"A", "AV", "M", "Z"} {
			tr := spec.trajs[spec.live[id]]
			o, tie := knnAgree(t, knn, spec, tr[max(len(tr)-4, 0):], []int64{0, 30_000, 300_000, 1_800_000})
			ok, ties = ok+o, ties+tie
		}
	}
	if alt := knn.trajs[knn.live["M"]].alt; alt == nil {
		t.Fatal("M reported an altitude, but holds no altitude column")
	}
	if alt := knn.trajs[knn.live["A"]].alt; alt != nil {
		t.Fatal("A reported no altitude, but holds an altitude column")
	}
	t.Logf("%d forecasts, %d with equal scores across the top %d", ok, ties, knnTopK)
	if ok < 500 || ties < 20 {
		t.Fatalf("%d forecasts, %d with ties: the stream does not exercise the order", ok, ties)
	}
	ok, ties = 0, 0
	for seed := int64(1); seed <= 100; seed++ {
		o, tie := knnFuzzRun(t, knnFuzzSeed(seed))
		ok, ties = ok+o, ties+tie
	}
	t.Logf("fuzz seeds: %d forecasts, %d with equal scores across the top %d", ok, ties, knnTopK)
	if ok < 500 || ties < 20 {
		t.Fatalf("fuzz seeds: %d forecasts, %d with ties: the seeds do not exercise the order", ok, ties)
	}
}

// knnFuzzSeed is n pseudo-random bytes, a fuzz seed.
func knnFuzzSeed(seed int64) []byte {
	b := make([]byte, 600)
	rand.New(rand.NewSource(seed)).Read(b)
	return b
}

// FuzzKNNMatchesSpec drives Observe (at a cap of 8), Train, DropEntities
// and PredictModel from the fuzzed bytes, on a lattice coarse enough for
// reports to share points, and holds the model to the specification
// after every operation.
func FuzzKNNMatchesSpec(f *testing.F) {
	for seed := int64(1); seed <= 8; seed++ {
		f.Add(knnFuzzSeed(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) { knnFuzzRun(t, data) })
}

// knnFuzzRun returns knnAgree's counts over every forecast it made.
func knnFuzzRun(t testing.TB, data []byte) (ok, ties int) {
	box := geo.NewBBox(22, 34, 30, 42)
	knn := NewHistoryKNN(box, 48, 48)
	spec := newKNNSpec(knn)
	ids := []string{"A", "B", "C", "T"}
	clock := map[string]int64{}
	var now int64
	// report decodes five bytes into a report of id: a time step of 0 to
	// 30 s, a point on an 8 × 8 lattice of 0.05°, a speed, a course and an
	// altitude that is +0, −0, a value or NaN.
	report := func(id string, b []byte) model.Position {
		clock[id] += int64(b[0]%4) * 10_000
		now = max(now, clock[id])
		p := model.Position{
			EntityID: id, TS: clock[id],
			Pt:        geo.Pt(24+0.05*float64(b[1]%8), 37+0.05*float64(b[1]/8%8)),
			SpeedMS:   []float64{0, 1, 3, 6}[b[2]%4],
			CourseDeg: []float64{80, 90, 100, 270}[b[3]%4],
		}
		switch b[4] % 8 {
		case 1:
			p.Pt.Alt = math.Copysign(0, -1)
		case 2:
			p.Pt.Alt, p.VertRateMS = 500, 2
		case 3:
			p.Pt.Alt = math.NaN()
		}
		return p
	}
	// Each check reads every trajectory: a bounded stream keeps a run
	// fast enough to fuzz.
	data = data[:min(len(data), 4096)]
	for len(data) >= 6 {
		op, b := data[0], data[1:6]
		data = data[6:]
		id := ids[op/8%4]
		switch op % 8 {
		case 0, 1, 2, 3, 4:
			p := report(id, b)
			knn.Observe(p, 8)
			spec.observe(p, 8)
		case 5:
			// An archival trajectory under a live entity's id, its reports
			// from the next bytes.
			n := int(b[0]%4) + 1
			var pts []model.Position
			for ; n > 0 && len(data) >= 5; n-- {
				pts = append(pts, report("archive", data[:5]))
				data = data[5:]
			}
			for i := range pts {
				pts[i].EntityID = id
			}
			knn.Train(&model.Trajectory{EntityID: id, Points: pts})
			spec.train(pts)
		case 6:
			knn.DropEntities([]string{id})
			spec.drop(id)
			delete(clock, id)
		case 7:
			q := report("query", b)
			q.TS = now
			o, tie := knnAgree(t, knn, spec, []model.Position{q}, []int64{0, 10_000, 60_000, int64(b[0]) * 1000})
			ok, ties = ok+o, ties+tie
		}
	}
	return ok, ties
}

// TestKNNBytesPerReport: a report costs one 40-byte point, and a vessel's
// consecutive reports in one cell share one index entry. On 50 vessels
// reporting every second, the hub's grid holds at most one index entry
// per ten indexed reports, and the model's live heap stays near the
// points it holds.
func TestKNNBytesPerReport(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	if size := unsafe.Sizeof(knnPoint{}); size != 40 {
		t.Errorf("knnPoint is %d bytes, want 40", size)
	}
	sc := synth.GenMaritime(synth.MaritimeConfig{Seed: 8, ReportEvery: time.Second, Duration: time.Hour})
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	knn := NewHistoryKNN(synth.MaritimeBox(), 96, 96) // the serving hub's grid
	for _, p := range sc.Positions {
		knn.Observe(p, 4096)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runs := 0
	for _, r := range knn.index {
		runs += len(r)
	}
	perIndexed := float64(runs) / float64(knn.IndexedPoints())
	perReport := float64(after.HeapAlloc-before.HeapAlloc) / float64(len(sc.Positions))
	runtime.KeepAlive(knn)
	t.Logf("%d reports, %d indexed, %d index entries (%.3f an indexed report), %.0f B/report",
		len(sc.Positions), knn.IndexedPoints(), runs, perIndexed, perReport)
	if perIndexed > 0.1 {
		t.Errorf("%.3f index entries an indexed report, want at most 0.1", perIndexed)
	}
	if perReport > 56 {
		t.Errorf("%.0f B of live heap a report, want at most 56", perReport)
	}
}

// TestKNNPredictAllocBudget: a forecast allocates nothing, whatever the
// number of candidates.
func TestKNNPredictAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	knn := NewHistoryKNN(geo.NewBBox(22, 34, 30, 42), 48, 48)
	lane := turning(400, 10, 8, 0.05)
	for i := 0; i < 4; i++ {
		knn.Train(&model.Trajectory{EntityID: fmt.Sprint("H", i), Points: lane})
	}
	hist := lane[40:60]
	if _, ok := knn.PredictModel(hist, hist[len(hist)-1].TS+300_000); !ok {
		t.Fatal("no forecast on the trained lane")
	}
	if n := testing.AllocsPerRun(100, func() {
		knn.PredictModel(hist, hist[len(hist)-1].TS+300_000)
	}); n != 0 {
		t.Errorf("PredictModel allocates %.0f times a call, want 0", n)
	}
}
