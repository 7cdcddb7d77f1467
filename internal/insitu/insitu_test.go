package insitu

import (
	"fmt"
	"math"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/cer"
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
)

// straightLine builds a constant-velocity track: n points every stepS
// seconds heading east at speedMS.
func straightLine(id string, n int, stepS int, speedMS float64) []model.Position {
	pts := make([]model.Position, n)
	p := geo.Pt(23.0, 37.5)
	for i := 0; i < n; i++ {
		pts[i] = model.Position{
			EntityID: id, TS: int64(i*stepS) * 1000, Pt: p,
			SpeedMS: speedMS, CourseDeg: 90,
		}
		p = geo.Destination(p, 90, speedMS*float64(stepS))
	}
	return pts
}

func TestNoiseGateDropsOutliers(t *testing.T) {
	g := NewNoiseGate(40)
	base := straightLine("V", 5, 10, 8)
	for i, p := range base {
		if !g.Accept(p) {
			t.Fatalf("clean point %d rejected", i)
		}
	}
	// A 50 km teleport 10 s later implies 5000 m/s.
	outlier := base[len(base)-1]
	outlier.TS += 10000
	outlier.Pt = geo.Destination(outlier.Pt, 45, 50000)
	if g.Accept(outlier) {
		t.Error("outlier accepted")
	}
	// The next sane point (relative to the last accepted) passes.
	next := base[len(base)-1]
	next.TS += 20000
	next.Pt = geo.Destination(next.Pt, 90, 8*20)
	if !g.Accept(next) {
		t.Error("recovery point rejected")
	}
}

func TestNoiseGateRejectsTimeRegression(t *testing.T) {
	g := NewNoiseGate(40)
	p := straightLine("V", 1, 10, 8)[0]
	if !g.Accept(p) {
		t.Fatal("first point rejected")
	}
	dup := p
	if g.Accept(dup) {
		t.Error("duplicate timestamp accepted")
	}
	earlier := p
	earlier.TS -= 1000
	if g.Accept(earlier) {
		t.Error("time regression accepted")
	}
}

func TestNoiseGatePerEntityState(t *testing.T) {
	g := NewNoiseGate(40)
	a := straightLine("A", 1, 10, 8)[0]
	b := a
	b.EntityID = "B"
	b.Pt = geo.Destination(a.Pt, 0, 100000) // far away, but first report of B
	if !g.Accept(a) || !g.Accept(b) {
		t.Error("independent entities should both be accepted")
	}
}

func TestThresholdFilterSteadyMotionCompresses(t *testing.T) {
	f := NewThresholdFilter(DefaultThreshold())
	pts := straightLine("V", 100, 10, 8)
	kept := 0
	for _, p := range pts {
		if f.Keep(p) {
			kept++
		}
	}
	// Constant velocity: only the first point plus ~one heartbeat per 3 min.
	if kept > 8 {
		t.Errorf("steady motion kept %d of %d points", kept, len(pts))
	}
	if kept == 0 {
		t.Error("must keep at least the first point")
	}
}

func TestThresholdFilterKeepsTurn(t *testing.T) {
	f := NewThresholdFilter(ThresholdConfig{DistM: 50, CourseDeg: 5, MaxGapMS: 1 << 50})
	pts := straightLine("V", 10, 10, 8)
	for _, p := range pts {
		f.Keep(p)
	}
	// A sharp turn must be kept.
	turn := pts[len(pts)-1]
	turn.TS += 10000
	turn.Pt = geo.Destination(pts[len(pts)-1].Pt, 90, 80)
	turn.CourseDeg = 145
	if !f.Keep(turn) {
		t.Error("turn not kept")
	}
}

func TestThresholdFilterKeepsSpeedChange(t *testing.T) {
	f := NewThresholdFilter(ThresholdConfig{SpeedMS: 0.5, MaxGapMS: 1 << 50})
	pts := straightLine("V", 3, 10, 8)
	for _, p := range pts {
		f.Keep(p)
	}
	slow := pts[2]
	slow.TS += 10000
	slow.SpeedMS = 2 // sudden slow-down, same course
	if !f.Keep(slow) {
		t.Error("speed drop not kept")
	}
}

func TestThresholdFilterHeartbeat(t *testing.T) {
	f := NewThresholdFilter(ThresholdConfig{DistM: 1e9, MaxGapMS: 60000})
	pts := straightLine("V", 30, 10, 8) // 300 s total, heartbeat every 60 s
	kept := 0
	for _, p := range pts {
		if f.Keep(p) {
			kept++
		}
	}
	if kept < 5 || kept > 7 {
		t.Errorf("heartbeat kept %d, want ≈6", kept)
	}
}

func TestDeadReckon(t *testing.T) {
	p := model.Position{TS: 0, Pt: geo.Pt(23, 37), SpeedMS: 10, CourseDeg: 90}
	q := DeadReckon(p, 60000)
	want := geo.Destination(p.Pt, 90, 600)
	if geo.Haversine(q.Pt, want) > 1 {
		t.Errorf("dead reckon drift: %v vs %v", q.Pt, want)
	}
	if q.TS != 60000 {
		t.Errorf("TS = %d", q.TS)
	}
	// Non-positive dt returns the original.
	if DeadReckon(p, -5).Pt != p.Pt {
		t.Error("negative dt should not move")
	}
	// Vertical rate integrates into altitude.
	p.VertRateMS = 10
	q = DeadReckon(p, 30000)
	if math.Abs(q.Pt.Alt-300) > 1e-9 {
		t.Errorf("altitude = %f, want 300", q.Pt.Alt)
	}
}

func TestRatio(t *testing.T) {
	if Ratio(100, 10) != 10 {
		t.Error("Ratio(100,10)")
	}
	if Ratio(100, 0) != 0 {
		t.Error("Ratio with zero kept")
	}
}

// groupByEntity splits a time-ordered stream into per-entity sequences.
func groupByEntity(ps []model.Position) map[string][]model.Position {
	out := make(map[string][]model.Position)
	for _, p := range ps {
		out[p.EntityID] = append(out[p.EntityID], p)
	}
	return out
}

// meanSED is the mean synchronised Euclidean distance between each
// entity's original reports and the kept ones interpolated at the same
// instants, over every original report the kept ones span.
func meanSED(original, kept map[string][]model.Position) float64 {
	var sum float64
	var n int
	for id, orig := range original {
		k := model.Trajectory{Points: kept[id]}
		for _, p := range orig {
			if q, ok := k.At(p.TS); ok {
				sum += math.Hypot(geo.Haversine(p.Pt, q.Pt), q.Pt.Alt-p.Pt.Alt)
				n++
			}
		}
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// keep runs a stream through one threshold filter and returns what it keeps.
func keep(ps []model.Position, cfg ThresholdConfig) []model.Position {
	f := NewThresholdFilter(cfg)
	var kept []model.Position
	for _, p := range ps {
		if f.Keep(p) {
			kept = append(kept, p)
		}
	}
	return kept
}

// cerF1 runs the maritime CER suite over a stream and scores its
// loitering and rendezvous detections against the scripted ones. The
// pairing clock is widened to 2 min, since a compressed stream reports
// less often.
func cerF1(sc *synth.Scenario, ps []model.Position) float64 {
	suite := cer.NewMaritimeSuite(sc.Box, sc.Areas)
	suite.Pairer.MaxDeltaT = 2 * time.Minute
	var detected []model.Event
	for _, p := range ps {
		detected = append(detected, suite.Process(p)...)
	}
	truth := append(sc.EventsOfType("loitering"), sc.EventsOfType("rendezvous")...)
	_, _, f1 := synth.ScoreDetections(truth, detected)
	return f1
}

// The SED yardstick reads zero for a stream kept whole, on a straight line
// and on a synthetic world, and zero when either side is empty.
func TestCompressionErrorZeroForIdentity(t *testing.T) {
	line := map[string][]model.Position{"V": straightLine("V", 50, 10, 8)}
	if sed := meanSED(line, line); sed > 1e-6 {
		t.Errorf("identity compression of a straight line has mean SED %f m, want 0", sed)
	}
	sc := synth.GenMaritime(synth.MaritimeConfig{Seed: 5, Vessels: 8, Duration: time.Hour})
	byEntity := groupByEntity(sc.Positions)
	if sed := meanSED(byEntity, byEntity); sed > 1e-6 {
		t.Errorf("mean SED of the stream against itself = %f m, want 0", sed)
	}
	if sed := meanSED(nil, line); sed != 0 {
		t.Errorf("empty original: mean SED %f m, want 0", sed)
	}
	if sed := meanSED(line, nil); sed != 0 {
		t.Errorf("empty kept: mean SED %f m, want 0", sed)
	}
}

// The in-situ compression claim: "high rates of data compression without
// affecting the quality of analytics" (§2). On an 8-vessel world the
// default thresholds keep a mean ratio ≥ 2 at a mean SED ≤ 200 m. On the
// 20-vessel world with scripted loitering and rendezvous the sweep was
// first measured on (seed 101) and on three held-out seeds, a looser
// threshold compresses more and errs more, and CER on the 50 m stream
// keeps its F1 within 0.15 of the raw stream's.
func TestCompressionOnSyntheticWorld(t *testing.T) {
	sc := synth.GenMaritime(synth.MaritimeConfig{Seed: 5, Vessels: 8, Duration: time.Hour})
	byEntity := groupByEntity(sc.Positions)
	kept := map[string][]model.Position{}
	var meanRatio float64
	for id, ps := range byEntity {
		kept[id] = keep(ps, DefaultThreshold())
		meanRatio += Ratio(len(ps), len(kept[id]))
	}
	meanRatio /= float64(len(byEntity))
	if meanRatio < 2 {
		t.Errorf("mean compression ratio %.1f too low for realistic traffic", meanRatio)
	}
	// GPS noise is ~15m; reconstruction error should stay within a couple
	// hundred metres at default thresholds.
	if sed := meanSED(byEntity, kept); sed > 200 {
		t.Errorf("mean SED %.1fm too high", sed)
	}

	for _, seed := range []int64{101, 1101, 2101, 3101} {
		t.Run(fmt.Sprintf("seed %d", seed), func(t *testing.T) { compressionSweep(t, seed) })
	}
}

// compressionSweep checks the threshold sweep and CER fidelity on the
// 20-vessel world of one seed.
func compressionSweep(t *testing.T, seed int64) {
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: seed, Vessels: 20, Duration: time.Hour,
		Rendezvous: 3, Loiterers: 3, GapProb: 1e-9, OutlierProb: 1e-9,
	})
	// The heartbeat stays at 60 s so the pair analytics keep seeing
	// both vessels.
	threshold := func(distM float64) []model.Position {
		return keep(sc.Positions, ThresholdConfig{DistM: distM, CourseDeg: 8, SpeedMS: 1, MaxGapMS: 60_000})
	}
	k25, k400 := threshold(25), threshold(400)
	r25, r400 := Ratio(len(sc.Positions), len(k25)), Ratio(len(sc.Positions), len(k400))
	if r25 < 1.5 || r400 <= r25 {
		t.Errorf("seed %d: ratio %.2f at 25 m, %.2f at 400 m; want ≥ 1.5 and growing", seed, r25, r400)
	}
	all := groupByEntity(sc.Positions)
	if e25, e400 := meanSED(all, groupByEntity(k25)), meanSED(all, groupByEntity(k400)); e400 <= e25 {
		t.Errorf("seed %d: mean SED %.1f m at 25 m, %.1f m at 400 m; want it to grow", seed, e25, e400)
	}
	base, f50 := cerF1(sc, sc.Positions), cerF1(sc, threshold(50))
	t.Logf("seed %d: ratio %.2f..%.2f, CER F1 %.2f raw, %.2f at 50 m", seed, r25, r400, base, f50)
	if base < 0.9 || f50 < base-0.15 {
		t.Errorf("seed %d: CER F1 %.2f raw, %.2f at 50 m; want ≥ 0.9 and within 0.15", seed, base, f50)
	}
}

func BenchmarkThresholdFilter(b *testing.B) {
	f := NewThresholdFilter(DefaultThreshold())
	pts := straightLine("V", 1000, 10, 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.Keep(pts[i%len(pts)])
	}
}
