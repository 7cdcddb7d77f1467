package synopses

import (
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// feed pushes positions through a fresh maritime-default detector and
// returns everything it emitted.
func feed(pts []model.Position) []CriticalPoint {
	d := NewDetector(DefaultMaritime())
	var out []CriticalPoint
	for _, p := range pts {
		out = d.Observe(p, out)
	}
	return out
}

// track builds a report sequence: start point, then one report per step
// applying course/speed from the callback.
func track(n int, stepS int, fn func(i int) (speedMS, courseDeg float64)) []model.Position {
	pts := make([]model.Position, 0, n)
	pt := geo.Pt(24.0, 37.5)
	for i := 0; i < n; i++ {
		speed, course := fn(i)
		pts = append(pts, model.Position{
			EntityID: "V", TS: int64(i*stepS) * 1000, Pt: pt,
			SpeedMS: speed, CourseDeg: course,
		})
		pt = geo.Destination(pt, course, speed*float64(stepS))
	}
	return pts
}

func kinds(cps []CriticalPoint) map[Kind]int {
	out := map[Kind]int{}
	for _, cp := range cps {
		out[cp.Kind]++
	}
	return out
}

// TestSteadyCruiseEmitsNothing is the compression claim in miniature: a
// straight, steady track is entirely non-critical.
func TestSteadyCruiseEmitsNothing(t *testing.T) {
	got := feed(track(360, 10, func(int) (float64, float64) { return 8, 90 }))
	if len(got) != 0 {
		t.Fatalf("steady cruise emitted %d critical points: %v", len(got), kinds(got))
	}
}

// TestStopDetection: a sustained low-speed episode emits exactly one Stop
// once StopMinDuration has elapsed; brief slowdowns emit none.
func TestStopDetection(t *testing.T) {
	// 2 minutes cruising, 5 minutes moored, 2 minutes cruising.
	pts := track(9*6, 10, func(i int) (float64, float64) {
		if i >= 12 && i < 42 {
			return 0.1, 90
		}
		return 8, 90
	})
	got := feed(pts)
	k := kinds(got)
	if k[Stop] != 1 {
		t.Fatalf("stops = %d, want exactly 1 per episode (all: %v)", k[Stop], k)
	}
	for _, cp := range got {
		if cp.Kind == Stop {
			if cp.DurationMS < DefaultMaritime().StopMinDuration.Milliseconds() {
				t.Errorf("stop emitted after only %dms dwell", cp.DurationMS)
			}
		}
	}

	// A 30-second slowdown (under StopMinDuration) is not a stop.
	brief := feed(track(30, 10, func(i int) (float64, float64) {
		if i >= 10 && i < 13 {
			return 0.1, 90
		}
		return 8, 90
	}))
	if k := kinds(brief); k[Stop] != 0 {
		t.Errorf("brief slowdown emitted %d stops", k[Stop])
	}
}

// TestTurnDetection: both a sharp corner and a slow arc crossing the
// cumulative threshold emit a Turn; sub-threshold wiggle does not.
func TestTurnDetection(t *testing.T) {
	// Sharp 90° corner.
	sharp := feed(track(20, 10, func(i int) (float64, float64) {
		if i >= 10 {
			return 8, 180
		}
		return 8, 90
	}))
	if k := kinds(sharp); k[Turn] != 1 {
		t.Errorf("sharp corner turns = %d, want 1 (%v)", k[Turn], k)
	}

	// Slow arc: 2°/report accumulates and crosses the 15° threshold every
	// 8th report (16°), so 30 reports of arc = 60° emit 3 turns.
	arc := feed(track(31, 10, func(i int) (float64, float64) {
		return 8, 90 + 2*float64(i)
	}))
	if k := kinds(arc); k[Turn] != 3 {
		t.Errorf("slow arc turns = %d, want 3 (16° accumulated per emission)", k[Turn])
	}

	// Alternating ±2° wiggle never accumulates.
	wiggle := feed(track(60, 10, func(i int) (float64, float64) {
		if i%2 == 0 {
			return 8, 90
		}
		return 8, 92
	}))
	if k := kinds(wiggle); k[Turn] != 0 {
		t.Errorf("wiggle turns = %d, want 0", k[Turn])
	}
}

// TestSpeedChangeDetection: a level shift beyond the fraction emits one
// SpeedChange and rebases the reference.
func TestSpeedChangeDetection(t *testing.T) {
	got := feed(track(40, 10, func(i int) (float64, float64) {
		if i >= 20 {
			return 12, 90 // +50% over the 8 m/s reference
		}
		return 8, 90
	}))
	k := kinds(got)
	if k[SpeedChange] != 1 {
		t.Fatalf("speed changes = %d, want 1 (%v)", k[SpeedChange], k)
	}
	for _, cp := range got {
		if cp.Kind == SpeedChange && cp.DeltaSpeedMS < 3.9 {
			t.Errorf("delta = %.2f m/s, want ≈ +4", cp.DeltaSpeedMS)
		}
	}

	// A 10% drift stays under the 25% threshold.
	drift := feed(track(40, 10, func(i int) (float64, float64) {
		if i >= 20 {
			return 8.8, 90
		}
		return 8, 90
	}))
	if k := kinds(drift); k[SpeedChange] != 0 {
		t.Errorf("drift speed changes = %d, want 0", k[SpeedChange])
	}
}

// TestGapDetection: silence beyond GapDuration emits a GapStart annotating
// the last pre-gap report and a GapEnd at the first post-gap report, and
// movement baselines reset across the gap (no turn fires from the course
// difference spanning it).
func TestGapDetection(t *testing.T) {
	pre := track(10, 10, func(int) (float64, float64) { return 8, 90 })
	post := track(10, 10, func(int) (float64, float64) { return 8, 270 })
	gapMS := (20 * time.Minute).Milliseconds()
	for i := range post {
		post[i].TS += pre[len(pre)-1].TS + gapMS
	}
	got := feed(append(pre, post...))
	k := kinds(got)
	if k[GapStart] != 1 || k[GapEnd] != 1 {
		t.Fatalf("gap points = %v, want one start + one end", k)
	}
	if k[Turn] != 0 {
		t.Errorf("turn fired across the gap: %v", k)
	}
	for _, cp := range got {
		switch cp.Kind {
		case GapStart:
			if cp.Pos.TS != pre[len(pre)-1].TS {
				t.Errorf("gap-start at TS %d, want last pre-gap report %d", cp.Pos.TS, pre[len(pre)-1].TS)
			}
			if cp.DurationMS != gapMS {
				t.Errorf("gap-start duration = %d, want %d", cp.DurationMS, gapMS)
			}
		case GapEnd:
			if cp.Pos.TS != post[0].TS {
				t.Errorf("gap-end at TS %d, want first post-gap report %d", cp.Pos.TS, post[0].TS)
			}
		}
	}
}

// TestStopSuppressesTurnAndSpeed: course/speed noise while moored must not
// emit movement points, and departure rebases cleanly.
func TestStopSuppressesTurnAndSpeed(t *testing.T) {
	pts := track(60, 10, func(i int) (float64, float64) {
		if i >= 10 && i < 50 {
			// Moored: near-zero speed, wildly swinging reported course.
			return 0.1, float64((i * 73) % 360)
		}
		return 8, 90
	})
	got := feed(pts)
	k := kinds(got)
	if k[Turn] != 0 || k[SpeedChange] != 0 {
		t.Errorf("moored noise emitted movement points: %v", k)
	}
	if k[Stop] != 1 {
		t.Errorf("stops = %d, want 1", k[Stop])
	}
}

// TestDetectorDeterministicResume: snapshotting the detector mid-stream and
// resuming on a fresh instance must emit exactly the same critical points
// as an uninterrupted run — the property the durability protocol relies on.
func TestDetectorDeterministicResume(t *testing.T) {
	pts := track(200, 10, func(i int) (float64, float64) {
		speed := 8.0
		course := 90.0
		switch {
		case i >= 30 && i < 45:
			speed = 0.2
		case i >= 60 && i < 90:
			course = 90 + 3*float64(i-60)
		case i >= 120 && i < 150:
			speed = 14
		}
		return speed, course
	})

	full := feed(pts)

	cut := 97
	d1 := NewDetector(DefaultMaritime())
	var resumed []CriticalPoint
	for _, p := range pts[:cut] {
		resumed = d1.Observe(p, resumed)
	}
	d2 := NewDetector(DefaultMaritime())
	d2.Restore(d1.State())
	for _, p := range pts[cut:] {
		resumed = d2.Observe(p, resumed)
	}

	if len(full) != len(resumed) {
		t.Fatalf("uninterrupted %d points, resumed %d", len(full), len(resumed))
	}
	for i := range full {
		if full[i] != resumed[i] {
			t.Errorf("point %d differs: %+v vs %+v", i, full[i], resumed[i])
		}
	}
	if d2.Raw() != int64(len(pts)) {
		t.Errorf("raw = %d, want %d", d2.Raw(), len(pts))
	}
}

// TestOutOfOrderAndDuplicateTimestamps: non-advancing timestamps are
// ignored for detection (replay determinism), not misinterpreted.
func TestOutOfOrderAndDuplicateTimestamps(t *testing.T) {
	pts := track(20, 10, func(int) (float64, float64) { return 8, 90 })
	withDups := make([]model.Position, 0, len(pts)*2)
	for i, p := range pts {
		withDups = append(withDups, p)
		if i%3 == 0 {
			dup := p
			dup.CourseDeg = 270 // a rebinding bug would see a huge turn
			withDups = append(withDups, dup)
		}
	}
	if got := feed(withDups); len(got) != 0 {
		t.Errorf("duplicate timestamps emitted %d points: %v", len(got), kinds(got))
	}
}

// TestConfigDefaults: each domain gets its own thresholds, and every kind
// has a wire name.
func TestConfigDefaults(t *testing.T) {
	if ForDomain(model.Maritime) != DefaultMaritime() || ForDomain(model.Aviation) != DefaultAviation() {
		t.Errorf("ForDomain = %+v / %+v", ForDomain(model.Maritime), ForDomain(model.Aviation))
	}
	for k := Stop; k < kindCount; k++ {
		if k.String() == "unknown" {
			t.Errorf("kind %d has no name", k)
		}
	}
}
