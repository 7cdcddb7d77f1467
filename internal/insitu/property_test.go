package insitu

// Property-based tests of the threshold filter.

import (
	"math/rand"
	"testing"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// randomTrack builds a seeded random-walk trajectory.
func randomTrack(seed int64, n int) []model.Position {
	r := rand.New(rand.NewSource(seed))
	pts := make([]model.Position, n)
	pt := geo.Pt(23.5, 37.5)
	course := 90.0
	speed := 8.0
	for i := 0; i < n; i++ {
		pts[i] = model.Position{EntityID: "V", TS: int64(i) * 10000, Pt: pt, SpeedMS: speed, CourseDeg: course}
		course += r.NormFloat64() * 15
		speed += r.NormFloat64() * 0.5
		if speed < 0.5 {
			speed = 0.5
		}
		if speed > 12 {
			speed = 12
		}
		pt = geo.Destination(pt, course, speed*10)
	}
	return pts
}

func TestThresholdFilterMonotoneInThreshold(t *testing.T) {
	// A looser threshold must never keep more points.
	orig := randomTrack(99, 500)
	prevKept := 1 << 30
	for _, dist := range []float64{10, 50, 200, 1000} {
		f := NewThresholdFilter(ThresholdConfig{DistM: dist, MaxGapMS: 1 << 50})
		kept := 0
		for _, p := range orig {
			if f.Keep(p) {
				kept++
			}
		}
		if kept > prevKept {
			t.Fatalf("threshold %.0f kept %d > previous %d", dist, kept, prevKept)
		}
		prevKept = kept
	}
}
