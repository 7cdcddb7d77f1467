package model

import (
	"sort"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
)

// Trajectory is the time-ordered sequence of positions of one entity.
// Methods never mutate the receiver.
type Trajectory struct {
	EntityID string
	Domain   Domain
	Points   []Position
}

// Len returns the number of points.
func (t *Trajectory) Len() int { return len(t.Points) }

// Start returns the first timestamp, or 0 when empty.
func (t *Trajectory) Start() int64 {
	if len(t.Points) == 0 {
		return 0
	}
	return t.Points[0].TS
}

// End returns the last timestamp, or 0 when empty.
func (t *Trajectory) End() int64 {
	if len(t.Points) == 0 {
		return 0
	}
	return t.Points[len(t.Points)-1].TS
}

// TimeSpan returns the trajectory duration.
func (t *Trajectory) TimeSpan() time.Duration {
	return time.Duration(t.End()-t.Start()) * time.Millisecond
}

// LengthM returns the travelled distance in metres (3D for aviation).
func (t *Trajectory) LengthM() float64 {
	var sum float64
	for i := 1; i < len(t.Points); i++ {
		sum += geo.Dist3D(t.Points[i-1].Pt, t.Points[i].Pt)
	}
	return sum
}

// BBox returns the bounding box of all points.
func (t *Trajectory) BBox() geo.BBox {
	b := geo.EmptyBBox()
	for _, p := range t.Points {
		b = b.Extend(p.Pt)
	}
	return b
}

// At returns the interpolated position at timestamp ts. Outside the time
// span the nearest endpoint is returned. ok is false for empty trajectories.
func (t *Trajectory) At(ts int64) (pos Position, ok bool) {
	n := len(t.Points)
	if n == 0 {
		return Position{}, false
	}
	if ts <= t.Points[0].TS {
		return t.Points[0], true
	}
	if ts >= t.Points[n-1].TS {
		return t.Points[n-1], true
	}
	// Binary search for the segment containing ts.
	i := sort.Search(n, func(i int) bool { return t.Points[i].TS >= ts })
	a, b := t.Points[i-1], t.Points[i]
	if b.TS == a.TS {
		return a, true
	}
	f := float64(ts-a.TS) / float64(b.TS-a.TS)
	out := a
	out.TS = ts
	out.Pt = geo.Interpolate(a.Pt, b.Pt, f)
	out.SpeedMS = a.SpeedMS + f*(b.SpeedMS-a.SpeedMS)
	out.CourseDeg = a.CourseDeg + f*geo.AngleDiff(a.CourseDeg, b.CourseDeg)
	if out.CourseDeg < 0 {
		out.CourseDeg += 360
	}
	return out, true
}

// Slice returns the sub-trajectory with from ≤ TS ≤ to (points shared, not
// copied).
func (t *Trajectory) Slice(from, to int64) *Trajectory {
	lo := sort.Search(len(t.Points), func(i int) bool { return t.Points[i].TS >= from })
	hi := sort.Search(len(t.Points), func(i int) bool { return t.Points[i].TS > to })
	return &Trajectory{EntityID: t.EntityID, Domain: t.Domain, Points: t.Points[lo:hi]}
}

// Clone returns a deep copy.
func (t *Trajectory) Clone() *Trajectory {
	pts := make([]Position, len(t.Points))
	copy(pts, t.Points)
	return &Trajectory{EntityID: t.EntityID, Domain: t.Domain, Points: pts}
}

// Resample returns a new trajectory sampled every step from Start to End
// using At interpolation. Returns an empty trajectory when t has <2 points.
func (t *Trajectory) Resample(step time.Duration) *Trajectory {
	out := &Trajectory{EntityID: t.EntityID, Domain: t.Domain}
	if len(t.Points) < 2 || step <= 0 {
		return out
	}
	stepMS := step.Milliseconds()
	for ts := t.Start(); ts <= t.End(); ts += stepMS {
		p, _ := t.At(ts)
		out.Points = append(out.Points, p)
	}
	return out
}
