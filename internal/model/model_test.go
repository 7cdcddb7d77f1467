package model

import (
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
)

func TestPositionTime(t *testing.T) {
	p := Position{TS: 1489104000000} // 2017-03-10 00:00:00 UTC
	got := p.Time()
	want := time.Date(2017, 3, 10, 0, 0, 0, 0, time.UTC)
	if !got.Equal(want) {
		t.Errorf("Time() = %v, want %v", got, want)
	}
}

func TestDomainString(t *testing.T) {
	if Maritime.String() != "maritime" || Aviation.String() != "aviation" {
		t.Error("domain strings")
	}
	if Domain(9).String() != "domain(9)" {
		t.Errorf("unknown domain: %s", Domain(9))
	}
}

func TestNavStatusString(t *testing.T) {
	cases := map[NavStatus]string{
		StatusUnknown: "unknown", StatusUnderway: "underway", StatusAnchored: "anchored",
		StatusMoored: "moored", StatusFishing: "fishing", StatusClimbing: "climbing",
		StatusCruising: "cruising", StatusDescending: "descending", NavStatus(99): "unknown",
	}
	for s, want := range cases {
		if s.String() != want {
			t.Errorf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestEventOverlaps(t *testing.T) {
	base := Event{Type: "loitering", Entity: "V1", StartTS: 100, EndTS: 200}
	tests := []struct {
		name string
		o    Event
		want bool
	}{
		{"identical", base, true},
		{"overlap left", Event{Type: "loitering", Entity: "V1", StartTS: 50, EndTS: 150}, true},
		{"overlap right", Event{Type: "loitering", Entity: "V1", StartTS: 150, EndTS: 250}, true},
		{"touching", Event{Type: "loitering", Entity: "V1", StartTS: 200, EndTS: 300}, true},
		{"disjoint", Event{Type: "loitering", Entity: "V1", StartTS: 201, EndTS: 300}, false},
		{"other entity", Event{Type: "loitering", Entity: "V2", StartTS: 100, EndTS: 200}, false},
		{"other type", Event{Type: "rendezvous", Entity: "V1", StartTS: 100, EndTS: 200}, false},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if got := base.Overlaps(tc.o); got != tc.want {
				t.Errorf("Overlaps = %v, want %v", got, tc.want)
			}
		})
	}
}

func TestEventStringAndDuration(t *testing.T) {
	e := Event{Type: "rendezvous", Entity: "V1", Other: "V2", StartTS: 0, EndTS: 60000}
	if e.Duration() != time.Minute {
		t.Errorf("Duration = %v", e.Duration())
	}
	if s := e.String(); s == "" {
		t.Error("empty String()")
	}
	solo := Event{Type: "loitering", Entity: "V1"}
	if s := solo.String(); s == "" {
		t.Error("empty String() for single-entity event")
	}
}

func mkTraj(ts ...int64) *Trajectory {
	tr := &Trajectory{EntityID: "V1"}
	for i, t := range ts {
		tr.Points = append(tr.Points, Position{
			EntityID: "V1", TS: t,
			Pt: geo.Pt(20+float64(i)*0.01, 37),
		})
	}
	return tr
}

func TestTrajectoryAt(t *testing.T) {
	tr := &Trajectory{EntityID: "V1", Points: []Position{
		{TS: 0, Pt: geo.Pt(20, 37), SpeedMS: 5, CourseDeg: 90},
		{TS: 10000, Pt: geo.Pt(20.01, 37), SpeedMS: 7, CourseDeg: 90},
	}}
	mid, ok := tr.At(5000)
	if !ok {
		t.Fatal("At failed")
	}
	if mid.TS != 5000 {
		t.Errorf("TS = %d", mid.TS)
	}
	if mid.SpeedMS < 5.9 || mid.SpeedMS > 6.1 {
		t.Errorf("interpolated speed = %f, want 6", mid.SpeedMS)
	}
	wantLon := 20.005
	if mid.Pt.Lon < wantLon-0.0005 || mid.Pt.Lon > wantLon+0.0005 {
		t.Errorf("interpolated lon = %f, want ≈%f", mid.Pt.Lon, wantLon)
	}
	// Clamping.
	if p, _ := tr.At(-100); p.TS != 0 {
		t.Error("before-start should clamp to first point")
	}
	if p, _ := tr.At(99999); p.TS != 10000 {
		t.Error("after-end should clamp to last point")
	}
	if _, ok := (&Trajectory{}).At(0); ok {
		t.Error("empty trajectory At should report !ok")
	}
}

func TestTrajectoryAtCourseWrap(t *testing.T) {
	tr := &Trajectory{Points: []Position{
		{TS: 0, Pt: geo.Pt(20, 37), CourseDeg: 350},
		{TS: 1000, Pt: geo.Pt(20.001, 37.001), CourseDeg: 10},
	}}
	mid, _ := tr.At(500)
	// Interpolating 350°→10° through north should give ≈0°, not 180°.
	if mid.CourseDeg > 20 && mid.CourseDeg < 340 {
		t.Errorf("course interpolation crossed the long way: %f", mid.CourseDeg)
	}
}

func TestTrajectoryLengthAndSpan(t *testing.T) {
	tr := &Trajectory{Points: []Position{
		{TS: 0, Pt: geo.Pt(20, 37)},
		{TS: 60000, Pt: geo.Pt(20.1, 37)},
		{TS: 120000, Pt: geo.Pt(20.2, 37)},
	}}
	d := tr.LengthM()
	single := geo.Haversine(geo.Pt(20, 37), geo.Pt(20.1, 37))
	if d < 2*single*0.99 || d > 2*single*1.01 {
		t.Errorf("LengthM = %f, want ≈%f", d, 2*single)
	}
	if tr.TimeSpan() != 2*time.Minute {
		t.Errorf("TimeSpan = %v", tr.TimeSpan())
	}
}

func TestTrajectorySlice(t *testing.T) {
	tr := mkTraj(0, 1000, 2000, 3000, 4000)
	s := tr.Slice(1000, 3000)
	if s.Len() != 3 {
		t.Errorf("Slice len = %d, want 3", s.Len())
	}
	if s.Points[0].TS != 1000 || s.Points[2].TS != 3000 {
		t.Errorf("Slice bounds wrong: %v", s.Points)
	}
	if tr.Slice(9000, 10000).Len() != 0 {
		t.Error("out-of-range slice should be empty")
	}
}

func TestTrajectoryResample(t *testing.T) {
	tr := mkTraj(0, 10000, 20000)
	rs := tr.Resample(5 * time.Second)
	if rs.Len() != 5 {
		t.Errorf("Resample len = %d, want 5", rs.Len())
	}
	for i := 1; i < rs.Len(); i++ {
		if rs.Points[i].TS-rs.Points[i-1].TS != 5000 {
			t.Fatal("uneven resample step")
		}
	}
	if (&Trajectory{}).Resample(time.Second).Len() != 0 {
		t.Error("empty resample should be empty")
	}
	if tr.Resample(0).Len() != 0 {
		t.Error("non-positive step should yield empty")
	}
}

func TestTrajectoryClone(t *testing.T) {
	tr := mkTraj(0, 1000)
	cl := tr.Clone()
	cl.Points[0].TS = 999
	if tr.Points[0].TS == 999 {
		t.Error("Clone shares backing array")
	}
}
