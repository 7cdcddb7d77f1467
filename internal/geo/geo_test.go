package geo

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestHaversineKnownDistances(t *testing.T) {
	tests := []struct {
		name string
		a, b Point
		want float64 // metres
		tol  float64
	}{
		{"same point", Pt(23.6, 37.9), Pt(23.6, 37.9), 0, 0.001},
		{"one degree lat at equator", Pt(0, 0), Pt(0, 1), 111195, 100},
		{"one degree lon at equator", Pt(0, 0), Pt(1, 0), 111195, 100},
		{"piraeus to heraklion", Pt(23.647, 37.942), Pt(25.144, 35.339), 319000, 5000},
		{"across antimeridian", Pt(179.5, 0), Pt(-179.5, 0), 111195, 100},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Haversine(tc.a, tc.b)
			if !almostEq(got, tc.want, tc.tol) {
				t.Errorf("Haversine(%v,%v) = %.1f, want %.1f ± %.1f", tc.a, tc.b, got, tc.want, tc.tol)
			}
		})
	}
}

func TestHaversineSymmetric(t *testing.T) {
	f := func(lon1, lat1, lon2, lat2 float64) bool {
		a := Pt(NormalizeLon(lon1), math.Mod(lat1, 90)).Normalize()
		b := Pt(NormalizeLon(lon2), math.Mod(lat2, 90)).Normalize()
		return almostEq(Haversine(a, b), Haversine(b, a), 1e-6)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHaversineTriangleInequality(t *testing.T) {
	f := func(lon1, lat1, lon2, lat2, lon3, lat3 float64) bool {
		a := Pt(NormalizeLon(lon1), math.Mod(lat1, 90))
		b := Pt(NormalizeLon(lon2), math.Mod(lat2, 90))
		c := Pt(NormalizeLon(lon3), math.Mod(lat3, 90))
		// Allow a small tolerance for floating-point error.
		return Haversine(a, c) <= Haversine(a, b)+Haversine(b, c)+1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDist3D(t *testing.T) {
	a := Pt3(23.0, 37.0, 0)
	b := Pt3(23.0, 37.0, 3000)
	if got := Dist3D(a, b); !almostEq(got, 3000, 0.01) {
		t.Errorf("vertical Dist3D = %f, want 3000", got)
	}
	c := Pt3(24.0, 37.0, 0)
	surf := Haversine(a, c)
	if got := Dist3D(a, c); !almostEq(got, surf, 0.01) {
		t.Errorf("surface Dist3D = %f, want %f", got, surf)
	}
	// 3-4-5 style check: vertical leg much smaller than horizontal.
	d := Dist3D(a, Pt3(24.0, 37.0, 1000))
	want := math.Hypot(surf, 1000)
	if !almostEq(d, want, 0.01) {
		t.Errorf("Dist3D = %f, want %f", d, want)
	}
}

func TestBearingCardinal(t *testing.T) {
	origin := Pt(10, 45)
	tests := []struct {
		name string
		to   Point
		want float64
	}{
		{"north", Pt(10, 46), 0},
		{"east", Pt(11, 45), 90},
		{"south", Pt(10, 44), 180},
		{"west", Pt(9, 45), 270},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			got := Bearing(origin, tc.to)
			// East/west bearings deviate slightly from 90/270 off the equator.
			if math.Abs(AngleDiff(got, tc.want)) > 0.5 {
				t.Errorf("Bearing = %f, want %f", got, tc.want)
			}
		})
	}
}

func TestDestinationRoundTrip(t *testing.T) {
	f := func(lonSeed, latSeed, brgSeed, distSeed float64) bool {
		start := Pt(math.Mod(lonSeed, 170), math.Mod(latSeed, 80))
		brg := math.Mod(math.Abs(brgSeed), 360)
		dist := math.Mod(math.Abs(distSeed), 500000) // up to 500 km
		end := Destination(start, brg, dist)
		back := Haversine(start, end)
		return almostEq(back, dist, math.Max(1, dist*1e-9))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestDestinationCarriesAltitude(t *testing.T) {
	p := Pt3(20, 40, 9144)
	q := Destination(p, 45, 10000)
	if q.Alt != 9144 {
		t.Errorf("altitude dropped: got %f", q.Alt)
	}
}

func TestInterpolate(t *testing.T) {
	a, b := Pt3(20, 40, 0), Pt3(21, 41, 1000)
	mid := Interpolate(a, b, 0.5)
	if !almostEq(mid.Alt, 500, 1e-9) {
		t.Errorf("alt interpolation got %f, want 500", mid.Alt)
	}
	dA, dB := Haversine(a, mid), Haversine(mid, b)
	if !almostEq(dA, dB, 1) {
		t.Errorf("midpoint not equidistant: %f vs %f", dA, dB)
	}
	if got := Interpolate(a, b, 0); Haversine(got, a) > 0.001 {
		t.Errorf("f=0 should return start, got %v", got)
	}
	if got := Interpolate(a, b, 1); Haversine(got, b) > 0.5 {
		t.Errorf("f=1 should return end, got %v", got)
	}
	// Degenerate zero-length segment.
	same := Interpolate(a, a, 0.7)
	if Haversine(same, a) > 1e-9 {
		t.Errorf("degenerate interpolate moved: %v", same)
	}
}

func TestAngleDiff(t *testing.T) {
	tests := []struct{ a, b, want float64 }{
		{0, 90, 90},
		{90, 0, -90},
		{350, 10, 20},
		{10, 350, -20},
		{0, 180, 180},
		{180, 0, 180}, // convention: ties map to +180
		{45, 45, 0},
	}
	for _, tc := range tests {
		if got := AngleDiff(tc.a, tc.b); !almostEq(got, tc.want, 1e-9) {
			t.Errorf("AngleDiff(%f,%f) = %f, want %f", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestNormalizeLon(t *testing.T) {
	tests := []struct{ in, want float64 }{
		{0, 0}, {180, -180}, {-180, -180}, {190, -170}, {-190, 170}, {360, 0}, {540, -180}, {-540, -180},
	}
	for _, tc := range tests {
		if got := NormalizeLon(tc.in); !almostEq(got, tc.want, 1e-9) {
			t.Errorf("NormalizeLon(%f) = %f, want %f", tc.in, got, tc.want)
		}
	}
}

func TestNormalizeLonRange(t *testing.T) {
	f := func(lon float64) bool {
		if math.IsNaN(lon) || math.IsInf(lon, 0) {
			return true
		}
		got := NormalizeLon(lon)
		return got >= -180 && got < 180
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestUnitConversions(t *testing.T) {
	if !almostEq(Knots(1), 0.514444, 1e-9) {
		t.Error("Knots(1)")
	}
	if !almostEq(ToKnots(Knots(12.5)), 12.5, 1e-9) {
		t.Error("knots round trip")
	}
	if !almostEq(Feet(1), 0.3048, 1e-12) {
		t.Error("Feet(1)")
	}
	if !almostEq(ToFeet(Feet(35000)), 35000, 1e-6) {
		t.Error("feet round trip")
	}
	if !almostEq(NauticalMiles(1), 1852, 1e-9) {
		t.Error("NauticalMiles(1)")
	}
	if !almostEq(ToNauticalMiles(NauticalMiles(3)), 3, 1e-12) {
		t.Error("nm round trip")
	}
}

func BenchmarkHaversine(b *testing.B) {
	a, c := Pt(23.6, 37.9), Pt(25.1, 35.3)
	for i := 0; i < b.N; i++ {
		_ = Haversine(a, c)
	}
}
