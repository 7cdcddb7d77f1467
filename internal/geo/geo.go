// Package geo provides the geographic and geometric primitives used across
// the datAcron reproduction: WGS-84 great-circle math, 3D distances for the
// aviation domain, bounding boxes, polygons, uniform grids and a Hilbert
// space-filling curve used by the spatial RDF partitioners.
//
// All angles are degrees unless a name says otherwise; all distances are
// metres; altitudes are metres above the reference ellipsoid. Longitudes are
// normalised to [-180, 180) and latitudes clamped to [-90, 90].
package geo

import (
	"fmt"
	"math"
)

// EarthRadiusM is the mean Earth radius in metres (IUGG mean radius R1).
const EarthRadiusM = 6371008.8

// Point is a geographic position. Alt is metres above the ellipsoid and is
// zero for surface (maritime) entities.
type Point struct {
	Lon float64
	Lat float64
	Alt float64
}

// Pt returns a surface point with the given longitude and latitude.
func Pt(lon, lat float64) Point { return Point{Lon: lon, Lat: lat} }

// Pt3 returns a point with altitude, used by the aviation (3D) domain.
func Pt3(lon, lat, alt float64) Point { return Point{Lon: lon, Lat: lat, Alt: alt} }

// String implements fmt.Stringer.
func (p Point) String() string {
	if p.Alt != 0 {
		return fmt.Sprintf("(%.6f,%.6f,%.0fm)", p.Lon, p.Lat, p.Alt)
	}
	return fmt.Sprintf("(%.6f,%.6f)", p.Lon, p.Lat)
}

// Normalize returns p with longitude wrapped to [-180, 180) and latitude
// clamped to [-90, 90].
func (p Point) Normalize() Point {
	p.Lon = NormalizeLon(p.Lon)
	p.Lat = math.Max(-90, math.Min(90, p.Lat))
	return p
}

// NormalizeLon wraps a longitude into [-180, 180).
func NormalizeLon(lon float64) float64 {
	lon = math.Mod(lon+180, 360)
	if lon < 0 {
		lon += 360
	}
	return lon - 180
}

// Radians converts degrees to radians.
func Radians(deg float64) float64 { return deg * math.Pi / 180 }

// Degrees converts radians to degrees.
func Degrees(rad float64) float64 { return rad * 180 / math.Pi }

// Haversine returns the great-circle surface distance between a and b in
// metres, ignoring altitude.
func Haversine(a, b Point) float64 {
	lat1, lat2 := Radians(a.Lat), Radians(b.Lat)
	dLat := lat2 - lat1
	dLon := Radians(b.Lon - a.Lon)
	sinLat := math.Sin(dLat / 2)
	sinLon := math.Sin(dLon / 2)
	h := sinLat*sinLat + math.Cos(lat1)*math.Cos(lat2)*sinLon*sinLon
	if h > 1 {
		h = 1
	}
	return 2 * EarthRadiusM * math.Asin(math.Sqrt(h))
}

// Dist3D returns the distance between a and b including the altitude
// difference, suitable for the aviation domain. The surface component uses
// the haversine distance, so this is exact for small altitude differences
// relative to the Earth radius (always true for aircraft).
func Dist3D(a, b Point) float64 {
	d := Haversine(a, b)
	dz := b.Alt - a.Alt
	return math.Hypot(d, dz)
}

// Bearing returns the initial great-circle bearing from a to b in degrees
// clockwise from true north, in [0, 360).
func Bearing(a, b Point) float64 {
	lat1, lat2 := Radians(a.Lat), Radians(b.Lat)
	dLon := Radians(b.Lon - a.Lon)
	y := math.Sin(dLon) * math.Cos(lat2)
	x := math.Cos(lat1)*math.Sin(lat2) - math.Sin(lat1)*math.Cos(lat2)*math.Cos(dLon)
	brg := Degrees(math.Atan2(y, x))
	return math.Mod(brg+360, 360)
}

// Destination returns the point reached by travelling dist metres from p on
// the given initial bearing (degrees from north) along a great circle.
// Altitude is carried over unchanged.
func Destination(p Point, bearingDeg, dist float64) Point {
	ad := dist / EarthRadiusM // angular distance
	brg := Radians(bearingDeg)
	lat1 := Radians(p.Lat)
	lon1 := Radians(p.Lon)
	sinLat2 := math.Sin(lat1)*math.Cos(ad) + math.Cos(lat1)*math.Sin(ad)*math.Cos(brg)
	lat2 := math.Asin(sinLat2)
	y := math.Sin(brg) * math.Sin(ad) * math.Cos(lat1)
	x := math.Cos(ad) - math.Sin(lat1)*sinLat2
	lon2 := lon1 + math.Atan2(y, x)
	return Point{Lon: NormalizeLon(Degrees(lon2)), Lat: Degrees(lat2), Alt: p.Alt}
}

// Interpolate returns the point a fraction f of the way from a to b along
// the great circle, with altitude interpolated linearly. f outside [0,1]
// extrapolates.
func Interpolate(a, b Point, f float64) Point {
	d := Haversine(a, b)
	if d == 0 {
		out := a
		out.Alt = a.Alt + f*(b.Alt-a.Alt)
		return out
	}
	brg := Bearing(a, b)
	out := Destination(a, brg, d*f)
	out.Alt = a.Alt + f*(b.Alt-a.Alt)
	return out
}

// Midpoint returns the point halfway between a and b along the great circle.
func Midpoint(a, b Point) Point { return Interpolate(a, b, 0.5) }

// AngleDiff returns the smallest signed difference b-a between two headings
// in degrees, in (-180, 180].
func AngleDiff(a, b float64) float64 {
	d := math.Mod(b-a+540, 360) - 180
	if d == -180 {
		return 180
	}
	return d
}

// Knots converts a speed in knots to metres per second.
func Knots(kn float64) float64 { return kn * 0.514444 }

// ToKnots converts a speed in metres per second to knots.
func ToKnots(ms float64) float64 { return ms / 0.514444 }

// Feet converts feet to metres.
func Feet(ft float64) float64 { return ft * 0.3048 }

// ToFeet converts metres to feet.
func ToFeet(m float64) float64 { return m / 0.3048 }

// NauticalMiles converts nautical miles to metres.
func NauticalMiles(nm float64) float64 { return nm * 1852 }

// ToNauticalMiles converts metres to nautical miles.
func ToNauticalMiles(m float64) float64 { return m / 1852 }
