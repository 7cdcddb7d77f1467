package geo

// Hilbert space-filling curve utilities. The spatial RDF partitioners map a
// point to a cell of a 2^order × 2^order grid and then to its Hilbert index;
// contiguous Hilbert ranges are assigned to shards, which preserves spatial
// locality far better than row-major cell ids (claim E3, DESIGN.md §4).

// HilbertCurve maps between (x, y) cell coordinates and the one-dimensional
// Hilbert index for a square grid of side 2^Order.
type HilbertCurve struct {
	Order uint // grid is 2^Order on each side; Order must be in [1, 31]
}

// NewHilbertCurve returns a curve of the given order, clamped to [1, 31].
func NewHilbertCurve(order uint) HilbertCurve {
	if order < 1 {
		order = 1
	}
	if order > 31 {
		order = 31
	}
	return HilbertCurve{Order: order}
}

// Side returns the grid side length, 2^Order.
func (h HilbertCurve) Side() uint32 { return 1 << h.Order }

// MaxIndex returns the largest valid Hilbert index, Side^2 - 1.
func (h HilbertCurve) MaxIndex() uint64 {
	s := uint64(h.Side())
	return s*s - 1
}

// Index returns the Hilbert index of cell (x, y). Coordinates are clamped to
// the grid.
func (h HilbertCurve) Index(x, y uint32) uint64 {
	side := h.Side()
	if x >= side {
		x = side - 1
	}
	if y >= side {
		y = side - 1
	}
	var rx, ry uint32
	var d uint64
	for s := side / 2; s > 0; s /= 2 {
		if x&s > 0 {
			rx = 1
		} else {
			rx = 0
		}
		if y&s > 0 {
			ry = 1
		} else {
			ry = 0
		}
		d += uint64(s) * uint64(s) * uint64((3*rx)^ry)
		x, y = hilbertRot(s, x, y, rx, ry)
	}
	return d
}

// XY returns the cell coordinates of the given Hilbert index.
func (h HilbertCurve) XY(d uint64) (x, y uint32) {
	side := h.Side()
	t := d
	for s := uint32(1); s < side; s *= 2 {
		rx := uint32(1) & uint32(t/2)
		ry := uint32(1) & uint32(t^uint64(rx))
		x, y = hilbertRot(s, x, y, rx, ry)
		x += s * rx
		y += s * ry
		t /= 4
	}
	return x, y
}

// hilbertRot rotates/flips the quadrant as required by the curve recursion.
func hilbertRot(s, x, y, rx, ry uint32) (uint32, uint32) {
	if ry == 0 {
		if rx == 1 {
			x = s - 1 - x
			y = s - 1 - y
		}
		x, y = y, x
	}
	return x, y
}

// PointIndex maps a geographic point inside box to its Hilbert index on a
// curve of the given order. Points outside the box are clamped to it.
func (h HilbertCurve) PointIndex(box BBox, p Point) uint64 {
	side := float64(h.Side())
	fx := (p.Lon - box.MinLon) / box.WidthDeg()
	fy := (p.Lat - box.MinLat) / box.HeightDeg()
	fx = clamp01(fx)
	fy = clamp01(fy)
	x := uint32(fx * (side - 1))
	y := uint32(fy * (side - 1))
	return h.Index(x, y)
}

func clamp01(f float64) float64 {
	if f < 0 {
		return 0
	}
	if f > 1 {
		return 1
	}
	return f
}
