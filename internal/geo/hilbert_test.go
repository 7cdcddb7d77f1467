package geo

import (
	"testing"
	"testing/quick"
)

func TestHilbertOrder1(t *testing.T) {
	h := NewHilbertCurve(1)
	// Canonical order-1 curve: (0,0)→(0,1)→(1,1)→(1,0).
	want := map[[2]uint32]uint64{
		{0, 0}: 0, {0, 1}: 1, {1, 1}: 2, {1, 0}: 3,
	}
	for xy, d := range want {
		if got := h.Index(xy[0], xy[1]); got != d {
			t.Errorf("Index(%d,%d) = %d, want %d", xy[0], xy[1], got, d)
		}
	}
}

func TestHilbertRoundTrip(t *testing.T) {
	for _, order := range []uint{1, 2, 4, 8} {
		h := NewHilbertCurve(order)
		side := h.Side()
		step := uint32(1)
		if side > 64 {
			step = side / 64
		}
		for x := uint32(0); x < side; x += step {
			for y := uint32(0); y < side; y += step {
				d := h.Index(x, y)
				gx, gy := h.XY(d)
				if gx != x || gy != y {
					t.Fatalf("order %d: XY(Index(%d,%d)) = (%d,%d)", order, x, y, gx, gy)
				}
			}
		}
	}
}

func TestHilbertBijectionQuick(t *testing.T) {
	h := NewHilbertCurve(10)
	f := func(x, y uint32) bool {
		x %= h.Side()
		y %= h.Side()
		gx, gy := h.XY(h.Index(x, y))
		return gx == x && gy == y
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestHilbertAdjacency(t *testing.T) {
	// Consecutive Hilbert indexes must be adjacent cells (Manhattan dist 1).
	h := NewHilbertCurve(4)
	px, py := h.XY(0)
	for d := uint64(1); d <= h.MaxIndex(); d++ {
		x, y := h.XY(d)
		dx := int64(x) - int64(px)
		dy := int64(y) - int64(py)
		if dx < 0 {
			dx = -dx
		}
		if dy < 0 {
			dy = -dy
		}
		if dx+dy != 1 {
			t.Fatalf("indexes %d and %d are not adjacent: (%d,%d)→(%d,%d)", d-1, d, px, py, x, y)
		}
		px, py = x, y
	}
}

func TestHilbertClamping(t *testing.T) {
	h := NewHilbertCurve(2)
	if got := h.Index(1000, 1000); got != h.Index(h.Side()-1, h.Side()-1) {
		t.Error("coordinates should clamp to grid")
	}
	if NewHilbertCurve(0).Order != 1 {
		t.Error("order should clamp to ≥1")
	}
	if NewHilbertCurve(64).Order != 31 {
		t.Error("order should clamp to ≤31")
	}
}

func TestHilbertPointIndex(t *testing.T) {
	h := NewHilbertCurve(8)
	box := NewBBox(0, 0, 10, 10)
	// Corners map to valid indexes.
	for _, p := range []Point{Pt(0, 0), Pt(10, 10), Pt(0, 10), Pt(10, 0), Pt(5, 5)} {
		d := h.PointIndex(box, p)
		if d > h.MaxIndex() {
			t.Errorf("PointIndex(%v) = %d out of range", p, d)
		}
	}
	// Outside points clamp rather than wrap.
	dOut := h.PointIndex(box, Pt(-100, -100))
	dCorner := h.PointIndex(box, Pt(0, 0))
	if dOut != dCorner {
		t.Errorf("outside point should clamp to corner: %d vs %d", dOut, dCorner)
	}
}

func TestHilbertLocalityBeatsRowMajor(t *testing.T) {
	// For vertical neighbour cells (x,y)→(x,y+1) the row-major index jump is
	// always `side`; the Hilbert curve's mean jump must be smaller. This is
	// the property the spatial partitioner relies on (claim E3).
	h := NewHilbertCurve(8)
	side := h.Side()
	var sum, n float64
	for x := uint32(0); x < side; x += 7 {
		for y := uint32(0); y+1 < side; y += 7 {
			d1 := h.Index(x, y)
			d2 := h.Index(x, y+1)
			diff := int64(d1) - int64(d2)
			if diff < 0 {
				diff = -diff
			}
			sum += float64(diff)
			n++
		}
	}
	mean := sum / n
	if mean >= float64(side) {
		t.Errorf("mean Hilbert jump %.1f not better than row-major %d", mean, side)
	}
}
