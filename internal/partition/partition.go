// Package partition implements the "sophisticated RDF partitioning
// algorithms" (datAcron §2) that decide which shard of the parallel RDF
// store holds each spatiotemporally-anchored graph fragment. Four
// strategies are provided, compared by TestPartitionersOnSyntheticWorld
// (claim E3, DESIGN.md §4):
//
//   - Hash: uniform balance, but a range query must visit every shard.
//   - Grid: round-robin assignment of grid cells; prunes by bounding box.
//   - Hilbert: contiguous ranges of the Hilbert space-filling curve per
//     shard; prunes like Grid but keeps spatial locality, so queries touch
//     fewer shards.
//   - Temporal: contiguous time slices per shard; prunes by time range.
package partition

import (
	"fmt"
	"hash/fnv"
	"sort"

	"github.com/datacron-project/datacron/internal/geo"
)

// Partitioner assigns spatiotemporal graph fragments to shards and prunes
// shards for range queries.
type Partitioner interface {
	// Name identifies the strategy in reports.
	Name() string
	// Shards returns the number of shards.
	Shards() int
	// Assign returns the shard for a fragment anchored at (key, pt, ts):
	// key is the fragment's subject (used by hash partitioning), pt/ts its
	// spatiotemporal anchor.
	Assign(key string, pt geo.Point, ts int64) int
	// Candidates returns the shards that can hold fragments intersecting
	// the given box and time range. It must be a superset of the truth.
	Candidates(box geo.BBox, fromTS, toTS int64) []int
}

// allShards returns [0..n).
func allShards(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

// Hash partitions by FNV hash of the subject key. Perfect balance, no
// pruning — the baseline every distributed RDF store starts from.
type Hash struct{ N int }

// NewHash returns a hash partitioner over n shards (≥1).
func NewHash(n int) *Hash {
	if n < 1 {
		n = 1
	}
	return &Hash{N: n}
}

// Name implements Partitioner.
func (h *Hash) Name() string { return fmt.Sprintf("hash(%d)", h.N) }

// Shards implements Partitioner.
func (h *Hash) Shards() int { return h.N }

// Assign implements Partitioner.
func (h *Hash) Assign(key string, _ geo.Point, _ int64) int {
	f := fnv.New32a()
	f.Write([]byte(key))
	return int(f.Sum32() % uint32(h.N))
}

// Candidates implements Partitioner: hash placement cannot prune.
func (h *Hash) Candidates(geo.BBox, int64, int64) []int { return allShards(h.N) }

// Grid partitions by assigning each cell of a uniform grid to a shard
// round-robin.
type Grid struct {
	G geo.Grid
	N int
}

// NewGrid returns a grid partitioner with the given grid over n shards.
func NewGrid(g geo.Grid, n int) *Grid {
	if n < 1 {
		n = 1
	}
	return &Grid{G: g, N: n}
}

// Name implements Partitioner.
func (g *Grid) Name() string { return fmt.Sprintf("grid(%dx%d,%d)", g.G.Cols, g.G.Rows, g.N) }

// Shards implements Partitioner.
func (g *Grid) Shards() int { return g.N }

// Assign implements Partitioner.
func (g *Grid) Assign(_ string, pt geo.Point, _ int64) int {
	return g.G.CellID(pt) % g.N
}

// Candidates implements Partitioner.
func (g *Grid) Candidates(box geo.BBox, _, _ int64) []int {
	cells := g.G.CellsIn(box)
	seen := make(map[int]struct{}, g.N)
	var out []int
	for _, c := range cells {
		s := c % g.N
		if _, dup := seen[s]; !dup {
			seen[s] = struct{}{}
			out = append(out, s)
		}
	}
	sort.Ints(out)
	return out
}

// Hilbert partitions by splitting the Hilbert-curve index range over the
// world box into N contiguous sub-ranges, one per shard. Spatial locality
// on the curve means a small query box maps to few shards.
type Hilbert struct {
	Box   geo.BBox
	Curve geo.HilbertCurve
	N     int
}

// NewHilbert returns a Hilbert partitioner of the given curve order.
func NewHilbert(box geo.BBox, order uint, n int) *Hilbert {
	if n < 1 {
		n = 1
	}
	return &Hilbert{Box: box, Curve: geo.NewHilbertCurve(order), N: n}
}

// Name implements Partitioner.
func (h *Hilbert) Name() string { return fmt.Sprintf("hilbert(2^%d,%d)", h.Curve.Order, h.N) }

// Shards implements Partitioner.
func (h *Hilbert) Shards() int { return h.N }

// shardOf maps a Hilbert index to its contiguous range owner.
func (h *Hilbert) shardOf(idx uint64) int {
	span := h.Curve.MaxIndex() + 1
	s := int(idx * uint64(h.N) / span)
	if s >= h.N {
		s = h.N - 1
	}
	return s
}

// Assign implements Partitioner.
func (h *Hilbert) Assign(_ string, pt geo.Point, _ int64) int {
	return h.shardOf(h.Curve.PointIndex(h.Box, pt))
}

// cellCoord maps a fraction in [0,1] to a curve cell coordinate using the
// same mapping as geo.HilbertCurve.PointIndex, so Candidates enumerates
// exactly the cells Assign can produce.
func (h *Hilbert) cellCoord(f float64) uint32 {
	if f < 0 {
		f = 0
	}
	if f > 1 {
		f = 1
	}
	return uint32(f * float64(h.Curve.Side()-1))
}

// Candidates implements Partitioner: enumerate the exact curve cells the
// query box covers and collect their range owners. For boxes covering a
// very large number of cells it falls back to all shards (still a strict
// superset, and such queries cannot be pruned meaningfully anyway).
func (h *Hilbert) Candidates(box geo.BBox, _, _ int64) []int {
	inter := h.Box.Intersection(box)
	if inter.IsEmpty() {
		return nil
	}
	x0 := h.cellCoord((inter.MinLon - h.Box.MinLon) / h.Box.WidthDeg())
	x1 := h.cellCoord((inter.MaxLon - h.Box.MinLon) / h.Box.WidthDeg())
	y0 := h.cellCoord((inter.MinLat - h.Box.MinLat) / h.Box.HeightDeg())
	y1 := h.cellCoord((inter.MaxLat - h.Box.MinLat) / h.Box.HeightDeg())
	if (uint64(x1-x0)+1)*(uint64(y1-y0)+1) > 1<<16 {
		return allShards(h.N)
	}
	seen := make(map[int]struct{}, h.N)
	var out []int
	for x := x0; x <= x1; x++ {
		for y := y0; y <= y1; y++ {
			s := h.shardOf(h.Curve.Index(x, y))
			if _, dup := seen[s]; !dup {
				seen[s] = struct{}{}
				out = append(out, s)
			}
		}
	}
	sort.Ints(out)
	return out
}

// Temporal partitions a fixed time horizon into N contiguous slices.
type Temporal struct {
	FromTS, ToTS int64
	N            int
}

// NewTemporal returns a temporal partitioner over [fromTS, toTS).
func NewTemporal(fromTS, toTS int64, n int) *Temporal {
	if n < 1 {
		n = 1
	}
	if toTS <= fromTS {
		toTS = fromTS + 1
	}
	return &Temporal{FromTS: fromTS, ToTS: toTS, N: n}
}

// Name implements Partitioner.
func (t *Temporal) Name() string { return fmt.Sprintf("temporal(%d)", t.N) }

// Shards implements Partitioner.
func (t *Temporal) Shards() int { return t.N }

// Assign implements Partitioner.
func (t *Temporal) Assign(_ string, _ geo.Point, ts int64) int {
	if ts < t.FromTS {
		return 0
	}
	if ts >= t.ToTS {
		return t.N - 1
	}
	return int((ts - t.FromTS) * int64(t.N) / (t.ToTS - t.FromTS))
}

// Candidates implements Partitioner.
func (t *Temporal) Candidates(_ geo.BBox, fromTS, toTS int64) []int {
	lo := t.Assign("", geo.Point{}, fromTS)
	hi := t.Assign("", geo.Point{}, toTS)
	out := make([]int, 0, hi-lo+1)
	for s := lo; s <= hi; s++ {
		out = append(out, s)
	}
	return out
}
