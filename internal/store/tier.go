package store

import (
	"slices"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/rdf"
)

// anchorIndex is one tier's slice of a shard's spatiotemporal index: the
// anchors in insertion order and the grid cells pointing into them. The
// head tier owns one and hands it over whole to the segment it seals into.
type anchorIndex struct {
	grid    geo.Grid
	entries []anchor
	cells   map[int][]int32 // grid cell → indexes into entries
}

func newAnchorIndex(grid geo.Grid) anchorIndex {
	return anchorIndex{grid: grid, cells: make(map[int][]int32)}
}

// add registers one anchor.
func (ai *anchorIndex) add(a anchor) {
	cell := ai.grid.CellID(a.pt)
	ai.cells[cell] = append(ai.cells[cell], int32(len(ai.entries)))
	ai.entries = append(ai.entries, a)
}

// without returns a copy of the index minus the anchors of the given nodes.
func (ai anchorIndex) without(nodes map[rdf.ID]bool) anchorIndex {
	out := newAnchorIndex(ai.grid)
	for _, e := range ai.entries {
		if !nodes[e.node] {
			out.add(e)
		}
	}
	return out
}

// segment is one sealed tier of a shard: an immutable rdf.Segment plus the
// slice of the spatiotemporal index that was sealed with it and the
// per-segment statistics (anchor time range and bounding box) that drive
// retention and let a range scan skip the segment.
type segment struct {
	id  uint64
	g   *rdf.Segment
	idx anchorIndex
	// Anchor statistics; zero-anchor segments carry an empty box and are
	// never skipped or retained away.
	minTS, maxTS int64
	box          geo.BBox
}

// newSegment files g and its anchors as the sealed tier id. The statistics
// are always computed from the anchors present, never trusted from a file:
// range scans and retention must match the data actually held.
func newSegment(id uint64, g *rdf.Segment, idx anchorIndex) *segment {
	seg := &segment{id: id, g: g, idx: idx}
	seg.minTS, seg.maxTS, seg.box = anchorStats(idx.entries)
	return seg
}

// anchorStats computes the time range and bounding box of a sealed entry
// set.
func anchorStats(entries []anchor) (minTS, maxTS int64, box geo.BBox) {
	box = geo.EmptyBBox()
	for i, e := range entries {
		if i == 0 || e.ts < minTS {
			minTS = e.ts
		}
		if i == 0 || e.ts > maxTS {
			maxTS = e.ts
		}
		box = box.Extend(e.pt)
	}
	return minTS, maxTS, box
}

// TierPolicy parameterises seal and retention decisions. The zero value
// never seals and never drops.
type TierPolicy struct {
	// SealTriples seals a shard's head once it holds at least this many
	// triples (0 = no size trigger).
	SealTriples int
	// SealAfter seals a shard's head once its oldest anchor is this much
	// older than the stream clock (0 = no age trigger).
	SealAfter time.Duration
	// Retention drops whole sealed segments whose newest anchor is older
	// than the stream clock minus this window (0 = keep forever).
	Retention time.Duration
}

// Active reports whether the policy can ever seal or drop anything.
func (pol TierPolicy) Active() bool {
	return pol.SealTriples > 0 || pol.SealAfter > 0 || pol.Retention > 0
}

// MaintainStats reports what one Maintain pass did.
type MaintainStats struct {
	// Sealed segments created and the triples they absorbed.
	Sealed        int
	SealedTriples int
	// Dropped segments removed by retention and the triples they held.
	Dropped        int
	DroppedTriples int
}

// Maintain applies the tier policy to every shard: heads exceeding the
// seal thresholds (or any non-empty head, when force is set) are sealed
// into immutable segments, and sealed segments outside the retention
// window are dropped wholesale — anchors, triples and statistics together,
// which is what bounds memory under infinite ingest. Writers to a shard
// are excluded while it is maintained (per-shard write lock); for an
// atomic cut across the whole pipeline run it under the ingest barrier
// (core.Pipeline.MaintainStore does).
func (s *Sharded) Maintain(pol TierPolicy, force bool) MaintainStats {
	var st MaintainStats
	now := s.maxTS.Load()
	for _, sh := range s.shards {
		sh.mu.Lock()
		if s.shouldSeal(sh, pol, force, now) {
			if n := s.sealLocked(sh); n > 0 {
				st.Sealed++
				st.SealedTriples += n
			}
		}
		if pol.Retention > 0 && now > 0 {
			cutoff := now - pol.Retention.Milliseconds()
			kept := sh.segs[:0]
			for _, seg := range sh.segs {
				if len(seg.idx.entries) > 0 && seg.maxTS < cutoff {
					st.Dropped++
					st.DroppedTriples += seg.g.Len()
					continue
				}
				kept = append(kept, seg)
			}
			// Let dropped segments be collected.
			for i := len(kept); i < len(sh.segs); i++ {
				sh.segs[i] = nil
			}
			sh.segs = kept
		}
		sh.mu.Unlock()
	}
	s.seals.Add(int64(st.Sealed))
	s.segsDropped.Add(int64(st.Dropped))
	s.triplesDropped.Add(int64(st.DroppedTriples))
	return st
}

// shouldSeal decides whether a shard's head is due, under the shard lock.
func (s *Sharded) shouldSeal(sh *Shard, pol TierPolicy, force bool, now int64) bool {
	n := sh.head.Len()
	if n == 0 {
		return false
	}
	if force {
		return true
	}
	if pol.SealTriples > 0 && n >= pol.SealTriples {
		return true
	}
	if pol.SealAfter > 0 && len(sh.idx.entries) > 0 && now > 0 {
		oldest, _, _ := anchorStats(sh.idx.entries)
		if now-oldest >= pol.SealAfter.Milliseconds() {
			return true
		}
	}
	return false
}

// sealLocked converts the shard's head into a sealed segment under the
// caller-held write lock and returns the number of triples sealed: the
// head's runs merge into one, which becomes the segment. Triples whose
// subject is an anchored node (position and event fragments) form the
// segment; any residue (dimension triples that reached the head, e.g. from
// a snapshot loaded into an unprimed store) migrates to the never-retained
// global tier as one batch, so retention can never age out reference data.
func (s *Sharded) sealLocked(sh *Shard) int {
	if sh.head.Len() == 0 {
		return 0
	}
	anchored := make(map[rdf.ID]bool, len(sh.idx.entries))
	for _, e := range sh.idx.entries {
		anchored[e.node] = true
	}
	g := sh.head.Seal()
	var residue []rdf.Triple
	for _, t := range g.Triples() {
		if !anchored[t.S] {
			residue = append(residue, t)
		}
	}
	if len(residue) > 0 {
		sh.global.Insert(residue)
		g = rdf.NewSegment(s.dict, slices.DeleteFunc(slices.Clone(g.Triples()), func(t rdf.Triple) bool { return !anchored[t.S] }))
	}
	if g.Len() > 0 || len(sh.idx.entries) > 0 {
		sh.segs = append(sh.segs, newSegment(s.nextSegID.Add(1), g, sh.idx))
	}
	sh.head = rdf.NewHead(s.dict)
	sh.idx = newAnchorIndex(sh.idx.grid)
	return g.Len()
}

// TierSnapshot is a point-in-time summary of the store's tier layout.
type TierSnapshot struct {
	// HeadTriples / SealedTriples / GlobalTriples split Len() by tier.
	HeadTriples   int
	SealedTriples int
	GlobalTriples int
	// Segments is the live sealed-segment count across shards.
	Segments int
	// Lifetime maintenance counters.
	Seals           int64
	SegmentsDropped int64
	TriplesDropped  int64
}

// TierStats summarises the tier layout across shards.
func (s *Sharded) TierStats() TierSnapshot {
	snap := TierSnapshot{
		Seals:           s.seals.Load(),
		SegmentsDropped: s.segsDropped.Load(),
		TriplesDropped:  s.triplesDropped.Load(),
	}
	for _, sh := range s.shards {
		sh.mu.RLock()
		snap.HeadTriples += sh.head.Len()
		snap.GlobalTriples += sh.global.Len()
		snap.Segments += len(sh.segs)
		for _, seg := range sh.segs {
			snap.SealedTriples += seg.g.Len()
		}
		sh.mu.RUnlock()
	}
	return snap
}
