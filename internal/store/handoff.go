package store

import (
	"bufio"
	"fmt"
	"io"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/rdf"
)

// Hash-range handoff for cluster membership changes (DESIGN.md §14).
//
// A donor streams its anchored data as a sequence of blocks (block.go) —
// every sealed segment verbatim, plus one block per shard carrying the
// mutable head (the "head-replay tail") — over a single writer. A block
// carries its terms by value; the receiving node encodes them into its own
// dictionary. The target filters each block by anchor-node predicate (only
// fragments whose entity moved), installs idempotently (a fragment already
// present is skipped, making retries and re-ships safe), and the donor
// afterwards drops the moved fragments by rebuilding the affected tiers —
// rebuilt segments take fresh ids, because segment files are immutable and
// snapshot caches hard-link them by id.

// HandoffFragment is one anchored graph fragment in transit between nodes:
// term-level and self-contained (every triple is rooted at Node).
type HandoffFragment struct {
	Node    rdf.Term
	Pt      geo.Point
	TS      int64
	Triples []onto.TripleT
}

// WriteHandoff streams every anchored fragment of the store to w as
// blocks: per shard, every sealed segment, then one head block (id 0) if
// the head is non-empty. Global (dimension) triples are not shipped — the
// receiving node learns its own. Each shard is written under its read lock;
// for a consistent cut the caller quiesces ingest first (the cluster
// handoff path does).
func (s *Sharded) WriteHandoff(w io.Writer) error {
	out := bufio.NewWriterSize(w, 1<<16)
	bw := newBlockWriter(s.dict)
	for i, sh := range s.shards {
		if err := writeShardHandoff(bw, out, sh); err != nil {
			return fmt.Errorf("store: handoff shard %d: %w", i, err)
		}
	}
	return out.Flush()
}

func writeShardHandoff(bw *blockWriter, out *bufio.Writer, sh *Shard) error {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	for _, seg := range sh.segs {
		if err := bw.writeBlock(out, seg.id, seg.g, seg.idx.entries, false); err != nil {
			return err
		}
	}
	if sh.head.Len() == 0 && len(sh.idx.entries) == 0 {
		return nil
	}
	return bw.writeBlock(out, 0, sh.head, sh.idx.entries, false)
}

// ReadHandoff reads a handoff block stream, keeping only the fragments
// whose anchor-node IRI passes keep. Triples not rooted at a kept anchor
// (residue, other entities' fragments) are discarded — the donor retains
// them. Returns the kept fragments; the stream ends at EOF between blocks.
func ReadHandoff(r io.Reader, keep func(nodeIRI string) bool) ([]HandoffFragment, error) {
	br := newBlockReader(r)
	var frags []HandoffFragment
	for {
		// Group the block's triples by subject; fragments are rooted at
		// their anchor node, so this is a complete reconstruction.
		var terms []rdf.Term
		bySubject := make(map[uint32][]onto.TripleT)
		_, err := br.readBlock(blockSink{
			term: func(t rdf.Term) { terms = append(terms, t) },
			triple: func(s, p, o uint32) {
				bySubject[s] = append(bySubject[s], onto.TripleT{S: terms[s], P: terms[p], O: terms[o]})
			},
			anchor: func(ts int64, pt geo.Point, node uint32) {
				if keep(terms[node].Value) {
					frags = append(frags, HandoffFragment{Node: terms[node], Pt: pt, TS: ts, Triples: bySubject[node]})
				}
			},
		})
		if err == io.EOF {
			return frags, nil
		}
		if err != nil {
			return nil, fmt.Errorf("store: handoff: %w", err)
		}
	}
}

// InstallHandoff adds staged fragments to the store, skipping any whose
// anchor node is already present in its target shard — AddAnchored appends
// anchors unconditionally, so this presence check is what makes handoff
// retries (and donor re-ships after a crash) exactly-once. Returns how many
// fragments were installed and how many skipped as duplicates; it stops at
// the first fragment the store refuses (its dictionary is full), so a sum
// short of len(frags) means the rest were not installed.
func (s *Sharded) InstallHandoff(frags []HandoffFragment) (installed, skipped int) {
	for _, f := range frags {
		if s.hasAnchored(f) {
			skipped++
			continue
		}
		if s.AddAnchored(f.Node.Value, f.Pt, f.TS, f.Node, f.Triples) != nil {
			break
		}
		installed++
	}
	return installed, skipped
}

// hasAnchored reports whether the fragment's anchor node already has
// triples in the shard the partitioner assigns it to. A node absent from
// the dictionary is trivially absent.
func (s *Sharded) hasAnchored(f HandoffFragment) bool {
	id, ok := s.dict.Lookup(f.Node)
	if !ok {
		return false
	}
	sh := s.shards[s.part.Assign(f.Node.Value, f.Pt, f.TS)]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	probe := rdf.Triple{S: id, P: rdf.Wildcard, O: rdf.Wildcard}
	if holds(sh.head, probe) {
		return true
	}
	for _, seg := range sh.segs {
		if holds(seg.g, probe) {
			return true
		}
	}
	return false
}

// DropAnchored removes every anchored fragment whose anchor-node IRI passes
// drop — the donor side of a completed handoff. Affected heads and sealed
// segments are rebuilt without the dropped fragments; rebuilt segments take
// fresh ids from the store-wide counter (segment ids name immutable
// contents — snapshot caches hard-link by id, so a filtered segment must be
// a new segment). Segments left with neither anchors nor triples disappear.
// Returns the dropped fragment and triple counts.
func (s *Sharded) DropAnchored(drop func(nodeIRI string) bool) (fragments, triples int) {
	for _, sh := range s.shards {
		f, t := s.dropShard(sh, drop)
		fragments += f
		triples += t
	}
	return fragments, triples
}

func (s *Sharded) dropShard(sh *Shard, drop func(nodeIRI string) bool) (fragments, triples int) {
	sh.mu.Lock()
	defer sh.mu.Unlock()

	// droppedIn collects the anchored nodes of one tier that are leaving.
	droppedIn := func(idx anchorIndex) map[rdf.ID]bool {
		var out map[rdf.ID]bool
		for _, e := range idx.entries {
			if t, ok := s.dict.Decode(e.node); ok && drop(t.Value) {
				if out == nil {
					out = make(map[rdf.ID]bool)
				}
				out[e.node] = true
			}
		}
		return out
	}

	// without filters a tier's triples and anchors: what is kept is rebuilt,
	// what goes is counted. The anchored set decides; residue triples
	// (non-anchored subjects) stay.
	without := func(g rdf.Graph, idx anchorIndex, dropped map[rdf.ID]bool) ([]rdf.Triple, anchorIndex) {
		var kept []rdf.Triple
		for t := range rdf.Match(g, rdf.Wildcard, rdf.Wildcard, rdf.Wildcard) {
			if dropped[t.S] {
				triples++
			} else {
				kept = append(kept, t)
			}
		}
		keptIdx := idx.without(dropped)
		fragments += len(idx.entries) - len(keptIdx.entries)
		return kept, keptIdx
	}

	// Head: rebuilt without the dropped fragments.
	if dropped := droppedIn(sh.idx); dropped != nil {
		var kept []rdf.Triple
		kept, sh.idx = without(sh.head, sh.idx, dropped)
		sh.head = rdf.NewHead(s.dict)
		sh.head.Insert(kept)
	}

	// Sealed segments: untouched segments stay (same id, same file in any
	// snapshot cache); touched ones are rebuilt under a fresh id or removed.
	var segs []*segment
	for _, seg := range sh.segs {
		dropped := droppedIn(seg.idx)
		if dropped == nil {
			segs = append(segs, seg)
			continue
		}
		kept, keptIdx := without(seg.g, seg.idx, dropped)
		if len(kept) == 0 && len(keptIdx.entries) == 0 {
			s.segsDropped.Add(1)
			continue
		}
		segs = append(segs, newSegment(s.nextSegID.Add(1), rdf.NewSegment(s.dict, kept), keptIdx))
	}
	sh.segs = segs
	return fragments, triples
}

// EachAnchorNode calls fn with the IRI of every anchored fragment across
// all shards and tiers — the ownership census the cluster layer aggregates
// per entity (tests assert zero lost / zero double-owned fragments with
// it). Order is unspecified.
func (s *Sharded) EachAnchorNode(fn func(nodeIRI string)) {
	for _, sh := range s.shards {
		sh.mu.RLock()
		emit := func(entries []anchor) {
			for _, e := range entries {
				if t, ok := s.dict.Decode(e.node); ok {
					fn(t.Value)
				}
			}
		}
		for _, seg := range sh.segs {
			emit(seg.idx.entries)
		}
		emit(sh.idx.entries)
		sh.mu.RUnlock()
	}
}
