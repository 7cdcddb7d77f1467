package store

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/rdf"
)

// Snapshot serialisation for the durable serving layer. A snapshot
// directory holds, per shard:
//
//	shard-NNN.nt        the mutable tiers (global + head) as canonical
//	                    N-Triples
//	shard-NNN.anchors   the head's spatiotemporal index, one anchor per line
//	shard-NNN.segments  the file names of the shard's sealed segments,
//	                    oldest first
//
// plus one seg-*.seg file per sealed segment. The byte layout of all of
// them is the block codec's (block.go); this file only decides which tier
// goes into which file. Segment files are immutable: they are written once
// into a shared cache directory and hard-linked into every snapshot that
// references them, so steady-state snapshots rewrite only the small head
// files.
//
// The flat v1 layout of earlier builds (no .segments file, every tier
// merged into the .nt/.anchors pair) is no longer written. It needs no
// reader of its own: it is the zero-segment case of the layout above, and
// loads into the head tier, from where the first seal re-tiers it.

// shardFile names a per-shard snapshot file.
func shardFile(dir string, i int, ext string) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%03d.%s", i, ext))
}

// segFileName names a sealed segment's file.
func segFileName(id uint64) string { return fmt.Sprintf("seg-%016x.seg", id) }

// WriteSnapshotTiered serialises every shard into dir, reusing immutable
// segment files through segCache (created if missing): a segment already in
// the cache is hard-linked, not rewritten. Each shard is written under its
// read lock; for a consistent multi-shard cut the caller must quiesce
// writers first (the core snapshot barrier does). Returns the number of
// segment files referenced.
func (s *Sharded) WriteSnapshotTiered(dir, segCache string) (segments int, err error) {
	if err := os.MkdirAll(segCache, 0o755); err != nil {
		return 0, fmt.Errorf("store: snapshot: %w", err)
	}
	for i, sh := range s.shards {
		n, err := s.writeShard(dir, segCache, i, sh)
		if err != nil {
			return segments, fmt.Errorf("store: snapshot shard %d: %w", i, err)
		}
		segments += n
	}
	return segments, nil
}

// writeShard writes one shard's mutable tiers and segment list and links
// its sealed segment files.
func (s *Sharded) writeShard(dir, segCache string, i int, sh *Shard) (segments int, err error) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()

	err = writeFile(shardFile(dir, i, "nt"), func(bw *bufio.Writer) error {
		return rdf.WriteNTriples(bw, rdf.NewView(s.dict, sh.global, sh.head))
	})
	if err != nil {
		return 0, err
	}
	err = writeFile(shardFile(dir, i, "anchors"), func(bw *bufio.Writer) error {
		return writeAnchors(bw, sh.idx.entries, s.dict)
	})
	if err != nil {
		return 0, err
	}

	for _, seg := range sh.segs {
		name := segFileName(seg.id)
		cached := filepath.Join(segCache, name)
		if _, statErr := os.Stat(cached); statErr != nil {
			if err := writeSegmentFile(cached, seg, s.dict); err != nil {
				return 0, err
			}
		}
		if err := linkOrCopy(cached, filepath.Join(dir, name)); err != nil {
			return 0, err
		}
	}
	// The list is what recovery and the segment-cache GC trust: a short
	// write here must fail the snapshot, not publish a manifest that names
	// fewer segments than the store holds.
	err = writeFile(shardFile(dir, i, "segments"), func(bw *bufio.Writer) error {
		for _, seg := range sh.segs {
			fmt.Fprintln(bw, segFileName(seg.id))
		}
		return nil
	})
	return len(sh.segs), err
}

// writeFile creates path and streams body into it through a buffered
// writer, returning the first error of body, the flush and the close.
func writeFile(path string, body func(*bufio.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<16)
	err = body(bw)
	if err == nil {
		err = bw.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// writeSegmentFile atomically writes one sealed segment as one block.
func writeSegmentFile(path string, seg *segment, dict *rdf.Dictionary) error {
	tmp := path + ".tmp"
	err := writeFile(tmp, func(bw *bufio.Writer) error {
		return writeBlock(bw, seg.id, seg.g, seg.idx.entries, seg.g.PredHistogram(), dict)
	})
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// readSegmentFile loads a segment file into a live segment over dict and
// grid.
func readSegmentFile(path string, dict *rdf.Dictionary, grid geo.Grid) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var triples []rdf.Triple
	idx := newAnchorIndex(grid)
	id, err := newBlockReader(f).readBlock(
		func(s, p, o rdf.Term) {
			triples = append(triples, rdf.Triple{S: dict.Encode(s), P: dict.Encode(p), O: dict.Encode(o)})
		},
		func(ts int64, pt geo.Point, iri string) {
			idx.add(anchor{pt: pt, ts: ts, node: dict.Encode(rdf.NewIRI(iri))})
		})
	if err != nil {
		return nil, err // io.EOF: the file is empty
	}
	return newSegment(id, dict, triples, idx), nil
}

// linkOrCopy hard-links src to dst, falling back to a byte copy on
// filesystems without hard links. An existing dst is replaced.
func linkOrCopy(src, dst string) error {
	if err := os.Remove(dst); err != nil && !os.IsNotExist(err) {
		return err
	}
	if err := os.Link(src, dst); err == nil {
		return nil
	}
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// LoadSnapshot restores shard contents written by WriteSnapshotTiered (or
// the flat v1 writer of earlier builds) into this store, which must have
// the same shard count (the core manifest checks that before calling).
// Existing shard contents are kept — triples already present in a shard's
// global tier (e.g. from priming the world before recovery) are skipped
// rather than duplicated — and the spatiotemporal index entries are
// appended in file order. Sealed segments are restored as sealed segments,
// and the segment-id counter advances past every loaded id.
func (s *Sharded) LoadSnapshot(dir string) (triples, anchors int, err error) {
	for i, sh := range s.shards {
		t, a, err := s.loadShard(dir, i, sh)
		if err != nil {
			return triples, anchors, fmt.Errorf("store: load shard %d: %w", i, err)
		}
		triples += t
		anchors += a
	}
	return triples, anchors, nil
}

func (s *Sharded) loadShard(dir string, i int, sh *Shard) (triples, anchors int, err error) {
	sh.mu.Lock()
	defer sh.mu.Unlock()

	// Sealed segments first; a flat v1 directory has no list and none.
	list, err := os.ReadFile(shardFile(dir, i, "segments"))
	if err != nil && !os.IsNotExist(err) {
		return 0, 0, err
	}
	for _, name := range strings.Fields(string(list)) {
		seg, err := readSegmentFile(filepath.Join(dir, name), s.dict, sh.idx.grid)
		if err != nil {
			return triples, anchors, fmt.Errorf("segment %s: %w", name, err)
		}
		sh.segs = append(sh.segs, seg)
		triples += seg.g.Len()
		anchors += len(seg.idx.entries)
		s.bumpSegID(seg.id)
		s.bumpMaxTS(seg.maxTS)
	}

	// Mutable tiers: N-Triples into the head, skipping triples the global
	// tier already replicates.
	ntf, err := os.Open(shardFile(dir, i, "nt"))
	if err != nil {
		return triples, anchors, err
	}
	defer ntf.Close()
	err = newBlockReader(ntf).readTriples(untilEOF, func(st, pt, ot rdf.Term) {
		sid, pid, oid := s.dict.Encode(st), s.dict.Encode(pt), s.dict.Encode(ot)
		if !sh.global.HasID(sid, pid, oid) {
			sh.head.AddID(sid, pid, oid)
			triples++
		}
	})
	if err != nil {
		return triples, anchors, fmt.Errorf("nt: %w", err)
	}

	af, err := os.Open(shardFile(dir, i, "anchors"))
	if err != nil {
		return triples, anchors, err
	}
	defer af.Close()
	err = newBlockReader(af).readAnchors(untilEOF, func(ts int64, pt geo.Point, iri string) {
		sh.idx.add(anchor{pt: pt, ts: ts, node: s.dict.Encode(rdf.NewIRI(iri))})
		s.bumpMaxTS(ts)
		anchors++
	})
	if err != nil {
		return triples, anchors, fmt.Errorf("anchors: %w", err)
	}
	return triples, anchors, nil
}

// SegmentFiles returns the file names of every sealed segment currently
// live in the store (the reference set a snapshot GC keeps).
func (s *Sharded) SegmentFiles() []string {
	var out []string
	for _, sh := range s.shards {
		sh.mu.RLock()
		for _, seg := range sh.segs {
			out = append(out, segFileName(seg.id))
		}
		sh.mu.RUnlock()
	}
	return out
}
