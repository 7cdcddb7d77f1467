package store

import (
	"bufio"
	"cmp"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/rdf"
)

// Snapshot serialisation for the durable serving layer. A snapshot
// directory holds, per shard:
//
//	shard-NNN.blk       the mutable tiers (global + head) and the head's
//	                    spatiotemporal index, as one block (id 0)
//	shard-NNN.segments  the file names of the shard's sealed segments,
//	                    oldest first
//
// plus one seg-*.seg file per sealed segment, one block each. The byte
// layout of all of them is the block codec's (block.go); this file only
// decides which tier goes into which file. Segment files are immutable: they
// are written once into a shared cache directory and hard-linked into every
// snapshot that references them, so steady-state snapshots rewrite only the
// small head files. Both per-shard files are required: a directory missing
// either is refused, never loaded as a shard with fewer tiers.

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
	bw := newBlockWriter(s.dict)
	for i, sh := range s.shards {
		n, err := writeShard(bw, dir, segCache, i, sh)
		if err != nil {
			return segments, fmt.Errorf("store: snapshot shard %d: %w", i, err)
		}
		segments += n
	}
	return segments, nil
}

// writeShard writes one shard's mutable tiers and segment list and links
// its sealed segment files.
func writeShard(bw *blockWriter, dir, segCache string, i int, sh *Shard) (segments int, err error) {
	sh.mu.RLock()
	defer sh.mu.RUnlock()

	err = writeFile(shardFile(dir, i, "blk"), func(w *bufio.Writer) error {
		return bw.writeBlock(w, 0, rdf.NewView(bw.dict, sh.global, sh.head), sh.idx.entries, false)
	})
	if err != nil {
		return 0, err
	}

	for _, seg := range sh.segs {
		name := segFileName(seg.id)
		cached := filepath.Join(segCache, name)
		if _, err := os.Stat(cached); err != nil {
			if err := writeSegmentFile(bw, cached, seg); err != nil {
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
	err = writeFile(shardFile(dir, i, "segments"), func(w *bufio.Writer) error {
		for _, seg := range sh.segs {
			w.WriteString(segFileName(seg.id))
			w.WriteByte('\n')
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
func writeSegmentFile(bw *blockWriter, path string, seg *segment) error {
	tmp := path + ".tmp"
	err := writeFile(tmp, func(w *bufio.Writer) error {
		return bw.writeBlock(w, seg.id, seg.g, seg.idx.entries, true)
	})
	if err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// blockContent is one block's triples and anchors in a live dictionary's
// ids. err keeps the first term the dictionary refused; the content is then
// not to be used.
type blockContent struct {
	triples []rdf.Triple
	anchors []anchor
	err     error
}

// sink returns a sink that resolves a block's terms against dict, once
// each, and collects its triples and anchors into bc.
func (bc *blockContent) sink(dict *rdf.Dictionary) blockSink {
	var ids []rdf.ID
	return blockSink{
		term: func(t rdf.Term) {
			id, err := dict.Encode(t)
			bc.err = cmp.Or(bc.err, err)
			ids = append(ids, id)
		},
		triple: func(s, p, o uint32) { bc.triples = append(bc.triples, rdf.Triple{S: ids[s], P: ids[p], O: ids[o]}) },
		anchor: func(ts int64, pt geo.Point, node uint32) {
			bc.anchors = append(bc.anchors, anchor{pt: pt, ts: ts, node: ids[node]})
		},
	}
}

// readSegmentFile loads a segment file into a live segment over dict and
// grid.
func readSegmentFile(path string, dict *rdf.Dictionary, grid geo.Grid) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return readSegment(f, dict, grid)
}

// readSegment reads one sealed segment's block off r.
func readSegment(r io.Reader, dict *rdf.Dictionary, grid geo.Grid) (*segment, error) {
	var bc blockContent
	id, err := newBlockReader(r).readBlock(bc.sink(dict))
	if err = cmp.Or(err, bc.err); err != nil {
		return nil, err // io.EOF: the input is empty
	}
	idx := newAnchorIndex(grid)
	for _, a := range bc.anchors {
		idx.add(a)
	}
	return newSegment(id, rdf.NewSegment(dict, bc.triples), idx), nil
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

// LoadSnapshot restores shard contents written by WriteSnapshotTiered into
// this store, which must have the same shard count (the core manifest checks
// that before calling). Existing shard contents are kept — triples already
// present in a shard's global tier (e.g. from priming the world before
// recovery) are skipped rather than duplicated — and the spatiotemporal index
// entries are appended in file order. Sealed segments are restored as sealed
// segments, and the segment-id counter advances past every loaded id. A
// missing or damaged file is an error naming the shard and the file.
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

	// Sealed segments first. The list is always written, if empty; a lost
	// one would load as a shard without its sealed history.
	list, err := os.ReadFile(shardFile(dir, i, "segments"))
	if err != nil {
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

	// Mutable tiers: into the head as one batch, less the triples the
	// global tier already replicates.
	var bc blockContent
	if err := cmp.Or(readShardBlock(dir, i, bc.sink(s.dict)), bc.err); err != nil {
		return triples, anchors, err
	}
	fresh := slices.DeleteFunc(bc.triples, func(t rdf.Triple) bool { return holds(sh.global, t) })
	sh.head.Insert(fresh)
	for _, a := range bc.anchors {
		sh.idx.add(a)
		s.bumpMaxTS(a.ts)
	}
	return triples + len(fresh), anchors + len(bc.anchors), nil
}

// readShardBlock feeds shard i's mutable-tier block in dir to sink.
func readShardBlock(dir string, i int, sink blockSink) error {
	f, err := os.Open(shardFile(dir, i, "blk"))
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := newBlockReader(f).readBlock(sink); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return fmt.Errorf("%s: %w", filepath.Base(f.Name()), err)
	}
	return nil
}

// holds reports whether g holds t.
func holds(g rdf.Graph, t rdf.Triple) bool {
	for range rdf.Match(g, t.S, t.P, t.O) {
		return true
	}
	return false
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
