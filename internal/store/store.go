// Package store implements the parallel spatiotemporal RDF store of the
// datAcron architecture: interlinked RDF data "stored in parallel RDF
// stores, using sophisticated RDF partitioning algorithms" (§2). A Sharded
// store owns N independent shards, places each spatiotemporally-anchored
// graph fragment with a partition.Partitioner, replicates global
// (dimension) triples to every shard so per-shard query evaluation never
// needs cross-shard joins, and maintains a per-shard spatiotemporal grid
// index over the anchored nodes for range queries.
//
// Each shard is tiered (DESIGN.md §10): a small mutable head absorbs
// writes, sealed immutable segments (rdf.Segment) hold history with
// per-segment statistics, and a never-sealed global tier holds the
// replicated dimension triples. Head and global are rdf.Heads — short lists
// of runs in the segments' own sorted layout — so every tier has one index
// shape. Sealing and time-based retention run through Maintain; readers see
// the merged tiers through rdf.View.
package store

import (
	"runtime"
	"sync"
	"sync/atomic"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/partition"
	"github.com/datacron-project/datacron/internal/rdf"
)

// Sharded is the parallel RDF store.
type Sharded struct {
	part   partition.Partitioner
	dict   *rdf.Dictionary // shared across shards
	shards []*Shard

	// nextSegID hands out globally-unique segment ids (also across
	// restarts: recovery advances it past every loaded segment).
	nextSegID atomic.Uint64
	// maxTS is the newest anchor timestamp ingested — the store's stream
	// clock, against which seal age and retention windows are measured.
	maxTS atomic.Int64

	// Lifetime tier-maintenance counters (for /metrics).
	seals          atomic.Int64
	segsDropped    atomic.Int64
	triplesDropped atomic.Int64
}

// Shard is one partition: a tiered RDF store plus a spatiotemporal index
// over the graph fragments anchored in it. Writes to a shard are serialised
// by its write lock; readers (range scans, per-shard query evaluation) take
// the read lock, so the store is safe for concurrent ingest and querying —
// the serving layer's core requirement.
type Shard struct {
	mu sync.RWMutex
	// global holds replicated dimension triples (entities, areas,
	// vocabulary). It is never sealed and never retained away.
	global *rdf.Head
	// head is the mutable tier: anchored fragments since the last seal,
	// indexed by idx.
	head *rdf.Head
	idx  anchorIndex
	// segs are the sealed immutable segments, oldest first.
	segs []*segment
}

// anchor is one spatiotemporally-anchored node.
type anchor struct {
	pt   geo.Point
	ts   int64
	node rdf.ID
}

// NewSharded returns a store partitioned by part, indexing anchors on a
// 64x64 grid over worldBox.
func NewSharded(part partition.Partitioner, worldBox geo.BBox) *Sharded {
	dict := rdf.NewDictionary()
	grid := geo.NewGrid(worldBox, 64, 64)
	shards := make([]*Shard, part.Shards())
	for i := range shards {
		shards[i] = &Shard{
			global: rdf.NewHead(dict),
			head:   rdf.NewHead(dict),
			idx:    newAnchorIndex(grid),
		}
	}
	return &Sharded{part: part, dict: dict, shards: shards}
}

// Dict returns the shared dictionary.
func (s *Sharded) Dict() *rdf.Dictionary { return s.dict }

// Partitioner returns the partitioner in use.
func (s *Sharded) Partitioner() partition.Partitioner { return s.part }

// NumShards returns the shard count.
func (s *Sharded) NumShards() int { return len(s.shards) }

// MaxAnchorTS returns the newest anchor timestamp ingested (the stream
// clock retention windows are measured against); 0 before the first anchor.
func (s *Sharded) MaxAnchorTS() int64 { return s.maxTS.Load() }

// View returns a merged read view over shard i's tiers
// (global + head + sealed segments). The view holds no lock: it is for
// single-threaded use (tests, tools); concurrent readers should go through
// EachShardView, which holds the shard read lock across fn.
func (s *Sharded) View(i int) *rdf.View {
	sh := s.shards[i]
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	return sh.viewLocked()
}

// viewLocked builds the merged view under the caller-held shard lock.
func (sh *Shard) viewLocked() *rdf.View {
	parts := make([]rdf.Graph, 0, 2+len(sh.segs))
	parts = append(parts, sh.global, sh.head)
	for _, seg := range sh.segs {
		parts = append(parts, seg.g)
	}
	return rdf.NewView(sh.global.Dict(), parts...)
}

// Len returns the total number of triples across shards and tiers (global
// triples are counted once per shard they are replicated to).
func (s *Sharded) Len() int {
	n := 0
	for _, sh := range s.shards {
		sh.mu.RLock()
		n += sh.global.Len() + sh.head.Len()
		for _, seg := range sh.segs {
			n += seg.g.Len()
		}
		sh.mu.RUnlock()
	}
	return n
}

// ShardLoads returns the number of anchored fragments per shard (all
// tiers), the load measure used by E3's balance metric.
func (s *Sharded) ShardLoads() []int {
	out := make([]int, len(s.shards))
	for i, sh := range s.shards {
		sh.mu.RLock()
		n := len(sh.idx.entries)
		for _, seg := range sh.segs {
			n += len(seg.idx.entries)
		}
		out[i] = n
		sh.mu.RUnlock()
	}
	return out
}

// AddGlobal replicates dimension triples (entities, areas, vocabulary) to
// every shard, so a per-shard BGP evaluation can join them locally. The
// batch is encoded once, through the shared dictionary, and each shard's
// global tier inserts the encoded triples. It fails, storing nothing, when
// the dictionary is full.
func (s *Sharded) AddGlobal(triples []onto.TripleT) error {
	tri, err := s.dict.EncodeBatch(triples, nil)
	if err != nil {
		return err
	}
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.global.Insert(tri)
		sh.mu.Unlock()
	}
	return nil
}

// AddAnchored places a graph fragment anchored at (key, pt, ts): its
// triples go to the head tier of the shard the partitioner assigns and
// node is registered in that shard's spatiotemporal index. It is a
// one-fragment batch through the same write path BatchWriter.Flush takes.
func (s *Sharded) AddAnchored(key string, pt geo.Point, ts int64, node rdf.Term, triples []onto.TripleT) error {
	sh := s.shards[s.part.Assign(key, pt, ts)]
	sh.mu.Lock()
	err := sh.addLocked(triples, []stagedAnchor{{pt: pt, ts: ts, node: node}})
	sh.mu.Unlock()
	s.bumpMaxTS(ts)
	return err
}

// addLocked is the one anchored-write path: triples go to the head tier in
// one bulk insert and every anchor is registered in the head's index, under
// the caller-held shard write lock. When the dictionary cannot encode the
// batch it returns rdf.ErrDictionaryFull and leaves the shard untouched:
// the anchor nodes are encoded first, and the head takes all triples or none.
func (sh *Shard) addLocked(triples []onto.TripleT, anchors []stagedAnchor) error {
	dict := sh.head.Dict()
	nodes := make([]rdf.ID, 0, 64) // on the stack for a usual batch
	for _, a := range anchors {
		node, err := dict.Encode(a.node)
		if err != nil {
			return err
		}
		nodes = append(nodes, node)
	}
	if err := sh.head.AddBatch(triples); err != nil {
		return err
	}
	for i, a := range anchors {
		sh.idx.add(anchor{pt: a.pt, ts: a.ts, node: nodes[i]})
	}
	return nil
}

// bumpMaxTS advances the stream clock to at least ts.
func (s *Sharded) bumpMaxTS(ts int64) {
	for {
		cur := s.maxTS.Load()
		if ts <= cur || s.maxTS.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// bumpSegID advances the segment-id counter to at least id, so ids issued
// after a load never collide with a loaded segment's.
func (s *Sharded) bumpSegID(id uint64) {
	for {
		cur := s.nextSegID.Load()
		if id <= cur || s.nextSegID.CompareAndSwap(cur, id) {
			return
		}
	}
}

// RangeResult is one spatiotemporal range query hit.
type RangeResult struct {
	Node rdf.ID
	Pt   geo.Point
	TS   int64
	// Shard records which shard held the hit (for experiment accounting).
	Shard int
}

// RangeQuery returns the anchored nodes within box and [fromTS, toTS],
// evaluating candidate shards in parallel. visited reports how many shards
// were consulted (the pruning measure of E3).
func (s *Sharded) RangeQuery(box geo.BBox, fromTS, toTS int64) (results []RangeResult, visited int) {
	results, visited, _ = s.RangeQueryN(box, fromTS, toTS, 0)
	return results, visited
}

// RangeQueryN is RangeQuery with a result bound: when limit > 0, each
// shard stops scanning after limit+1 hits and at most limit results are
// returned, with truncated reporting whether more matches exist. This
// bounds both the work and the allocation of a query, which is what lets
// the serving layer expose range queries to untrusted clients. limit <= 0
// returns everything.
func (s *Sharded) RangeQueryN(box geo.BBox, fromTS, toTS int64, limit int) (results []RangeResult, visited int, truncated bool) {
	cands := s.part.Candidates(box, fromTS, toTS)
	visited = len(cands)
	if visited == 0 {
		return nil, 0, false
	}
	perShard := 0
	if limit > 0 {
		// limit+1 per shard so the merged length distinguishes "exactly
		// limit" from "more exist".
		perShard = limit + 1
	}
	type shardOut struct {
		idx int
		res []RangeResult
	}
	outCh := make(chan shardOut, len(cands))
	workers := runtime.GOMAXPROCS(0)
	if workers > len(cands) {
		workers = len(cands)
	}
	work := make(chan int, len(cands))
	for _, c := range cands {
		work <- c
	}
	close(work)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for c := range work {
				outCh <- shardOut{c, s.shards[c].rangeLocal(box, fromTS, toTS, c, perShard)}
			}
		}()
	}
	wg.Wait()
	close(outCh)
	for so := range outCh {
		results = append(results, so.res...)
	}
	if limit > 0 && len(results) > limit {
		results = results[:limit]
		truncated = true
	}
	return results, visited, truncated
}

// rangeLocal scans one shard's grid indexes (sealed segments oldest first,
// then the head) under the shard's read lock, stopping after max hits when
// max > 0. Segment time bounds prune whole segments before their cells are
// touched.
func (sh *Shard) rangeLocal(box geo.BBox, fromTS, toTS int64, shardIdx, max int) []RangeResult {
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	var out []RangeResult
	scan := func(idx anchorIndex) bool {
		for _, cell := range idx.grid.CellsIn(box) {
			for _, ei := range idx.cells[cell] {
				e := idx.entries[ei]
				if e.ts < fromTS || e.ts > toTS || !box.Contains(e.pt) {
					continue
				}
				out = append(out, RangeResult{Node: e.node, Pt: e.pt, TS: e.ts, Shard: shardIdx})
				if max > 0 && len(out) >= max {
					return false
				}
			}
		}
		return true
	}
	for _, seg := range sh.segs {
		if len(seg.idx.entries) == 0 || seg.maxTS < fromTS || seg.minTS > toTS || !seg.box.Intersects(box) {
			continue
		}
		if !scan(seg.idx) {
			return out
		}
	}
	scan(sh.idx)
	return out
}

// EachShardView runs fn over the merged view of each of the given shards,
// with bounded parallelism, and waits. Each invocation holds the shard's
// read lock, so it is safe to run while ingest is in flight (writes to that
// shard wait for fn); fn must treat the view as read-only.
func (s *Sharded) EachShardView(shardIdxs []int, parallelism int, fn func(i int, v *rdf.View)) {
	if parallelism < 1 {
		parallelism = 1
	}
	work := make(chan int, len(shardIdxs))
	for _, i := range shardIdxs {
		work <- i
	}
	close(work)
	var wg sync.WaitGroup
	for w := 0; w < parallelism; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range work {
				sh := s.shards[i]
				sh.mu.RLock()
				fn(i, sh.viewLocked())
				sh.mu.RUnlock()
			}
		}()
	}
	wg.Wait()
}
