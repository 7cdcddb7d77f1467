package store

import (
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/rdf"
)

// BatchWriter stages position records per destination shard and flushes
// each shard's share under one lock acquisition — the bulk counterpart of
// AddPositionRecord. A worker that ingests a batch of N reports pays one
// shard lock, one dictionary lock (inside rdf.Head.AddBatch) and one sorted
// run per touched shard instead of N of each.
//
// A BatchWriter is not safe for concurrent use; each ingest worker owns
// one. Flush must be called before the staged records need to be visible
// (the batched ingest path flushes before releasing its snapshot lock, so
// a snapshot cut never observes an applied LSN without its store writes).
type BatchWriter struct {
	s      *Sharded
	shards []batchShard
	// touched lists the staged shard indexes in first-touch order, so Flush
	// visits only the shards this batch wrote.
	touched []int
	maxTS   int64
	staged  int
}

// batchShard is one shard's staged share of the current batch.
type batchShard struct {
	triples []onto.TripleT
	anchors []stagedAnchor
}

// stagedAnchor is one spatiotemporal anchor awaiting registration.
type stagedAnchor struct {
	pt   geo.Point
	ts   int64
	node rdf.Term
}

// NewBatchWriter returns an empty batch writer over s.
func (s *Sharded) NewBatchWriter() *BatchWriter {
	return &BatchWriter{s: s, shards: make([]batchShard, len(s.shards))}
}

// AddPosition stages one position report: the RDF transformation runs
// immediately (into the destination shard's triple buffer), the store
// writes happen at Flush. Equivalent to AddPositionRecord after the next
// Flush.
func (bw *BatchWriter) AddPosition(p model.Position) {
	node := onto.NodeIRI(p.EntityID, p.TS)
	idx := bw.s.part.Assign(node.Value, p.Pt, p.TS)
	sh := &bw.shards[idx]
	if len(sh.anchors) == 0 && len(sh.triples) == 0 {
		bw.touched = append(bw.touched, idx)
	}
	sh.triples = onto.AppendPositionTriples(sh.triples, p)
	sh.anchors = append(sh.anchors, stagedAnchor{pt: p.Pt, ts: p.TS, node: node})
	if p.TS > bw.maxTS {
		bw.maxTS = p.TS
	}
	bw.staged++
}

// Staged returns the number of position records staged since the last
// Flush.
func (bw *BatchWriter) Staged() int { return bw.staged }

// Flush writes every staged share to its shard through Shard.addLocked,
// holding each touched shard's lock once, then advances the store's stream
// clock. A share the dictionary cannot encode is dropped whole — its shard
// stays untouched — while the other shares are written: unstored counts the
// dropped position reports and err is rdf.ErrDictionaryFull.
func (bw *BatchWriter) Flush() (unstored int, err error) {
	if bw.staged == 0 {
		return 0, nil
	}
	for _, idx := range bw.touched {
		st := &bw.shards[idx]
		sh := bw.s.shards[idx]
		sh.mu.Lock()
		if e := sh.addLocked(st.triples, st.anchors); e != nil {
			unstored += len(st.anchors)
			err = e
		}
		sh.mu.Unlock()
		st.triples = st.triples[:0]
		st.anchors = st.anchors[:0]
	}
	bw.touched = bw.touched[:0]
	bw.staged = 0
	bw.s.bumpMaxTS(bw.maxTS)
	bw.maxTS = 0
	return unstored, err
}
