package core

import (
	"errors"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"github.com/datacron-project/datacron/internal/adsb"
	"github.com/datacron-project/datacron/internal/ais"
	"github.com/datacron-project/datacron/internal/insitu"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synopses"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

// numGroups is K, the fixed number of key groups (DESIGN.md §6) and so the
// most workers an Ingestor runs. A power of two: with a power-of-two worker
// count a key keeps the worker its hash picked before groups existed.
const numGroups = 64

// group is one key group: the per-entity operator state of every routing
// key that hashes to it (noise gate, threshold filter, AIS reassembly,
// ADS-B fusion, applied WAL offsets). The pipeline owns the groups and a
// worker owns a set of them, so each key's state lives once and has one
// writer.
type group struct {
	gate    *insitu.NoiseGate
	filter  *insitu.ThresholdFilter
	asm     *ais.Assembler
	tracker *adsb.Tracker
	applied map[string]uint64 // routing key → highest fully-applied LSN
}

// groupOf maps a routing key to its key group by FNV-1a hash. Generic over
// string and []byte so SubmitBatch hashes a scratch-buffer key and recovery
// a map key through the one definition, neither copying.
func groupOf[T ~string | ~[]byte](key T) int {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h = (h ^ uint32(key[i])) * 16777619
	}
	return int(h % numGroups)
}

// Ingestor is the parallel ingest front-end of the serving layer: wire
// lines are routed by entity identity to worker goroutines over bounded
// channels. Worker i owns the key groups g with g % workers == i, so
// per-entity operator state stays single-writer, and all workers feed the
// shared sharded store (which locks per shard) and the serialised
// analytics stage. Submitting to a full worker queue fails fast, giving
// callers a backpressure signal (the HTTP layer maps it to 429).
//
// For durable ingest the Ingestor also carries the bookkeeping the
// snapshot/recovery protocol needs: SubmitBatch appends lines to the WAL
// as it hands them off, every group records the exact WAL offset (LSN)
// it has fully applied per key, and Barrier pauses all workers between
// batches so a snapshot captures an atomic cut — a line is either fully
// reflected in the snapshot (store writes, analytics, counters, applied
// offset) or not at all.
type Ingestor struct {
	p        *Pipeline
	workers  []*worker
	wg       sync.WaitGroup
	onEvents func([]model.Event, []synopses.CriticalPoint)
	// drain is the per-wakeup batch size: a worker pulls up to drain queued
	// lines and processes them under one snapshot critical section.
	drain int

	// snapGate excludes the append→enqueue window of logged lines while a
	// snapshot computes its cut, so no acknowledged LSN can fall between
	// "appended to the WAL" and "visible in a worker queue" at the cut.
	snapGate sync.RWMutex

	mu       sync.RWMutex // guards SubmitBatch's hand-off vs Close
	closed   bool
	rejected atomic.Int64
	inflight atomic.Int64

	// idle is what Quiesce callers block on: made by the first waiter that
	// finds lines in flight, closed and cleared by the worker whose batch
	// brings inflight to zero. Both sides act under idleMu — the waiter
	// reads inflight there, the worker locks it after its decrement — so a
	// waiter either sees the zero or has its channel seen by the worker.
	idleMu sync.Mutex
	idle   chan struct{}
}

// worker is one ingest goroutine and its queue-side bookkeeping.
type worker struct {
	q        chan *[]queued // one SubmitBatch call's share per send
	reserved atomic.Int64   // slots taken: queued + in-process + reserved

	// qmu guards lsns, the FIFO of WAL offsets of logged lines currently
	// queued (in q's order), and orders WAL appends with queue sends.
	qmu  sync.Mutex
	lsns []uint64

	// snapMu is held by the worker for the whole processing of one batch
	// and by Barrier; under it the worker's groups and the pipeline
	// counters are quiescent.
	snapMu sync.Mutex
	front  *front
	key    []byte // routing-key scratch for applied updates
}

// queued is one line handed to a worker: the line, its key group and its
// WAL offset (0 when unlogged).
type queued struct {
	synth.TimedLine
	lsn   uint64
	group uint8
}

// DefaultBatchDrain is the per-wakeup batch size used when
// IngestorConfig.BatchDrain is unset: large enough to amortise the
// snapshot lock, LSN bookkeeping and store flush across a burst, small
// enough to keep the barrier wait (one batch) in the sub-millisecond
// range.
const DefaultBatchDrain = 64

// IngestorConfig tunes the parallel front-end; the zero value uses
// GOMAXPROCS workers, 1024-line queues and DefaultBatchDrain-line batch
// draining.
type IngestorConfig struct {
	// Workers is the number of ingest goroutines, at most numGroups (64).
	Workers int
	// QueueLen bounds each worker's in-flight lines; SubmitBatch stops at
	// the first line that would exceed it.
	QueueLen int
	// BatchDrain caps how many queued lines a worker pulls per wakeup and
	// processes as one atomic batch (one snapshot critical section, one LSN
	// watermark, one store flush). <= 0 uses DefaultBatchDrain; 1 restores
	// line-at-a-time processing.
	BatchDrain int
	// OnEvents receives, from worker goroutines, what each drained batch
	// emitted: its complex events and its critical points. It is called
	// only for a batch that emitted either; the points slice is the
	// worker's scratch, valid until the call returns.
	OnEvents func([]model.Event, []synopses.CriticalPoint)
}

// NewIngestor starts the worker goroutines. Close must be called to stop
// them. The pipeline's areas and entities must already be installed, and
// no other Ingestor may be running on it.
//
// Operator state lives in the pipeline's key groups, not in the workers,
// so an Ingestor created after Recover continues gating and compressing
// exactly where the recovered session stopped, whatever its worker count:
// the workers only take ownership of the groups.
func (p *Pipeline) NewIngestor(cfg IngestorConfig) *Ingestor {
	if cfg.Workers <= 0 {
		cfg.Workers = runtime.GOMAXPROCS(0)
	}
	cfg.Workers = min(cfg.Workers, numGroups)
	if cfg.QueueLen <= 0 {
		cfg.QueueLen = 1024
	}
	if cfg.BatchDrain <= 0 {
		cfg.BatchDrain = DefaultBatchDrain
	}
	ing := &Ingestor{
		p:        p,
		workers:  make([]*worker, cfg.Workers),
		onEvents: cfg.OnEvents,
		drain:    cfg.BatchDrain,
	}
	for i := range ing.workers {
		ing.workers[i] = &worker{q: make(chan *[]queued, cfg.QueueLen), front: p.newFront()}
	}
	ing.wg.Add(cfg.Workers)
	for _, w := range ing.workers {
		go ing.run(w)
	}
	return ing
}

// run is one worker: per wakeup it pulls the first queued share plus — without
// blocking — up to drain-1 further lines, and processes the whole batch under
// one hold of its snapshot lock, so snapshots land between batches, never
// inside one. A batch is the atomic unit of the snapshot/recovery protocol:
// its store writes, applied offsets and LSN watermarks become visible
// together (DESIGN.md §15). A share's lines count against the drain budget
// line by line.
func (ing *Ingestor) run(w *worker) {
	defer ing.wg.Done()
	var batch []*[]queued
	for recs := range w.q {
		batch = append(batch[:0], recs)
		lines := len(*recs)
	drainLoop:
		for lines < ing.drain {
			select {
			case more, ok := <-w.q:
				if !ok {
					// Closed mid-drain: process what we collected; the
					// outer range terminates on its next receive.
					break drainLoop
				}
				batch = append(batch, more)
				lines += len(*more)
			default:
				break drainLoop
			}
		}
		ing.processBatch(w, batch)
	}
}

// processBatch runs a drained batch through the pipeline under one hold of
// the worker's snapshot lock, flushes the worker's store batch writer, and
// retires the batch's logged LSNs with one FIFO cut. Detected events and
// critical points are delivered once per batch, outside the lock, and the
// watermark is noted once, with the batch's newest line timestamp; the last
// thing a batch does is leave inflight, waking Quiesce callers if it was
// the last one in flight.
func (ing *Ingestor) processBatch(w *worker, batch []*[]queued) {
	var evs []model.Event
	var total, newest int64
	logged := 0
	w.snapMu.Lock()
	for _, recs := range batch {
		for _, rec := range *recs {
			newest = max(newest, rec.TS)
			g := &ing.p.groups[rec.group]
			evs = append(evs, ing.p.ingest(w.front, g, rec.TimedLine)...)
			if rec.lsn != 0 {
				logged++
				w.key = ing.p.AppendRoutingKey(w.key[:0], rec.Line)
				if rec.lsn > g.applied[string(w.key)] {
					g.applied[string(w.key)] = rec.lsn
				}
			}
		}
		total += int64(len(*recs))
	}
	// Store writes must be visible before the batch's LSNs leave the FIFO
	// and before the snapshot lock is released: a barrier cut then sees
	// applied offsets and their store writes together, never one without
	// the other. A share the store refuses (its dictionary is full) is
	// counted, not retried: the lines are applied, their reports unstored.
	if unstored, _ := w.front.bw.Flush(); unstored > 0 {
		atomic.AddInt64(&ing.p.Stats.Unstored, int64(unstored))
	}
	if logged > 0 {
		// Per-worker queue order equals LSN order (deliver pushes and sends
		// under qmu), so the batch's logged lines own the FIFO's head.
		w.qmu.Lock()
		w.lsns = w.lsns[logged:]
		if len(w.lsns) == 0 {
			w.lsns = nil // let the drained backlog be collected
		}
		w.qmu.Unlock()
	}
	w.snapMu.Unlock()
	for _, recs := range batch {
		*recs = (*recs)[:0]
		recsPool.Put(recs)
	}
	w.reserved.Add(-total)
	ing.p.Watermark.Note(newest)
	// Events go out before the batch leaves inflight: a Quiesce that wakes
	// on this batch returns after its detections were delivered, not before.
	if points := w.front.points; (len(evs) > 0 || len(points) > 0) && ing.onEvents != nil {
		ing.onEvents(evs, points)
	}
	w.front.points = w.front.points[:0]
	if ing.inflight.Add(-total) == 0 {
		ing.idleMu.Lock()
		if ing.idle != nil {
			close(ing.idle)
			ing.idle = nil
		}
		ing.idleMu.Unlock()
	}
}

// multiSentenceKey reconstructs the routing key of a multi-sentence AIS
// fragment group from a parsed sentence, through the canonicaliser
// ais.AppendRoutingKey applies to the raw line.
func multiSentenceKey(s ais.Sentence) string {
	seq := ""
	if s.SeqID >= 0 {
		seq = strconv.Itoa(s.SeqID)
	}
	return ais.FragmentKey(seq, s.Channel)
}

// RoutingKey is the string form of AppendRoutingKey.
func (p *Pipeline) RoutingKey(line string) string {
	return string(p.AppendRoutingKey(nil, line))
}

// AppendRoutingKey appends the per-entity routing key of a wire line to
// dst, falling back to the raw line for unrecognisable input
// (deterministic, so retries and replays of a bad line resolve
// identically). This one key picks the ingest worker, keys the snapshot's
// applied offsets, selects the key group and is what the cluster layer
// hashes onto its ring, so "same entity, same worker" extends to "same
// entity, same node". It does
// not allocate when dst has room.
func (p *Pipeline) AppendRoutingKey(dst []byte, line string) []byte {
	var ok bool
	switch p.cfg.Domain {
	case model.Maritime:
		dst, ok = ais.AppendRoutingKey(dst, line)
	case model.Aviation:
		dst, ok = adsb.AppendRoutingKey(dst, line)
	}
	if !ok {
		dst = append(dst, line...)
	}
	return dst
}

// ErrIngestorClosed reports a SubmitBatch that lost the race with Close;
// none of its lines was logged or queued.
var ErrIngestorClosed = errors.New("core: ingestor closed")

// recsPool recycles the per-worker staging slices SubmitBatch hands off to
// workers, so steady-state ingest allocates nothing per line.
var recsPool = sync.Pool{New: func() any { return new([]queued) }}

// SubmitBatch is the one way lines enter the parallel front-end. It
// reserves — without blocking — one queue slot per line on the worker that
// owns the line's entity, in order, stopping at the first line whose worker
// is saturated (backpressure): accepted is the length of the prefix of recs
// that was handed off, the rest is dropped and counted in Rejected. The
// prefix is then delivered with one channel send per destination worker.
//
// With log != nil every handed-off line is first appended to the WAL. A
// worker's share is appended and sent as one step under that worker's FIFO
// lock, inside the snapshot gate, which makes the step atomic with respect
// to snapshot cuts (no snapshot can observe an LSN as appended but not yet
// queued) and to other submissions to the same worker (per-worker queue
// order always equals LSN order; without this, two concurrent requests
// carrying the same entity could invert append and enqueue order and a
// snapshot's applied offset would skip an acknowledged line on recovery).
// A line outside the accepted prefix is never logged. The records still
// need a wal Commit to become durable; the serving layer commits once per
// HTTP batch before acknowledging.
//
// On error — ErrIngestorClosed or a WAL append failure — accepted is 0 and
// nothing must be acknowledged: every line not already logged and queued is
// dropped and counted in Rejected, and a caller that retries the batch
// relies on the store to deduplicate the ones that were.
func (ing *Ingestor) SubmitBatch(log *wal.Log, recs []synth.TimedLine) (accepted int, err error) {
	return ing.submit(log, recs, nil)
}

// submit is SubmitBatch for lines that may already carry WAL offsets:
// recovery replays the log through it, with lsns[i] the offset of recs[i]
// and log nil.
func (ing *Ingestor) submit(log *wal.Log, recs []synth.TimedLine, lsns []uint64) (accepted int, err error) {
	// per[i] stages worker i's share of the batch.
	per := make([]*[]queued, len(ing.workers))
	var scratch [32]byte // room for any MMSI, fragment or ident key; a raw-line fallback grows past it
	key := scratch[:0]
	for i, tl := range recs {
		key = ing.p.AppendRoutingKey(key[:0], tl.Line)
		g := groupOf(key)
		idx := g % len(ing.workers)
		w := ing.workers[idx]
		if w.reserved.Add(1) > int64(cap(w.q)) {
			w.reserved.Add(-1)
			break
		}
		if per[idx] == nil {
			per[idx] = recsPool.Get().(*[]queued)
		}
		rec := queued{TimedLine: tl, group: uint8(g)}
		if lsns != nil {
			rec.lsn = lsns[i]
		}
		*per[idx] = append(*per[idx], rec)
		accepted++
	}
	ing.rejected.Add(int64(len(recs) - accepted))

	ing.snapGate.RLock()
	defer ing.snapGate.RUnlock()
	ing.mu.RLock()
	defer ing.mu.RUnlock()
	if ing.closed {
		err = ErrIngestorClosed
	}
	for idx, part := range per {
		if part == nil {
			continue
		}
		w := ing.workers[idx]
		staged, sent := len(*part), 0
		if err == nil {
			sent, err = ing.deliver(w, log, part)
		}
		// Undelivered lines give their slots back.
		w.reserved.Add(int64(sent - staged))
		ing.rejected.Add(int64(staged - sent))
		if sent == 0 {
			*part = (*part)[:0]
			recsPool.Put(part)
		}
	}
	if err != nil {
		return 0, err
	}
	return accepted, nil
}

// deliver appends part's lines to log (when non-nil), pushes their LSNs on
// w's FIFO and sends them to w in one channel send, all under w.qmu. On an
// append failure the lines logged so far are still sent — a logged line
// must reach its worker — and sent reports how many that was. The reserved slots
// guarantee the send cannot block (a worker holds at most cap(q) reserved
// lines, so its channel holds at most cap(q) shares).
func (ing *Ingestor) deliver(w *worker, log *wal.Log, part *[]queued) (sent int, err error) {
	w.qmu.Lock()
	defer w.qmu.Unlock()
	for i := range *part {
		rec := &(*part)[i]
		if log != nil {
			if rec.lsn, err = log.Append(rec.TS, rec.Line); err != nil {
				*part = (*part)[:i]
				break
			}
		}
		if rec.lsn != 0 {
			w.lsns = append(w.lsns, rec.lsn)
		}
	}
	if sent = len(*part); sent > 0 {
		ing.inflight.Add(int64(sent))
		w.q <- part
	}
	return sent, err
}

// Feed is the batch ingest helper of programs and tests: it hands lines to
// SubmitBatch in order, a queue's length at a time once the workers have
// drained, and returns when every line is processed. With log != nil every
// line is logged; the caller commits.
func (ing *Ingestor) Feed(log *wal.Log, lines []synth.TimedLine) error {
	return ing.feed(log, lines, nil)
}

// feed is Feed for lines that may carry WAL offsets (lsns as for submit).
func (ing *Ingestor) feed(log *wal.Log, lines []synth.TimedLine, lsns []uint64) error {
	for len(lines) > 0 {
		ing.Quiesce(0)
		n := min(len(lines), cap(ing.workers[0].q))
		var ls []uint64
		if lsns != nil {
			ls = lsns[:n]
		}
		n, err := ing.submit(log, lines[:n], ls)
		if err != nil {
			return err
		}
		lines = lines[n:]
		if lsns != nil {
			lsns = lsns[n:]
		}
	}
	ing.Quiesce(0)
	return nil
}

// Ingest runs lines, unlogged, through a fresh one-worker Ingestor and
// returns the complex events they caused, in line order.
func (p *Pipeline) Ingest(lines []synth.TimedLine) []model.Event {
	var evs []model.Event
	ing := p.NewIngestor(IngestorConfig{Workers: 1, OnEvents: func(e []model.Event, _ []synopses.CriticalPoint) { evs = append(evs, e...) }})
	_ = ing.Feed(nil, lines) // unlogged, so only a closed ingestor fails
	ing.Close()
	return evs
}

// Barrier pauses every worker at a batch boundary and returns a release
// function. While the barrier is held, the key groups (operator state and
// applied offsets) and the pipeline's analytics state are quiescent — the atomic cut that makes
// snapshots torn-write-free. New lines keep being accepted (into queues)
// until backpressure kicks in.
func (ing *Ingestor) Barrier() (release func()) {
	for _, w := range ing.workers {
		w.snapMu.Lock()
	}
	return func() {
		for _, w := range ing.workers {
			w.snapMu.Unlock()
		}
	}
}

// minQueued returns, under an established Barrier, the lowest LSN handed to
// a worker but not yet applied, or 0 when no logged line is queued.
func (ing *Ingestor) minQueued() (lsn uint64) {
	for _, w := range ing.workers {
		w.qmu.Lock()
		if len(w.lsns) > 0 && (lsn == 0 || w.lsns[0] < lsn) {
			lsn = w.lsns[0]
		}
		w.qmu.Unlock()
	}
	return lsn
}

// Workers returns the worker count.
func (ing *Ingestor) Workers() int { return len(ing.workers) }

// QueueDepths returns the current depth of each worker queue.
func (ing *Ingestor) QueueDepths() []int {
	out := make([]int, len(ing.workers))
	for i, w := range ing.workers {
		out[i] = len(w.q)
	}
	return out
}

// Rejected returns how many lines were dropped due to backpressure.
func (ing *Ingestor) Rejected() int64 { return ing.rejected.Load() }

// Pending returns the number of submitted lines not yet fully processed.
func (ing *Ingestor) Pending() int64 { return ing.inflight.Load() }

// Quiesce blocks until every submitted line has been fully processed, or
// the timeout elapses (0 means wait forever). It reports whether the
// ingestor drained. Lines submitted during the wait extend it — callers
// use this to observe a consistent store after a burst, not to pause
// ingest.
func (ing *Ingestor) Quiesce(timeout time.Duration) bool {
	var expired <-chan time.Time // nil, never ready, when waiting forever
	if timeout > 0 {
		t := time.NewTimer(timeout)
		defer t.Stop()
		expired = t.C
	}
	for {
		ing.idleMu.Lock()
		if ing.inflight.Load() == 0 {
			ing.idleMu.Unlock()
			return true
		}
		if ing.idle == nil {
			ing.idle = make(chan struct{})
		}
		idle := ing.idle
		ing.idleMu.Unlock()
		select {
		case <-idle:
		case <-expired:
			return false
		}
	}
}

// Close stops accepting lines, drains the queues and waits for the
// workers to finish. Safe to call concurrently with SubmitBatch.
func (ing *Ingestor) Close() {
	ing.mu.Lock()
	if ing.closed {
		ing.mu.Unlock()
		return
	}
	ing.closed = true
	for _, w := range ing.workers {
		close(w.q)
	}
	ing.mu.Unlock()
	ing.wg.Wait()
}
