package main

import (
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"time"
)

// A run is e.laps laps. Every lap starts a fresh daemon, sets it up and
// measures every metric on it, from the same generated inputs, and the run's
// figures are taken over the laps together: the reference box's speed moves
// by a fifth over minutes and by a factor of two for seconds at a time (see
// quiet), and a figure drawn from three daemons over the whole run holds
// where one drawn from a few seconds of one daemon does not. Every time a lap
// measures is corrected by what the yardstick read while it was being
// measured (yardstick.go). The set-ups a median of set-up times needs are
// thereby never wasted.

// Scale. Every line count is a fixed multiple of the seconds a lap measures
// for (a third of --seconds), so the state a lap builds is a function of
// (seed, seconds) alone and never of how fast the daemon happened to run;
// read phases are bounded by time because they leave no state behind. The
// multiples put roughly that many seconds of work in front of the seed
// commit's daemon on the 2-core reference box.
const (
	saturateLinesPerSec = 2500 // fleet-saturate bulk, dense world
	denseBulkPerSec     = 1700 // serve-mixed and query-analytic preload, dense world
	sparseBulkPerSec    = 6000 // durable-sparse preload, sparse world
	bulkBatchLines      = 512
	mixedReadRate       = 36 // reads/s, open loop, serve-mixed
	entityPicks         = 64
)

// Shares of a lap's seconds, and validity limits.
const (
	visibleShare  = 0.4  // paced write phase of the workloads that are not about it
	readShare     = 0.45 // closing read phase of the two ingest workloads
	analyticShare = 0.6  // read phase of query-analytic
	durableShare  = 0.45 // paced phase of durable-sparse up to the snapshot ...
	afterShare    = 0.1  // ... and after it, so recovery has a log to replay

	minSetupTime = 3 * time.Second // repeat set-up until it has taken this long in all ...
	maxSetups    = 7               // ... but no more often than this

	// A stream the noise gate eats is a replayed stream: 96 % on the looped
	// world of datacron-bench. A fresh stream loses 0.1 % to it, and one seed
	// in twenty 1 % when a scripted anomaly jumps.
	maxGatedShare = 0.05
	maxLateShare  = 0.05 // sends the generator itself delayed by more than a gap
)

// box is the running yardstick: what turns a time measured on the box as it
// is into the time a quiet box would have taken. It is nil outside a run,
// where times stand as measured.
var box *yardstick

// env is what every workload run shares.
type env struct {
	bin     string // built datacron-serve
	outDir  string // bench/out
	seed    int64
	seconds int
	laps    int
	// daemonFlags are extra datacron-serve flags for profiling runs.
	daemonFlags []string
}

// lapsPerRun is how many laps share a run's --seconds. A traced or -quick
// run makes one of them, at the same scale.
const lapsPerRun = 3

// lapSeconds is how long one lap measures for.
func (e *env) lapSeconds() float64 { return float64(e.seconds) / lapsPerRun }

func (e *env) dur(share float64) time.Duration {
	return time.Duration(share * e.lapSeconds() * float64(time.Second))
}

// lines is a per-second line budget scaled to a lap.
func (e *env) lines(perSec float64, share float64) int {
	return int(share * perSec * e.lapSeconds())
}

// plan is how many lines of its world a lap sends in each phase, in stream
// order: preloaded or bulk-loaded closed loop, paced, and (durable-sparse)
// paced after the snapshot.
type plan struct{ bulk, paced, after int }

func (p plan) total() int { return p.bulk + p.paced + p.after }

// spec describes one workload.
type spec struct {
	name string
	kind worldKind
	// How a lap's daemon is set up: the ingest body format, whether it runs
	// with -data-dir, whether plan.bulk is preloaded during set-up (and not
	// the timed load of measure) and whether the preload is sealed.
	format           string
	durable          bool
	preload, sealPre bool
	plan             func(*env, worldKind) plan
	measure          func(*env, *rig, plan, *result) error
}

var workloads = []spec{
	{
		name: "fleet-saturate", kind: dense, format: formatBinary, measure: measureFleetSaturate,
		plan: func(e *env, k worldKind) plan {
			return plan{bulk: e.lines(saturateLinesPerSec, 1), paced: e.lines(k.pacedRate, visibleShare)}
		},
	},
	{
		name: "durable-sparse", kind: sparse, format: formatText, durable: true, preload: true, measure: measureDurableSparse,
		plan: func(e *env, k worldKind) plan {
			return plan{bulk: e.lines(sparseBulkPerSec, 1), paced: e.lines(k.pacedRate, durableShare), after: e.lines(k.pacedRate, afterShare)}
		},
	},
	{
		name: "serve-mixed", kind: dense, format: formatBinary, preload: true, sealPre: true, measure: measureServeMixed,
		plan: func(e *env, k worldKind) plan {
			return plan{bulk: e.lines(denseBulkPerSec, 1), paced: e.lines(k.pacedRate, 1)}
		},
	},
	{
		name: "query-analytic", kind: dense, format: formatBinary, preload: true, sealPre: true, measure: measureQueryAnalytic,
		plan: func(e *env, k worldKind) plan {
			return plan{bulk: e.lines(denseBulkPerSec, 1), paced: e.lines(k.pacedRate, visibleShare)}
		},
	},
}

func findWorkload(name string) (spec, bool) {
	for _, s := range workloads {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}

// result is one workload run, as written to bench/out/<run>.json.
type result struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Laps       int                `json:"laps"`
	Valid      bool               `json:"valid"`
	Violations []string           `json:"violations,omitempty"`
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	EndToEnd   map[string]float64 `json:"end_to_end"`
	PerLayer   map[string]float64 `json:"per_layer"`
	Samples    map[string]summary `json:"samples"`
	// Hashes maps each distinct store read of a quiescent read phase to
	// the hash of its result: equal across laps and across runs of one seed.
	Hashes map[string]string `json:"result_hashes,omitempty"`
	// Slowness is how much slower than a quiet box the yardstick found the
	// box during each lap and bare set-up, in order. Each timing was divided
	// by the slowness of its own stretch of the lap.
	Slowness    []float64 `json:"box_slowness"`
	DaemonFlags string    `json:"daemon_flags"`
	FlushPolicy string    `json:"flush_policy"`

	// What the laps add up: latencies by class, every closed-loop load's
	// rate, every set-up's time.
	lat    map[string]*latencies
	loads  []*bulk
	setups []float64
	// conns are the current lap's timed connections, for their 429 and
	// backlog counts.
	conns []*conn
}

func newResult(s spec, e *env) *result {
	return &result{
		Workload: s.name, Seed: e.seed, Seconds: e.seconds, Laps: e.laps, Valid: true,
		EndToEnd: map[string]float64{}, PerLayer: map[string]float64{},
		Samples: map[string]summary{}, Hashes: map[string]string{},
		FlushPolicy: "in-memory, no WAL", lat: map[string]*latencies{},
	}
}

func (r *result) violate(format string, a ...any) {
	r.Valid = false
	r.Violations = append(r.Violations, fmt.Sprintf(format, a...))
}

// conn opens a connection that belongs to the timed window.
func (r *result) conn(base string) *conn {
	c := newConn(base)
	r.conns = append(r.conns, c)
	return c
}

// class returns the run's pool of samples called name.
func (r *result) class(name string) *latencies {
	if r.lat[name] == nil {
		r.lat[name] = &latencies{}
	}
	return r.lat[name]
}

// rig is a running daemon with the world it is being fed.
type rig struct {
	d       *daemon
	w       world
	dataDir string
	flags   []string
}

func (g *rig) close() {
	if g.d != nil {
		g.d.kill()
	}
	if g.dataDir != "" {
		removeTempDir(g.dataDir)
	}
}

// mix is the read mix for this rig once it holds the first n lines.
func (g *rig) mix(e *env, n int) *readMix { return newReadMix(g.w.lines[:n], e.seed) }

// pacedFeed renders the n lines of g's world from first on as the world's
// paced batches.
func (g *rig) pacedFeed(format string, first, n int) *feed {
	return newFeed(format, g.w.lines[first:first+n], g.w.kind.pacedBatch)
}

// runWorkload runs s: every lap on a fresh daemon, then more bare set-ups
// while set-up is cheap, then the figures over all of it.
func runWorkload(e *env, s spec, r *result) error {
	pl := s.plan(e, s.kind)
	w, err := genWorld(s.kind, e.seed, pl.total())
	if err != nil {
		return err
	}
	// Generating a world leaves a heap of garbage; collect it now, not on the
	// daemon's CPUs during the first lap.
	runtime.GC()
	box = startYardstick()
	defer func() {
		box.close()
		box = nil
	}()
	begin := time.Now()
	lap := func(measure bool) error {
		t0 := time.Now()
		g, err := r.setUp(e, s, w, pl)
		if err != nil {
			return err
		}
		defer g.close()
		r.DaemonFlags = strings.Join(g.d.cmd.Args[1:], " ")
		r.PerLayer["server.startup_ms"] = float64(g.d.startup) / float64(time.Millisecond)
		if measure {
			r.conns = nil
			if err := s.measure(e, g, pl, r); err != nil {
				return err
			}
		}
		r.Slowness = append(r.Slowness, slowness(box.reading(t0, time.Now())))
		return nil
	}
	for i := 0; i < e.laps; i++ {
		if err := lap(true); err != nil {
			return err
		}
	}
	// A cheap set-up is repeated more often, for a steadier median.
	for e.laps > 1 && len(r.setups) < maxSetups && sum(r.setups) < minSetupTime.Seconds() {
		if err := lap(false); err != nil {
			return err
		}
	}
	r.PerLayer["box.slowness"] = slowness(box.reading(begin, time.Now()))
	r.figures()
	return nil
}

// setUp builds a rig and times it: start a primed daemon with the workload's
// flags and, when the workload preloads, load plan.bulk lines closed-loop on
// one connection and seal the store when asked.
func (r *result) setUp(e *env, s spec, w world, pl plan) (g *rig, err error) {
	t0 := time.Now()
	g = &rig{w: w, flags: e.daemonFlags}
	defer func() {
		if err != nil {
			g.close()
		}
	}()
	if s.durable {
		if g.dataDir, err = tempDir(e.outDir, "data-"); err != nil {
			return nil, err
		}
		g.flags = append([]string{"-data-dir", g.dataDir}, g.flags...)
	}
	if g.d, err = startDaemon(e.bin, w, g.flags...); err != nil {
		return nil, err
	}
	if s.preload {
		c := newConn(g.d.base)
		defer c.close()
		b, err := bulkLoad([]*conn{c}, []*feed{newFeed(s.format, w.lines[:pl.bulk], bulkBatchLines)})
		if err != nil {
			return nil, err
		}
		r.loads = append(r.loads, b)
		if s.sealPre {
			if err = c.post("/seal"); err != nil {
				return nil, err
			}
		}
	}
	r.setups = append(r.setups, box.fair(t0, time.Now()).Seconds())
	return g, nil
}

// loadLegs is how many legs a closed-loop load is timed in.
const loadLegs = 4

// bulk is what one closed-loop load measured.
type bulk struct {
	lines int
	// legs are the seconds each leg of the load took, from its first send to
	// its last line taken in, on a quiet box (yardstick.go).
	legs []float64
	// frames are each batch's send-to-accepted times.
	frames latencies
}

func (b *bulk) rate() float64 { return float64(b.lines) / sum(b.legs) }

// bulkLoad sends every batch of feeds closed-loop, one connection per feed,
// resuming after each 429, in loadLegs legs: each leg sends the next share
// of every feed and ends when the daemon has taken in every line sent so
// far. Every load of a run sends the same lines into the same state, so a
// leg can be compared with the same leg of another lap (see bestRate).
func bulkLoad(conns []*conn, feeds []*feed) (*bulk, error) {
	base, err := conns[0].processed()
	if err != nil {
		return nil, err
	}
	out := &bulk{}
	for leg, sent := 0, 0; leg < loadLegs; leg++ {
		var (
			wg    sync.WaitGroup
			mu    sync.Mutex
			first error
			begin = time.Now()
		)
		for i, f := range feeds {
			share := f.batches[leg*len(f.batches)/loadLegs : (leg+1)*len(f.batches)/loadLegs]
			for _, b := range share {
				sent += b.n
			}
			wg.Add(1)
			go func(c *conn, f *feed) {
				defer wg.Done()
				var local latencies
				var err error
				for _, b := range share {
					t0 := time.Now()
					if _, err = c.send(f, b, false); err != nil {
						break
					}
					local.add(time.Since(t0))
				}
				mu.Lock()
				defer mu.Unlock()
				out.frames.ms = append(out.frames.ms, local.ms...)
				if first == nil {
					first = err
				}
			}(conns[i], f)
		}
		wg.Wait()
		if first != nil {
			return nil, first
		}
		for deadline := time.Now().Add(2 * time.Minute); ; time.Sleep(2 * time.Millisecond) {
			n, err := conns[0].processed()
			if err != nil {
				return nil, err
			}
			if n-base >= sent {
				break
			}
			if time.Now().After(deadline) {
				return nil, fmt.Errorf("daemon took in %d of %d lines in two minutes", n-base, sent)
			}
		}
		out.legs = append(out.legs, box.fair(begin, time.Now()).Seconds())
		out.lines = sent
	}
	return out, conns[0].drain()
}

// bestRate is the closed-loop rate in lines per second of the run's loads put
// together from the fastest lap of each leg. The box's neighbours slow a lap
// for a second or two at a time (see quiet); a leg is short enough that some
// lap ran it undisturbed.
func bestRate(loads []*bulk) float64 {
	if len(loads) == 0 {
		return 0
	}
	var best float64
	for leg := range loads[0].legs {
		fastest := loads[0].legs[leg]
		for _, b := range loads[1:] {
			fastest = min(fastest, b.legs[leg])
		}
		best += fastest
	}
	return float64(loads[0].lines) / best
}

// pacedWrites posts f's batches with ?wait=1 at rate lines per second on one
// connection, so each reply means the batch is applied (and, with a WAL,
// committed) and visible to queries. A refusal (429) in an open loop is a
// failed request, though the refused lines are still resumed so the stream
// stays whole. hook, when set, runs inline after batch hookAt (the
// snapshot): the batches up to it are the visible latency, the ones after it
// show what the hook cost the stream.
func (r *result) pacedWrites(c *conn, f *feed, rate float64, start time.Time, hookAt int, hook func() error) error {
	gap := time.Duration(float64(f.per) / rate * float64(time.Second))
	var err error
	p := pace(wallClock{}, start, gap, len(f.batches), func(i int) {
		if err != nil {
			return
		}
		var refused int
		if refused, err = c.send(f, f.batches[i], true); err != nil {
			return
		}
		if refused > 0 {
			r.Failed++
		}
		if hook != nil && i == hookAt {
			err = hook()
		}
	})
	if err != nil {
		return err
	}
	r.Attempted += len(f.batches)
	if hook != nil {
		after := p
		after.latency, after.late, after.done = p.latency[hookAt+1:], p.late[hookAt+1:], p.done[hookAt+1:]
		p.latency, p.late, p.done = p.latency[:hookAt+1], p.late[:hookAt+1], p.done[:hookAt+1]
		r.notePaced(classAfterHook, after)
	}
	r.notePaced(classVisible, p)
	return nil
}

// Sample classes beside the read classes of reads.go.
const (
	classVisible   = "ingest.visible"
	classAfterHook = "ingest.after_hook"
	classFrame     = "ingest.frame"
	classReadAll   = "read.all"
)

// notePaced adds an open-loop phase's latencies to the class name and
// applies the generator-lateness guard.
func (r *result) notePaced(name string, p paced) {
	l, late := r.class(name), &latencies{}
	for i, d := range p.latency {
		l.add(box.fair(p.done[i].Add(-d), p.done[i]))
	}
	for _, d := range p.late {
		late.add(d)
	}
	r.PerLayer["gen.late_p99_ms"] = max(r.PerLayer["gen.late_p99_ms"], late.at(0.99))
	if share := p.lateShare(); share > maxLateShare {
		r.violate("%s: generator sent %.1f%% of requests more than one gap late", name, 100*share)
	}
}

// noteReads adds a read phase: per-class samples, failures, result hashes.
func (r *result) noteReads(rd *reads) {
	for _, c := range readClasses {
		l := r.class("read." + c)
		l.ms = append(l.ms, rd.byClass[c].ms...)
		if rd.byClass[c].n() == 0 {
			r.violate("read class %s has no sample", c)
		}
	}
	over := r.class("server.query_overhead")
	over.ms = append(over.ms, rd.overheadUS.ms...)
	if rd.queries > 0 {
		r.PerLayer["query.rows_per_result"] = float64(rd.rows) / float64(rd.queries)
		r.PerLayer["query.segments_pruned"] = float64(rd.pruned) / float64(rd.queries)
	}
	r.Attempted += rd.attempted
	r.Failed += rd.failed
	for _, k := range rd.mismatch {
		r.violate("result of %q changed between repeats on a quiescent store", k)
	}
	for k, h := range rd.hashes {
		if prev, ok := r.Hashes[k]; ok && prev != h {
			r.violate("result of %q differs between two laps fed the same lines", k)
		}
		r.Hashes[k] = h
	}
}

// quiet is the quantile latencies are gated on. The reference box is a guest
// on a shared host whose neighbours load the shared cache and memory: a loop
// that misses the cache runs at anything from 1x to 2.4x its best time there,
// for seconds at a time and, less, for minutes; one that does not is steady
// to 3 %. Medians and tails move with the neighbours; the lower quartile over
// three laps is what the daemon does when it has the memory system. Medians
// and tails are still printed and recorded beside it.
const quiet = 0.25

// figures derives the run's metrics from what the laps added up.
func (r *result) figures() {
	all := r.class(classReadAll)
	if all.n() == 0 { // closed-loop reads: every read's own latency
		for _, c := range readClasses {
			all.ms = append(all.ms, r.class("read."+c).ms...)
		}
	}
	for name, l := range r.lat {
		r.Samples[name] = l.summarize()
	}
	var rates []float64
	for _, b := range r.loads {
		rates = append(rates, b.rate())
	}
	at := func(class string, q float64) float64 { return r.class(class).at(q) }
	r.EndToEnd["setup_s"] = median(r.setups)
	r.EndToEnd["ingest_lines_per_s"] = bestRate(r.loads)
	r.EndToEnd["visible_p50_ms"] = at(classVisible, 0.5)
	r.EndToEnd["query_group_p25_ms"] = at("read."+classGroup, quiet)
	r.EndToEnd["query_count_p25_ms"] = at("read."+classCount, quiet)

	pl := r.PerLayer
	pl["ingest.median_load_lines_per_s"] = median(rates)
	pl["ingest.loads"] = float64(len(r.loads))
	pl["ingest.visible_p25_ms"] = at(classVisible, quiet)
	pl["ingest.visible_tail_ms"] = r.Samples[classVisible].TailMS
	pl["read.sel_p25_ms"] = at("read."+classSel, quiet)
	pl["read.range_p25_ms"] = at("read."+classRange, quiet)
	pl["read.forecast_p25_ms"] = at("read."+classForecast, quiet)
	pl["read.synopsis_p25_ms"] = at("read."+classSynopsis, quiet)
	pl["read.p50_ms"] = r.Samples[classReadAll].P50
	pl["read.tail_ms"] = r.Samples[classReadAll].TailMS
	pl["server.query_overhead_us"] = at("server.query_overhead", 0.5) * 1000
	delete(r.Samples, "server.query_overhead")
	if r.Failed > 0 {
		r.violate("%d of %d requests failed or were refused", r.Failed, r.Attempted)
	}
}

// finish ends a lap's measurement: the closing /metrics scrape and the
// memory high-water mark, the per-layer counts and the stream-validity
// guards. sent is every line the generator posted into this daemon's state,
// set-up included.
func (r *result) finish(g *rig, before metricSet, sent int) error {
	c := newConn(g.d.base)
	defer c.close()
	after, err := c.metrics()
	if err != nil {
		return err
	}
	rss, err := g.d.peakRSSMiB()
	if err != nil {
		return err
	}
	r.EndToEnd["rss_peak_mb"] = max(r.EndToEnd["rss_peak_mb"], rss)
	r.layerCounts(after, after.minus(before))

	if lines := int(after["datacron_ingest_lines_total"]); lines != sent {
		r.violate("daemon processed %d lines, generator sent %d", lines, sent)
	}
	if bad := after["datacron_ingest_bad_lines_total"]; bad != 0 {
		r.violate("%d bad lines", int(bad))
	}
	decoded, gated := after["datacron_ingest_decoded_total"], after["datacron_ingest_gated_total"]
	if decoded == 0 || gated/decoded > maxGatedShare {
		r.violate("noise gate dropped %d of %d decoded reports: the stream repeats or is out of order", int(gated), int(decoded))
	}
	if after["datacron_ingest_stored_total"] == 0 {
		r.violate("nothing stored")
	}
	if errs := after.sumPrefix("datacron_http_errors_total"); errs != 0 {
		r.violate("%d 5xx responses", int(errs))
	}
	return nil
}

// layerCounts maps /metrics samples and the generator's own counts onto
// per-layer metric names: total is the lap's closing scrape, delta its
// change over the timed window. Every lap sees the same lines, so the last
// lap's counts stand for the run; what a lap's luck decides (429s, queue
// depth) is the largest any lap saw.
func (r *result) layerCounts(total, delta metricSet) {
	pl := r.PerLayer
	var refusals float64
	for _, c := range r.conns {
		refusals += float64(c.refusals)
		pl["core.queue_depth_max"] = max(pl["core.queue_depth_max"], float64(c.maxPending))
	}
	pl["server.http_429"] = max(pl["server.http_429"], refusals)
	pl["core.rejected_lines"] = delta["datacron_ingest_rejected_total"]
	pl["ais.bad_lines"] = total["datacron_ingest_bad_lines_total"]
	decoded := total["datacron_ingest_decoded_total"]
	if decoded > 0 {
		pl["insitu.gated_share"] = total["datacron_ingest_gated_total"] / decoded
	}
	if passed := decoded - total["datacron_ingest_gated_total"]; passed > 0 {
		pl["insitu.keep_ratio"] = total["datacron_ingest_stored_total"] / passed
	}
	pl["cer.detections"] = total["datacron_detections_total"]
	pl["store.segments"] = total["datacron_store_segments"]
	if stored := total["datacron_ingest_stored_total"]; stored > 0 {
		pl["store.triples_per_pos"] = total["datacron_store_triples"] / stored
	}
	pl["rdf.dict_terms"] = total["datacron_dict_terms"]
	pl["synopses.compression_ratio"] = total["datacron_synopses_compression_ratio"]
	pl["wal.replayed_records"] = total["datacron_recovery_replayed_total"]
	hits, misses := delta["datacron_query_plan_cache_hits"], delta["datacron_query_plan_cache_misses"]
	if hits+misses > 0 {
		pl["query.plan_cache_hit_ratio"] = hits / (hits + misses)
	}
}

// measureFleetSaturate: closed loop, two connections, binary frames of 512
// lines into an in-memory daemon; then a paced phase for the visible latency
// and the common read mix over the unsealed head.
func measureFleetSaturate(e *env, g *rig, pl plan, r *result) error {
	var feeds []*feed
	var conns []*conn
	for _, share := range splitByEntity(g.w.lines[:pl.bulk], 2) {
		feeds = append(feeds, newFeed(formatBinary, share, bulkBatchLines))
		c := r.conn(g.d.base)
		defer c.close()
		conns = append(conns, c)
	}
	paced := g.pacedFeed(formatBinary, pl.bulk, pl.paced)
	before, err := conns[0].metrics()
	if err != nil {
		return err
	}

	b, err := bulkLoad(conns, feeds)
	if err != nil {
		return err
	}
	r.loads = append(r.loads, b)
	frames := r.class(classFrame)
	frames.ms = append(frames.ms, b.frames.ms...)
	r.Attempted += b.frames.n()
	if err := r.pacedWrites(conns[0], paced, g.w.kind.pacedRate, time.Now(), -1, nil); err != nil {
		return err
	}
	rd := newReads()
	rd.closedLoop(conns[0], g.mix(e, pl.bulk), e.dur(readShare))
	r.noteReads(rd)
	return r.finish(g, before, pl.total())
}

// measureDurableSparse: text bodies of 256 lines into a daemon with a WAL
// (flushed to the OS before each ack, no fsync), paced on one connection,
// then a snapshot and more paced writes, kill -9 after the last ack, restart
// on the same directory and compare a fixed COUNT; then the common read mix
// over the recovered store.
func measureDurableSparse(e *env, g *rig, pl plan, r *result) error {
	r.FlushPolicy = "WAL group commit flushes to the OS before each ack; -fsync=false (survives kill -9, not power loss)"
	f := g.pacedFeed(formatText, pl.bulk, pl.paced+pl.after)
	c := r.conn(g.d.base)
	before, err := c.metrics()
	if err != nil {
		return err
	}

	var snapshot time.Duration
	err = r.pacedWrites(c, f, g.w.kind.pacedRate, time.Now(), pl.paced/f.per-1, func() error {
		t0 := time.Now()
		err := c.post("/snapshot")
		snapshot = time.Since(t0)
		return err
	})
	if err != nil {
		return err
	}
	r.PerLayer["core.snapshot_http_ms"] = float64(snapshot) / float64(time.Millisecond)

	// Every batch was acked applied, so the COUNT sees every acked line; the
	// kill lands on a daemon whose snapshot is older than its log.
	countBefore, err := storedCount(c)
	if err != nil {
		return err
	}
	mid, err := c.metrics()
	if err != nil {
		return err
	}
	rss, err := g.d.peakRSSMiB()
	if err != nil {
		return err
	}
	r.EndToEnd["rss_peak_mb"] = max(r.EndToEnd["rss_peak_mb"], rss)
	c.close()
	g.d.kill()

	if g.d, err = startDaemon(e.bin, g.w, g.flags...); err != nil {
		return err
	}
	r.PerLayer["recovery_s"] = g.d.startup.Seconds()
	c = r.conn(g.d.base)
	defer c.close()
	countAfter, err := storedCount(c)
	if err != nil {
		return err
	}
	if countAfter != countBefore {
		r.violate("COUNT before kill -9 %s, after recovery %s", countBefore, countAfter)
	}
	// Recovery leaves everything in the store's head. The reads are the other
	// workloads' reads, over sealed segments: what a head costs to scan
	// differs by a third between seeds of a 50-vessel world.
	if err := c.post("/seal"); err != nil {
		return err
	}
	rd := newReads()
	rd.closedLoop(c, g.mix(e, pl.bulk), e.dur(readShare))
	r.noteReads(rd)
	if err := r.finish(g, before, pl.total()); err != nil {
		return err
	}
	// finish scraped the restarted daemon, whose line counters were restored
	// by recovery; what the first daemon shed in the window died with it.
	r.PerLayer["core.rejected_lines"] = mid.minus(before)["datacron_ingest_rejected_total"]
	return nil
}

// storedCount runs the fixed COUNT and returns its canonical result.
func storedCount(c *conn) (string, error) {
	status, body, err := c.request(http.MethodPost, "/query", "text/plain", []byte(queryCount))
	if err != nil || status != http.StatusOK {
		return "", fmt.Errorf("count query: status %d: %v", status, err)
	}
	sr, err := parseStoreRead("/query", body)
	return string(sr.canon), err
}

// measureServeMixed: over sealed segments plus a live head, connection 1
// posts binary frames with ?wait=1 at a fixed rate while connection 2 reads
// at a fixed rate.
func measureServeMixed(e *env, g *rig, pl plan, r *result) error {
	f := g.pacedFeed(formatBinary, pl.bulk, pl.paced)
	wc, rc := r.conn(g.d.base), r.conn(g.d.base)
	defer wc.close()
	defer rc.close()
	before, err := wc.metrics()
	if err != nil {
		return err
	}

	rd := newReads()
	mix := g.mix(e, pl.bulk)
	start := time.Now().Add(10 * time.Millisecond)
	var rp paced
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		rp = rd.openLoop(rc, mix, mixedReadRate, e.dur(1), start)
	}()
	err = r.pacedWrites(wc, f, g.w.kind.pacedRate, start, -1, nil)
	wg.Wait()
	if err != nil {
		return err
	}
	r.notePaced(classReadAll, rp)
	r.noteReads(rd)
	return r.finish(g, before, pl.total())
}

// measureQueryAnalytic: over the sealed preload, a paced phase for the
// visible latency, seal again, then the read mix closed-loop on one
// connection over a store nothing writes to, every store read's result
// hashed.
func measureQueryAnalytic(e *env, g *rig, pl plan, r *result) error {
	c := r.conn(g.d.base)
	defer c.close()
	before, err := c.metrics()
	if err != nil {
		return err
	}
	if err := r.pacedWrites(c, g.pacedFeed(formatBinary, pl.bulk, pl.paced), g.w.kind.pacedRate, time.Now(), -1, nil); err != nil {
		return err
	}
	if err := c.post("/seal"); err != nil {
		return err
	}
	rd := newReads()
	rd.closedLoop(c, g.mix(e, pl.bulk), e.dur(analyticShare))
	r.noteReads(rd)
	return r.finish(g, before, pl.total())
}
