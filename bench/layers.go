package main

import (
	"fmt"
	"path/filepath"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/store"
)

// layerRun is one world's traced replay: the spans, the pipeline they ran
// against and what the replay counted.
type layerRun struct {
	w      world
	p      *core.Pipeline
	t      *tracer
	counts replayCounts
	// untraced is the same replay's duration with spans off.
	untraced time.Duration
}

// traceWorld replays kind's first n lines twice on fresh state, spans off
// then on: the first pass times the layers' sum, the second attributes it.
func traceWorld(e *env, kind worldKind, n int, scratch string) (*layerRun, error) {
	w, err := genWorld(kind, e.seed, n)
	if err != nil {
		return nil, err
	}
	off, err := replayIngest(&tracer{}, newPipeline(w), w, filepath.Join(scratch, kind.name+"-off"))
	if err != nil {
		return nil, err
	}
	run := &layerRun{w: w, p: newPipeline(w), t: &tracer{on: true, t0: time.Now()}, untraced: off.total}
	run.counts, err = replayIngest(run.t, run.p, w, filepath.Join(scratch, kind.name+"-on"))
	return run, err
}

// figures turns span self times into per-unit numbers.
type figures struct {
	self  map[string]time.Duration
	calls map[string]int
}

func newFigures(spans []span) figures {
	f := figures{self: selfTimes(spans), calls: map[string]int{}}
	for _, s := range spans {
		f.calls[s.Name]++
	}
	return f
}

// per is name's total self time over n units, in unit.
func (f figures) per(name string, n int, unit time.Duration) float64 {
	if n == 0 {
		return 0
	}
	return float64(f.self[name]) / float64(unit) / float64(n)
}

// perCall is name's mean self time per span.
func (f figures) perCall(name string, unit time.Duration) float64 {
	return f.per(name, f.calls[name], unit)
}

// traceLayers is the traced run: it fills r.PerLayer with every in-process
// layer figure and writes bench/out/trace.json.
func traceLayers(e *env, r *result) error {
	n := traceLines
	if e.seconds < 5 {
		n /= 10 // -quick
	}
	scratch, err := tempDir(e.outDir, "trace-")
	if err != nil {
		return err
	}
	defer removeTempDir(scratch)
	pl := r.PerLayer

	d, err := traceWorld(e, dense, n, scratch)
	if err != nil {
		return err
	}
	s, err := traceWorld(e, sparse, n, scratch)
	if err != nil {
		return err
	}
	pl["core.ingest_serial_ns_per_line.dense"] = serialIngest(d.w)
	pl["core.ingest_serial_ns_per_line.sparse"] = serialIngest(s.w)
	pl["cer.process_ns_per_pos.sparse"] = newFigures(s.t.spans).per(spanCER, s.counts.passed, 1)

	// Queries run over what the dense replay stored, sealed.
	t0 := time.Now()
	d.p.Store.Maintain(store.TierPolicy{}, true)
	pl["store.seal_ms"] = float64(time.Since(t0)) / float64(time.Millisecond)
	serialQueries, err := replayQueries(d.t, d.p, d.w, 20)
	if err != nil {
		return err
	}

	f, c := newFigures(d.t.spans), d.counts
	pl["trace.overhead_ratio"] = float64(c.total) / float64(d.untraced)
	pl["wire.decode_ns_per_line"] = f.per(spanWire, c.lines, 1)
	pl["wire.bytes_per_line"] = float64(c.frameBytes) / float64(c.lines)
	pl["ais.decode_ns_per_line"] = f.per(spanAIS, c.lines, 1)
	pl["core.route_ns_per_line"] = f.per(spanRoute, c.lines, 1)
	pl["cluster.route_ns_per_line"] = f.per(spanCluster, c.lines, 1)
	pl["insitu.gate_ns_per_line"] = f.per(spanGate, c.decoded, 1)
	pl["onto.triples_ns_per_pos"] = f.per(spanOnto, c.kept, 1)
	pl["store.add_ns_per_pos"] = f.per(spanStore, c.kept, 1)
	pl["cer.process_ns_per_pos.dense"] = f.per(spanCER, c.passed, 1)
	pl["forecast.observe_ns_per_pos"] = f.per(spanForecast, c.passed, 1)
	pl["synopses.observe_ns_per_pos"] = f.per(spanSynopses, c.passed, 1)
	pl["wal.append_ns_per_line"] = f.per(spanWALApp, c.lines, 1)
	pl["wal.commit_us"] = f.perCall(spanWALCmt, time.Microsecond)
	pl["wal.lines_per_commit"] = float64(c.lines) / float64(c.commits)
	pl["wal.bytes_per_line"] = float64(c.walBytes) / float64(c.lines)
	pl["query.parse_us"] = f.perCall(spanParse, time.Microsecond)
	pl["query.plan_cache_hit_us"] = f.perCall(spanPlanHit, time.Microsecond)
	pl["query.run_count_ms"] = f.perCall(spanRunCount, time.Millisecond)
	pl["query.run_group_ms"] = f.perCall(spanRunGroup, time.Millisecond)
	pl["query.run_sel_us"] = f.perCall(spanRunSel, time.Microsecond)
	pl["store.range_us"] = f.perCall(spanRange, time.Microsecond)

	// The budget, written down. One line costs the serial pipeline the
	// layers it passes through there: decode, gate, store (which transforms
	// to RDF itself), CER and the two hubs; the standalone onto, routing and
	// WAL spans are not on that path. One query costs parse plus execution.
	ingestSum := f.self[spanAIS] + f.self[spanGate] + f.self[spanStore] + f.self[spanCER] + f.self[spanForecast] + f.self[spanSynopses]
	pl["ingest.layer_sum_ratio"] = float64(ingestSum) / float64(c.lines) / pl["core.ingest_serial_ns_per_line.dense"]
	querySum := f.self[spanParse] + f.self[spanRunCount] + f.self[spanRunGroup] + f.self[spanRunSel]
	pl["query.layer_sum_ratio"] = float64(querySum) / float64(serialQueries)

	ids := seenEntities(d.w.lines)
	t0 = time.Now()
	for _, id := range ids {
		if _, err := d.p.ForecastHub.Forecast(id, 10*time.Minute); err != nil {
			return fmt.Errorf("forecast %s: %w", id, err)
		}
	}
	pl["forecast.predict_us"] = float64(time.Since(t0)) / float64(time.Microsecond) / float64(len(ids))

	for _, format := range []string{formatText, formatBinary} {
		if pl["server.ingest_"+format+"_ns_per_line"], err = handlerCost(d.w, format); err != nil {
			return err
		}
	}
	if pl["core.snapshot_ms"], pl["core.recover_ms"], pl["core.snapshot_bytes_per_line"], err = durabilityCost(s.w, filepath.Join(scratch, "durable")); err != nil {
		return err
	}

	all := appendSpans(append([]span(nil), d.t.spans...), s.t.spans)
	if err := writeJSON(filepath.Join(e.outDir, "trace.json"), all); err != nil {
		return err
	}
	fmt.Printf("wrote bench/out/trace.json (%d spans)\n", len(all))
	return nil
}
