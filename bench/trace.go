package main

import (
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"time"

	"github.com/datacron-project/datacron/internal/ais"
	"github.com/datacron-project/datacron/internal/cluster"
	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/insitu"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/query"
	"github.com/datacron-project/datacron/internal/server"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
	"github.com/datacron-project/datacron/internal/wire"
)

// The traced run replays generated lines and the query mix through each
// layer's public functions, in pipeline order and in this process: no
// daemon, no HTTP. Spans are recorded here, around the calls into each
// layer; spans inside the daemon are a later change.

// traceLines sizes the replay: this many lines of each world.
const traceLines = 10000

// span is one timed call batch into a layer.
type span struct {
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
	Parent  int    `json:"parent"` // index into the span list, -1 for a root
	Request int    `json:"request"`
}

// tracer keeps spans in memory; trace.json is written once, at the end.
type tracer struct {
	on    bool
	t0    time.Time
	spans []span
	stack []int
}

func (t *tracer) begin(name string, request int) {
	if !t.on {
		return
	}
	parent := -1
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.stack = append(t.stack, len(t.spans))
	t.spans = append(t.spans, span{Name: name, StartNS: int64(time.Since(t.t0)), Parent: parent, Request: request})
}

func (t *tracer) end() {
	if !t.on {
		return
	}
	i := t.stack[len(t.stack)-1]
	t.stack = t.stack[:len(t.stack)-1]
	t.spans[i].EndNS = int64(time.Since(t.t0))
}

// selfTimes sums, per span name, each span's duration minus the part its
// child spans cover.
func selfTimes(spans []span) map[string]time.Duration {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.EndNS - s.StartNS
		}
	}
	self := map[string]time.Duration{}
	for i, s := range spans {
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - covered[i])
	}
	return self
}

// appendSpans concatenates two span lists, keeping parent links valid.
func appendSpans(all, more []span) []span {
	base := len(all)
	for _, s := range more {
		if s.Parent >= 0 {
			s.Parent += base
		}
		all = append(all, s)
	}
	return all
}

// Span names: the internal/ package whose public function the span wraps.
const (
	spanRequest  = "request"
	spanWire     = "wire"
	spanAIS      = "ais"
	spanRoute    = "core.route"
	spanGate     = "insitu"
	spanOnto     = "onto"
	spanStore    = "store"
	spanCER      = "cer"
	spanForecast = "forecast"
	spanSynopses = "synopses"
	spanWALApp   = "wal.append"
	spanWALCmt   = "wal.commit"
	spanParse    = "query.parse"
	spanPlanHit  = "query.plan_cache_hit"
	spanRunCount = "query.run.count"
	spanRunGroup = "query.run.group"
	spanRunSel   = "query.run.sel"
	spanRange    = "store.range"
	spanCluster  = "cluster"
)

// newPipeline builds a primed in-process pipeline configured like the
// daemon's default flags.
func newPipeline(w world) *core.Pipeline {
	p := core.New(core.Config{
		Domain:   model.Maritime,
		Forecast: core.ForecastConfig{Enabled: true},
		Synopses: core.SynopsesConfig{Enabled: true},
	})
	p.InstallAreas(w.areas)
	p.InstallEntities(w.entities)
	return p
}

// navStatus mirrors the pipeline's AIS navigation-status mapping.
func navStatus(code uint8) model.NavStatus {
	switch code {
	case 0:
		return model.StatusUnderway
	case 1:
		return model.StatusAnchored
	case 5:
		return model.StatusMoored
	case 7:
		return model.StatusFishing
	}
	return model.StatusUnknown
}

// replayCounts is what one layered replay saw.
type replayCounts struct {
	lines, frameBytes int
	decoded, passed   int // position reports; those the noise gate accepted
	kept              int // those compression kept
	commits           int
	walBytes          int64
	total             time.Duration
}

// replayIngest drives w's lines through the ingest layers, a stage at a time
// over each 256-line batch, against p's store, CER suite and hubs and a WAL
// in walDir.
func replayIngest(t *tracer, p *core.Pipeline, w world, walDir string) (replayCounts, error) {
	var c replayCounts
	log, err := wal.Open(walDir, wal.Options{NoSync: true})
	if err != nil {
		return c, err
	}
	defer log.Close()
	var (
		gate    = insitu.NewNoiseGate(40) // the daemon's maritime default
		filter  = insitu.NewThresholdFilter(insitu.DefaultThreshold())
		bw      = p.Store.NewBatchWriter()
		ring    = cluster.NewRing([]string{"a:1", "b:1", "c:1"}, 0)
		f       = newFeed(formatBinary, w.lines, w.kind.pacedBatch)
		dec     wire.Decoder
		lines   []synth.TimedLine
		reports []model.Position
		passed  []model.Position
		kept    []model.Position
		key     []byte
		triples []onto.TripleT
	)
	begin := time.Now()
	for req, b := range f.batches {
		t.begin(spanRequest, req)

		t.begin(spanWire, req)
		lines = lines[:0]
		if _, err := dec.ResetText(b.body); err != nil {
			return c, err
		}
		for {
			ts, line, ok := dec.NextText()
			if !ok {
				break
			}
			lines = append(lines, synth.TimedLine{TS: ts, Line: line})
		}
		t.end()
		if dec.Err() != nil || len(lines) != b.n {
			return c, fmt.Errorf("wire: decoded %d of %d records: %v", len(lines), b.n, dec.Err())
		}
		c.lines += len(lines)
		c.frameBytes += len(b.body)

		t.begin(spanWALApp, req)
		for _, tl := range lines {
			if _, err := log.Append(tl.TS, tl.Line); err != nil {
				return c, err
			}
		}
		t.end()
		t.begin(spanWALCmt, req)
		err := log.Commit()
		t.end()
		if err != nil {
			return c, err
		}
		c.commits++

		t.begin(spanRoute, req)
		for _, tl := range lines {
			key = p.AppendRoutingKey(key[:0], tl.Line)
		}
		t.end()
		t.begin(spanCluster, req)
		for _, tl := range lines {
			key = p.AppendRoutingKey(key[:0], tl.Line)
			_ = ring.OwnerBytes(key)
		}
		t.end()

		t.begin(spanAIS, req)
		reports = reports[:0]
		for _, tl := range lines {
			// Fragments of two-sentence static messages are not single
			// reports; DecodeLine refuses them and the replay moves on.
			d, err := ais.DecodeLine(tl.Line)
			if err != nil {
				continue
			}
			if m, ok := d.(ais.PositionReport); ok {
				reports = append(reports, model.Position{
					EntityID: fmt.Sprintf("%09d", m.MMSI), Domain: model.Maritime, TS: tl.TS,
					Pt: geo.Pt(m.Lon, m.Lat), SpeedMS: geo.Knots(m.SOG), CourseDeg: m.COG,
					Status: navStatus(m.NavStatus),
				})
			}
		}
		t.end()
		c.decoded += len(reports)

		t.begin(spanGate, req)
		passed, kept = passed[:0], kept[:0]
		for _, pos := range reports {
			if !gate.Accept(pos) {
				continue
			}
			passed = append(passed, pos)
			if filter.Keep(pos) {
				kept = append(kept, pos)
			}
		}
		t.end()
		c.passed += len(passed)
		c.kept += len(kept)

		t.begin(spanOnto, req)
		for _, pos := range kept {
			triples = onto.AppendPositionTriples(triples[:0], pos)
		}
		t.end()

		t.begin(spanStore, req)
		for _, pos := range kept {
			bw.AddPosition(pos)
		}
		bw.Flush()
		t.end()

		t.begin(spanCER, req)
		for _, pos := range passed {
			for _, ev := range p.Suite.Process(pos) {
				p.Store.AddEvent(ev)
			}
		}
		t.end()

		t.begin(spanForecast, req)
		for _, pos := range passed {
			p.ForecastHub.Observe(pos)
		}
		t.end()
		t.begin(spanSynopses, req)
		for _, pos := range passed {
			p.SynopsisHub.Observe(pos)
		}
		t.end()

		t.end() // request
	}
	c.total = time.Since(begin)
	c.walBytes = dirBytes(walDir)
	return c, nil
}

func dirBytes(dir string) int64 {
	var n int64
	_ = filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error { // a size for a report: unreadable entries count as 0
		if err == nil && !d.IsDir() {
			if info, err := d.Info(); err == nil {
				n += info.Size()
			}
		}
		return nil
	})
	return n
}

// replayQueries runs the read mix's store reads through parse, plan cache,
// execution and range scan, and returns how long the same queries take
// through Engine.Execute alone.
func replayQueries(t *tracer, p *core.Pipeline, w world, rounds int) (serial time.Duration, err error) {
	mix := newReadMix(w.lines, w.seed)
	req := 0
	for i := 0; i < rounds*len(roundShape); i++ {
		op := mix.op(i)
		var name string
		switch op.class {
		case classCount:
			name = spanRunCount
		case classGroup:
			name = spanRunGroup
		case classSel:
			name = spanRunSel
		case classRange:
			var box geo.BBox
			if _, err := fmt.Sscanf(op.path, "/range?minlon=%f&minlat=%f&maxlon=%f&maxlat=%f&limit=100",
				&box.MinLon, &box.MinLat, &box.MaxLon, &box.MaxLat); err != nil {
				return 0, err
			}
			t.begin(spanRange, req)
			p.Store.RangeQueryN(box, 0, 1<<62, 100)
			t.end()
			req++
			continue
		default:
			continue
		}
		t.begin(spanRequest, req)
		t.begin(spanParse, req)
		q, err := query.Parse(op.body)
		t.end()
		if err != nil {
			return 0, err
		}
		if _, _, err := p.Engine.ParseCached(op.body); err != nil { // fills the cache on the first round
			return 0, err
		}
		t.begin(spanPlanHit, req)
		_, _, err = p.Engine.ParseCached(op.body)
		t.end()
		if err != nil {
			return 0, err
		}
		t.begin(name, req)
		_, err = p.Engine.Run(q)
		t.end()
		t.end()
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		if _, err := p.Engine.Execute(op.body); err != nil {
			return 0, err
		}
		serial += time.Since(t0)
		req++
	}
	return serial, nil
}

// serialIngest is the single-threaded baseline: every line through
// Pipeline.IngestLine, ns per line.
func serialIngest(w world) float64 {
	p := newPipeline(w)
	t0 := time.Now()
	for _, tl := range w.lines {
		_, _ = p.IngestLine(tl) // malformed lines are counted by the pipeline, never returned, unless StrictWire
	}
	return float64(time.Since(t0)) / float64(len(w.lines))
}

// handlerCost posts w's lines to the daemon's HTTP handler in-process and
// returns ns per line spent inside the handler: body read, frame or text
// scan, routing and enqueue. The pipeline behind it has no areas and no
// hubs, and a queue deep enough to never refuse.
func handlerCost(w world, format string) (float64, error) {
	p := core.New(core.Config{Domain: model.Maritime})
	srv := server.New(server.Config{Pipeline: p, QueueLen: len(w.lines)})
	defer srv.Close()
	h := srv.Handler()
	f := newFeed(format, w.lines, w.kind.pacedBatch)
	var spent time.Duration
	for _, b := range f.batches {
		req := httptest.NewRequest(http.MethodPost, "/ingest", strings.NewReader(string(b.body)))
		req.Header.Set("Content-Type", contentType(format))
		rec := httptest.NewRecorder()
		t0 := time.Now()
		h.ServeHTTP(rec, req)
		spent += time.Since(t0)
		if rec.Code != http.StatusAccepted {
			return 0, fmt.Errorf("handler %s: status %d: %s", format, rec.Code, rec.Body)
		}
	}
	return float64(spent) / float64(len(w.lines)), nil
}

// durabilityCost ingests w serially through the WAL, snapshots three
// quarters in, logs the rest and recovers a fresh pipeline from the
// directory: snapshot time and size, recovery time.
func durabilityCost(w world, dir string) (snapMS, recoverMS, bytesPerLine float64, err error) {
	p := newPipeline(w)
	log, err := wal.Open(core.WALDir(dir), wal.Options{NoSync: true})
	if err != nil {
		return 0, 0, 0, err
	}
	cut := len(w.lines) * 3 / 4
	for i, tl := range w.lines {
		if i == cut {
			info, err := p.WriteSnapshot(dir, nil, log)
			if err != nil {
				log.Close()
				return 0, 0, 0, err
			}
			snapMS = float64(info.Took) / float64(time.Millisecond)
			bytesPerLine = float64(dirBytes(core.SnapshotsDir(dir))+dirBytes(core.SegmentsDir(dir))) / float64(cut)
		}
		if _, err := p.IngestLineLogged(log, tl); err != nil {
			log.Close()
			return 0, 0, 0, err
		}
	}
	if err := log.Commit(); err != nil {
		log.Close()
		return 0, 0, 0, err
	}
	if err := log.Close(); err != nil {
		return 0, 0, 0, err
	}
	rs, err := newPipeline(w).Recover(dir)
	if err != nil {
		return 0, 0, 0, err
	}
	if int(rs.Replayed) != len(w.lines)-cut {
		return 0, 0, 0, fmt.Errorf("recovery replayed %d lines, %d were logged after the snapshot", rs.Replayed, len(w.lines)-cut)
	}
	return snapMS, float64(rs.Took) / float64(time.Millisecond), bytesPerLine, nil
}
