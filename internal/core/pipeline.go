// Package core wires every component into the datAcron architecture of §2:
// wire-format ingestion (AIS/SBS decoding), in-situ processing (noise gate +
// online compression), transformation to RDF, interlinking, storage in the
// parallel spatiotemporal RDF store, complex event recognition, the density
// analytics, and online mobility forecasting (ForecastHub) — with sampled
// per-stage tracing (Pipeline.Tracer) against the paper's millisecond
// operational requirement (§4). The durability protocol
// (WriteSnapshot/Recover/Replay, DESIGN.md §8) makes the whole pipeline —
// forecast state included — survive kill -9.
package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"github.com/datacron-project/datacron/internal/adsb"
	"github.com/datacron-project/datacron/internal/ais"
	"github.com/datacron-project/datacron/internal/cer"
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/hotspot"
	"github.com/datacron-project/datacron/internal/insitu"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/partition"
	"github.com/datacron-project/datacron/internal/query"
	"github.com/datacron-project/datacron/internal/store"
	"github.com/datacron-project/datacron/internal/synopses"
	"github.com/datacron-project/datacron/internal/synth"
)

// Config parameterises a pipeline.
type Config struct {
	// Domain selects maritime or aviation ingestion, and with it the world
	// bounding box and the synopsis thresholds.
	Domain model.Domain
	// Shards is the parallel store's shard count. Default 4.
	Shards int
	// Forecast configures the online forecasting subsystem; the zero value
	// leaves it off and Pipeline.ForecastHub nil.
	Forecast ForecastConfig
	// Synopses configures the online trajectory-synopses subsystem; the
	// zero value leaves it off and Pipeline.SynopsisHub nil.
	Synopses SynopsesConfig
	// Trace configures sampled per-stage ingest tracing (Pipeline.Tracer),
	// the pipeline's one ingest clock; a zero SampleEvery leaves it off.
	// Unsampled lines pay one atomic increment and no clock read.
	Trace obs.TraceConfig
}

// Pipeline is a running datAcron instance.
//
// Concurrency: the store and query engine are safe for concurrent use while
// ingest is in flight (per-shard read/write locking). Lines enter through
// an Ingestor (NewIngestor), which routes each line by its entity's key to
// the worker owning that key's group; one Ingestor runs on a pipeline at a
// time. InstallAreas and InstallEntities must happen before ingestion
// starts.
type Pipeline struct {
	cfg     Config
	Store   *store.Sharded
	Engine  *query.Engine
	Suite   *cer.MaritimeSuite
	Density *hotspot.DensityGrid
	// ForecastHub is the online forecasting subsystem (nil unless
	// Config.Forecast.Enabled): warm per-entity history plus incrementally
	// trained shared models, fed from the gated report stream.
	ForecastHub *ForecastHub
	// SynopsisHub is the online trajectory-synopses subsystem (nil unless
	// Config.Synopses.Enabled): per-entity critical point detection over
	// the same gated report stream, with compression accounting.
	SynopsisHub *SynopsisHub
	// Tracer records sampled per-stage spans of the ingest pipeline (nil
	// unless Config.Trace.SampleEvery > 0); /debug/trace serves its ring.
	Tracer *obs.Tracer
	// Watermark tracks stream time (max observed event timestamp) across
	// every ingested line, so operators can see the daemon fall behind its
	// sources. Always on: a Note is two atomics.
	Watermark obs.Watermark

	// groups hold all per-entity operator state, split by routing key
	// (groupOf); see group.
	groups [numGroups]group
	// drv is the scratch of the synchronous drivers kept for the benchmark
	// (IngestLine, IngestLineLogged); nil until their first line.
	drv *front

	// entityMu guards the on-the-fly entity registry (AIS message 5 can be
	// decoded concurrently by ingest workers).
	entityMu sync.Mutex
	entities map[string]bool

	// analyticsMu serialises the stateful analytics stage (CER suite and
	// density grid) over the gated stream. Decode, compression and store
	// writes run in parallel; recognisers keep cross-entity state (pairing)
	// and so form a single serialised stage, like a keyed window operator
	// with parallelism 1.
	analyticsMu sync.Mutex

	// Stats accumulates the ingest counters. They are updated atomically;
	// read them with Snapshot when ingest may be in flight.
	Stats Stats
}

// front is one ingest worker's scratch: its store batch writer, decode
// buffers and the critical points of the batch in hand. It holds no
// operator state (that lives in the key groups), so a worker may own any
// set of groups.
type front struct {
	// bw stages kept position reports per destination shard; the worker
	// flushes it once per drained batch inside its snapshot critical
	// section.
	bw *store.BatchWriter
	// sbs is the per-front SBS parse scratch (adsb.ParseInto target).
	sbs adsb.Message
	// ids caches the zero-padded entity-ID string per MMSI, so the decode
	// hot path formats each entity's ID once instead of per report.
	ids map[uint32]string
	// points collects the critical points the batch's lines emit; they
	// leave with the batch's events (processBatch) and the slice is reused.
	points []synopses.CriticalPoint
}

func (p *Pipeline) newFront() *front {
	return &front{bw: p.Store.NewBatchWriter(), ids: make(map[uint32]string)}
}

// entityID returns the canonical nine-digit entity ID for an MMSI, cached
// per front (each front is single-goroutine).
func (f *front) entityID(mmsi uint32) string {
	if id, ok := f.ids[mmsi]; ok {
		return id
	}
	id := fmt.Sprintf("%09d", mmsi)
	f.ids[mmsi] = id
	return id
}

// Stats carries the pipeline counters; per-stage latency is the tracer's.
type Stats struct {
	Lines      int64
	BadLines   int64 // malformed wire lines (counted and skipped)
	Decoded    int64
	Gated      int64 // dropped by noise gate
	Kept       int64 // survived compression (stored)
	Suppressed int64 // dropped by compression
	Detections int64
	// Unstored counts kept reports the store refused because its term
	// dictionary is full (rdf.ErrDictionaryFull). Process-lifetime: it is
	// not part of StatsSnapshot, so snapshots do not carry it.
	Unstored int64
}

// CompressionRatio returns decoded/kept.
func (s *Stats) CompressionRatio() float64 {
	snap := s.Snapshot()
	return insitu.Ratio(int(snap.Decoded-snap.Gated), int(snap.Kept))
}

// StatsSnapshot is a consistent-enough copy of the pipeline counters, read
// atomically so it is safe to take while ingest workers are running.
type StatsSnapshot struct {
	Lines, BadLines, Decoded, Gated, Kept, Suppressed, Detections int64
}

// Snapshot atomically reads the counters.
func (s *Stats) Snapshot() StatsSnapshot {
	return StatsSnapshot{
		Lines:      atomic.LoadInt64(&s.Lines),
		BadLines:   atomic.LoadInt64(&s.BadLines),
		Decoded:    atomic.LoadInt64(&s.Decoded),
		Gated:      atomic.LoadInt64(&s.Gated),
		Kept:       atomic.LoadInt64(&s.Kept),
		Suppressed: atomic.LoadInt64(&s.Suppressed),
		Detections: atomic.LoadInt64(&s.Detections),
	}
}

// The store partitions by a Hilbert curve of hilbertOrder over the world
// box, and the density analytics count on a hotspotGrid × hotspotGrid grid.
const (
	hilbertOrder = 7
	hotspotGrid  = 48
)

// maxSpeedMS is the noise gate's limit for a domain: a report implying a
// faster move from the entity's last one is noise.
func maxSpeedMS(d model.Domain) float64 {
	if d == model.Aviation {
		return 350
	}
	return 40
}

// New returns a pipeline with the given config.
func New(cfg Config) *Pipeline {
	if cfg.Shards <= 0 {
		cfg.Shards = 4
	}
	p := &Pipeline{cfg: cfg, entities: make(map[string]bool)}
	box := p.WorldBox()
	p.Store = store.NewSharded(partition.NewHilbert(box, hilbertOrder, cfg.Shards), box)
	p.Density = hotspot.NewDensityGrid(geo.NewGrid(box, hotspotGrid, hotspotGrid))
	p.Engine = query.NewEngine(p.Store)
	for i := range p.groups {
		p.groups[i] = group{
			gate:    insitu.NewNoiseGate(maxSpeedMS(cfg.Domain)),
			filter:  insitu.NewThresholdFilter(insitu.DefaultThreshold()),
			asm:     ais.NewAssembler(),
			tracker: adsb.NewTracker(),
			applied: make(map[string]uint64),
		}
	}
	if cfg.Forecast.Enabled {
		p.ForecastHub = NewForecastHub(box, cfg.Forecast)
	}
	if cfg.Synopses.Enabled {
		p.SynopsisHub = NewSynopsisHub(cfg.Domain, cfg.Synopses)
	}
	if cfg.Trace.SampleEvery > 0 {
		p.Tracer = obs.NewTracer(cfg.Trace)
	}
	return p
}

// WorldBox returns the domain's world bounding box: the synthetic world's,
// so generator and pipeline agree on the spatial frame without re-spelling
// coordinates.
func (p *Pipeline) WorldBox() geo.BBox {
	if p.cfg.Domain == model.Aviation {
		return synth.AviationBox()
	}
	return synth.MaritimeBox()
}

// Domain returns the configured domain.
func (p *Pipeline) Domain() model.Domain { return p.cfg.Domain }

// InstallAreas registers the world's areas of interest: they become RDF
// area resources and parameterise the CER suite.
func (p *Pipeline) InstallAreas(areas map[string]*geo.Polygon) {
	for name, poly := range areas {
		p.Store.AddGlobal(onto.AreaTriples(name, poly))
	}
	p.Suite = cer.NewMaritimeSuite(p.WorldBox(), areas)
}

// InstallEntities registers static entity data (from AIS message 5 the
// pipeline also learns them on the fly; this primes the registry). The
// whole registry is one global insert.
func (p *Pipeline) InstallEntities(entities []model.Entity) {
	var triples []onto.TripleT
	for _, e := range entities {
		triples = append(triples, onto.EntityTriples(e)...)
	}
	p.Store.AddGlobal(triples)
	p.entityMu.Lock()
	for _, e := range entities {
		p.entities[e.ID] = true
	}
	p.entityMu.Unlock()
}

// IngestLine runs one line synchronously through its key group, flushing
// its store writes, and returns the complex events it caused; a malformed
// line is counted (Stats.BadLines) and skipped, so the error is always nil.
// It is kept only for bench/trace.go's in-process layer replay (ROADMAP
// item 8 deletes it; the internal/server goldens also take their reference
// run from it): programs and tests ingest through NewIngestor. It must not
// run concurrently with itself or an Ingestor.
func (p *Pipeline) IngestLine(tl synth.TimedLine) ([]model.Event, error) {
	if p.drv == nil {
		p.drv = p.newFront()
	}
	p.Watermark.Note(tl.TS)
	evs := p.ingest(p.drv, &p.groups[groupOf(p.AppendRoutingKey(nil, tl.Line))], tl)
	p.drv.points = p.drv.points[:0]
	if unstored, _ := p.drv.bw.Flush(); unstored > 0 {
		atomic.AddInt64(&p.Stats.Unstored, int64(unstored))
	}
	return evs, nil
}

// ingest runs the full architecture over one wire line with the given
// worker scratch and the key group of the line's routing key; the critical
// points it emits are appended to f.points. Goroutines may call ingest
// concurrently as long as each uses its own front and no two use one
// group. A malformed line is counted (Stats.BadLines) and skipped, like a
// production receiver: real feeds contain truncated and corrupted
// sentences. The caller notes the line's timestamp on the watermark.
func (p *Pipeline) ingest(f *front, g *group, tl synth.TimedLine) []model.Event {
	atomic.AddInt64(&p.Stats.Lines, 1)
	// Sampled stage tracing, the one clock of the ingest path: lt is nil
	// for unsampled lines (the common case) and every method is a nil-safe
	// no-op then, so the hot path pays one atomic increment and reads no
	// clock. Outcome strings on always-taken branches must be constants —
	// anything computed belongs under `if lt != nil`.
	lt := p.Tracer.StartLine()
	var pos model.Position
	var ok bool
	var err error
	lt.Begin(obs.StageDecode)
	switch p.cfg.Domain {
	case model.Maritime:
		pos, ok, err = p.decodeAIS(f, g, tl)
	case model.Aviation:
		pos, ok, err = p.decodeSBS(f, g, tl)
	}
	if err != nil {
		lt.End("error")
		lt.Finish("bad-line")
		atomic.AddInt64(&p.Stats.BadLines, 1)
		return nil
	}
	if !ok {
		// Multi-sentence fragment, static message, or a track still fusing:
		// consumed, but no position report came out.
		lt.End("no-position")
		lt.Finish("no-position")
		return nil
	}
	lt.End("")
	lt.SetEntity(pos.EntityID)
	atomic.AddInt64(&p.Stats.Decoded, 1)

	// In-situ processing: noise gate then threshold compression.
	lt.Begin(obs.StageGate)
	if !g.gate.Accept(pos) {
		lt.End("gated")
		lt.Finish("gated")
		atomic.AddInt64(&p.Stats.Gated, 1)
		return nil
	}
	lt.End("")
	// Online synopses and forecasting tap the gated stream (post-tracker,
	// pre-compression: suppressed reports still carry kinematic evidence).
	// The hubs do their own locking; because this runs inside the worker's
	// per-line critical section, the snapshot barrier quiesces both.
	if p.SynopsisHub != nil {
		lt.Begin(obs.StageSynopsis)
		n := len(f.points)
		if f.points = p.SynopsisHub.observe(pos, f.points); len(f.points) > n {
			lt.End("critical-point")
		} else {
			lt.End("")
		}
	}
	if p.ForecastHub != nil {
		lt.Begin(obs.StageForecast)
		p.ForecastHub.Observe(pos)
		lt.End("")
	}
	lt.Begin(obs.StageCompress)
	stored := g.filter.Keep(pos)
	if !stored {
		atomic.AddInt64(&p.Stats.Suppressed, 1)
		lt.End("suppressed")
	} else {
		lt.End("kept")
	}

	// Transformation + parallel RDF store (only kept reports are stored —
	// that is the point of in-situ compression). The sharded store does its
	// own per-shard locking, so fronts write in parallel.
	// The report is staged in the front's batch writer (the flush happens
	// once per drained batch, so the store stage measures the staging
	// append; OPERATIONS.md documents the shift).
	if stored {
		atomic.AddInt64(&p.Stats.Kept, 1)
		lt.Begin(obs.StageStore)
		f.bw.AddPosition(pos)
		lt.End("")
	}

	// Analytics on the full gated stream: CER + density. The suite keeps
	// cross-entity state (proximity pairing), so this stage is serialised.
	lt.Begin(obs.StageCER)
	p.analyticsMu.Lock()
	p.Density.Add(pos.Pt)
	var events []model.Event
	if p.Suite != nil {
		events = p.Suite.Process(pos)
	}
	p.analyticsMu.Unlock()
	if len(events) > 0 {
		for _, ev := range events {
			// An event the full dictionary refuses is still delivered; only
			// its stored copy is missing, and /readyz already says why.
			_ = p.Store.AddEvent(ev)
		}
		atomic.AddInt64(&p.Stats.Detections, int64(len(events)))
	}
	if lt != nil {
		// Dynamic outcomes are built only for sampled lines.
		cerOut := ""
		if n := len(events); n > 0 {
			cerOut = "events=" + strconv.Itoa(n)
		}
		lt.End(cerOut)
		overall := "suppressed"
		if stored {
			overall = "stored"
		}
		lt.Finish(overall)
	}
	return events
}

// decodeAIS decodes one AIVDM line; multi-sentence messages return ok=false
// until complete; static messages update the entity registry and return
// ok=false (they carry no position).
func (p *Pipeline) decodeAIS(f *front, g *group, tl synth.TimedLine) (model.Position, bool, error) {
	r, err := g.asm.Push(tl.Line)
	if err != nil {
		return model.Position{}, false, fmt.Errorf("core: ais decode: %w", err)
	}
	if r == nil {
		return model.Position{}, false, nil
	}
	// Dispatch on the peeked message type instead of ais.Decode so the
	// dominant case — position reports — skips the interface boxing of the
	// Decoded return value.
	switch ais.PeekType(r) {
	case 1, 2, 3, ais.TypePositionB:
		m, err := ais.DecodePositionReport(r)
		if err != nil {
			return model.Position{}, false, fmt.Errorf("core: ais decode: %w", err)
		}
		pos := model.Position{
			EntityID:  f.entityID(m.MMSI),
			Domain:    model.Maritime,
			TS:        tl.TS,
			Pt:        geo.Pt(m.Lon, m.Lat),
			SpeedMS:   geo.Knots(orZero(m.SOG)),
			CourseDeg: orZero(m.COG),
			Status:    navStatusFromAIS(m.NavStatus),
		}
		return pos, true, nil
	case ais.TypeStaticVoyage:
		m, err := ais.DecodeStaticVoyage(r)
		if err != nil {
			return model.Position{}, false, fmt.Errorf("core: ais decode: %w", err)
		}
		id := f.entityID(m.MMSI)
		p.entityMu.Lock()
		known := p.entities[id]
		if !known {
			p.entities[id] = true
		}
		p.entityMu.Unlock()
		if !known {
			// Refused only by a full dictionary, which /readyz reports.
			_ = p.Store.AddEntity(model.Entity{
				ID: id, Domain: model.Maritime, Name: m.Name, Callsign: m.Callsign,
				Type: shipTypeName(m.ShipType), LengthM: float64(m.LengthM), Dest: m.Destination,
			})
		}
		return model.Position{}, false, nil
	default:
		// Other types (Class B static, unsupported, too-short payloads) go
		// through the generic decoder for its exact error surface.
		if _, err := ais.Decode(r); err != nil {
			return model.Position{}, false, fmt.Errorf("core: ais decode: %w", err)
		}
		return model.Position{}, false, nil
	}
}

// decodeSBS decodes one SBS line through the fusing tracker, parsing into
// the front's scratch message so the hot path allocates nothing per line.
func (p *Pipeline) decodeSBS(f *front, g *group, tl synth.TimedLine) (model.Position, bool, error) {
	if err := adsb.ParseInto(tl.Line, &f.sbs); err != nil {
		return model.Position{}, false, fmt.Errorf("core: sbs decode: %w", err)
	}
	snap, ok := g.tracker.Push(f.sbs)
	if !ok {
		return model.Position{}, false, nil
	}
	pos := model.Position{
		EntityID:   snap.HexIdent,
		Domain:     model.Aviation,
		TS:         tl.TS,
		Pt:         geo.Pt3(snap.Lon, snap.Lat, geo.Feet(orZero(snap.AltitudeFt))),
		SpeedMS:    geo.Knots(orZero(snap.SpeedKn)),
		CourseDeg:  orZero(snap.TrackDeg),
		VertRateMS: orZero(snap.VertRateFpm) * 0.00508, // ft/min → m/s
	}
	return pos, true, nil
}

// orZero maps NaN to 0.
func orZero(v float64) float64 {
	if v != v {
		return 0
	}
	return v
}

func navStatusFromAIS(code uint8) model.NavStatus {
	switch code {
	case 0:
		return model.StatusUnderway
	case 1:
		return model.StatusAnchored
	case 5:
		return model.StatusMoored
	case 7:
		return model.StatusFishing
	default:
		return model.StatusUnknown
	}
}

func shipTypeName(code uint8) string {
	switch {
	case code == 30:
		return "FISHING"
	case code >= 60 && code < 70:
		return "PASSENGER"
	case code >= 70 && code < 80:
		return "CARGO"
	case code >= 80 && code < 90:
		return "TANKER"
	default:
		return "OTHER"
	}
}

// Report renders the pipeline statistics for the CLIs and examples: the
// counters and, with tracing on, the sampled line, store and cer latency.
func (p *Pipeline) Report() string {
	snap := p.Stats.Snapshot()
	ratio := insitu.Ratio(int(snap.Decoded-snap.Gated), int(snap.Kept))
	out := fmt.Sprintf(
		"lines=%d bad=%d decoded=%d gated=%d stored=%d suppressed=%d ratio=%.1f:1 detections=%d",
		snap.Lines, snap.BadLines, snap.Decoded, snap.Gated, snap.Kept, snap.Suppressed, ratio, snap.Detections)
	if t := p.Tracer; t != nil {
		out += fmt.Sprintf("\nlatency: line %s | store %s | cer %s",
			t.StageHist(obs.StageLine).Summary(), t.StageHist(obs.StageStore).Summary(), t.StageHist(obs.StageCER).Summary())
	}
	return out
}
