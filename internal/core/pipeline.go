// Package core wires every component into the datAcron architecture of §2:
// wire-format ingestion (AIS/SBS decoding), in-situ processing (noise gate +
// online compression), transformation to RDF, interlinking, storage in the
// parallel spatiotemporal RDF store, complex event recognition, the density
// analytics, and online mobility forecasting (ForecastHub) — with per-stage
// latency accounting against the paper's millisecond operational
// requirement (§4). The durability protocol (WriteSnapshot/Recover/Replay,
// DESIGN.md §8) makes the whole pipeline — forecast state included —
// survive kill -9.
package core

import (
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

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
	"github.com/datacron-project/datacron/internal/stream"
	"github.com/datacron-project/datacron/internal/synth"
)

// Config parameterises a pipeline.
type Config struct {
	// Domain selects maritime or aviation ingestion.
	Domain model.Domain
	// Box is the world bounding box (defaults per domain).
	Box geo.BBox
	// Shards is the parallel store's shard count. Default 4.
	Shards int
	// Partitioner overrides the default (Hilbert over Box, order 7).
	Partitioner partition.Partitioner
	// Compression configures the in-situ threshold filter; zero value uses
	// insitu.DefaultThreshold. Set DisableCompression to bypass.
	Compression        insitu.ThresholdConfig
	DisableCompression bool
	// MaxSpeedMS configures the noise gate (default per domain).
	MaxSpeedMS float64
	// HotspotGrid is the density analytics resolution. Default 48x48.
	HotspotGridCols, HotspotGridRows int
	// StrictWire makes IngestLine return decode errors. By default the
	// pipeline behaves like a production receiver: malformed lines are
	// counted (Stats.BadLines) and skipped, because real feeds contain
	// truncated and corrupted sentences.
	StrictWire bool
	// Forecast configures the online forecasting subsystem; the zero value
	// leaves it off and Pipeline.ForecastHub nil.
	Forecast ForecastConfig
	// Synopses configures the online trajectory-synopses subsystem; the
	// zero value leaves it off and Pipeline.SynopsisHub nil. It is forced
	// on when Forecast.SynopsisHistory is set (the forecast hub then needs
	// the critical point stream to exist).
	Synopses SynopsesConfig
	// Trace configures sampled per-stage ingest tracing (Pipeline.Tracer);
	// the zero value leaves it off. Unsampled lines pay one atomic
	// increment.
	Trace obs.TraceConfig
}

func (c Config) withDefaults() Config {
	if c.Box.IsEmpty() || c.Box == (geo.BBox{}) {
		// Default to the synthetic world boxes so generator and pipeline
		// agree on the spatial frame without re-spelling coordinates.
		if c.Domain == model.Aviation {
			c.Box = synth.AviationBox()
		} else {
			c.Box = synth.MaritimeBox()
		}
	}
	if c.Shards <= 0 {
		c.Shards = 4
	}
	if c.Partitioner == nil {
		c.Partitioner = partition.NewHilbert(c.Box, 7, c.Shards)
	}
	if c.Compression == (insitu.ThresholdConfig{}) {
		c.Compression = insitu.DefaultThreshold()
	}
	if c.MaxSpeedMS == 0 {
		if c.Domain == model.Aviation {
			c.MaxSpeedMS = 350
		} else {
			c.MaxSpeedMS = 40
		}
	}
	if c.HotspotGridCols <= 0 {
		c.HotspotGridCols = 48
	}
	if c.HotspotGridRows <= 0 {
		c.HotspotGridRows = 48
	}
	if c.Forecast.SynopsisHistory {
		c.Synopses.Enabled = true
	}
	return c
}

// Pipeline is a running datAcron instance.
//
// Concurrency: the store and query engine are safe for concurrent use while
// ingest is in flight (per-shard read/write locking). IngestLine itself
// carries per-entity decoder and compressor state and must be called from a
// single goroutine; for parallel ingestion use NewIngestor, which routes
// wire lines to per-entity-keyed workers each owning its own front-end.
// InstallAreas and InstallEntities must happen before ingestion starts.
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
	// unless Config.Trace.Enabled); /debug/trace serves its ring.
	Tracer *obs.Tracer
	// Watermark tracks stream time (max observed event timestamp) across
	// every ingested line, so operators can see the daemon fall behind its
	// sources. Always on: a Note is two atomics.
	Watermark obs.Watermark

	// serial is the front-end used by the single-goroutine IngestLine path.
	serial front

	// entityMu guards the on-the-fly entity registry (AIS message 5 can be
	// decoded concurrently by ingest workers).
	entityMu sync.Mutex
	entities map[string]bool

	// appliedSeed carries per-entity applied WAL offsets across the
	// recovery boundary: set by Recover (and the serial logged ingest
	// path), consumed by NewIngestor and the snapshot writer.
	appliedSeed map[string]uint64

	// analyticsMu serialises the stateful analytics stage (CER suite and
	// density grid) over the gated stream. Decode, compression and store
	// writes run in parallel; recognisers keep cross-entity state (pairing)
	// and so form a single serialised stage, like a keyed window operator
	// with parallelism 1.
	analyticsMu sync.Mutex

	// Stats accumulates counters and per-stage latency. Counters are
	// updated atomically; read them with Snapshot when ingest may be in
	// flight.
	Stats Stats
}

// front bundles the per-goroutine ingest state: wire-format reassembly and
// the per-entity in-situ operators. Each ingest worker owns one, so a given
// entity's reports must always be routed to the same front (the Ingestor
// guarantees this by keying on the wire line's entity identity).
type front struct {
	gate    *insitu.NoiseGate
	filter  *insitu.ThresholdFilter
	asm     *ais.Assembler
	tracker *adsb.Tracker
	// bw, when non-nil, stages kept position reports per destination shard;
	// the ingest worker flushes it once per drained batch inside its
	// snapshot critical section. The serial front leaves it nil and writes
	// the store directly, so replay and single-goroutine ingestion keep
	// per-line store visibility.
	bw *store.BatchWriter
	// sbs is the per-front SBS parse scratch (adsb.ParseInto target).
	sbs adsb.Message
	// ids caches the zero-padded entity-ID string per MMSI, so the decode
	// hot path formats each entity's ID once instead of per report.
	ids map[uint32]string
	// tick drives the 1-in-latSampleEvery latency sampling of ingest;
	// per-front, so no atomics.
	tick uint32
}

func newFront(cfg Config) front {
	return front{
		gate:    insitu.NewNoiseGate(cfg.MaxSpeedMS),
		filter:  insitu.NewThresholdFilter(cfg.Compression),
		asm:     ais.NewAssembler(),
		tracker: adsb.NewTracker(),
		ids:     make(map[uint32]string),
	}
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

// Stats carries pipeline counters and latency histograms.
type Stats struct {
	Lines      int64
	BadLines   int64 // malformed wire lines (skipped unless StrictWire)
	Decoded    int64
	Gated      int64 // dropped by noise gate
	Kept       int64 // survived compression (stored)
	Suppressed int64 // dropped by compression
	Detections int64
	// Unstored counts kept reports the store refused because its term
	// dictionary is full (rdf.ErrDictionaryFull). Process-lifetime: it is
	// not part of StatsSnapshot, so snapshots do not carry it.
	Unstored int64

	// Latency is the wall-clock time from wire line to full processing of
	// one report (decode+gate+compress+transform+store+CER), sampled for
	// every report.
	Latency *stream.LatencyHist
	// StoreLatency and CERLatency break the budget down.
	StoreLatency *stream.LatencyHist
	CERLatency   *stream.LatencyHist
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

// New returns a pipeline with the given config.
func New(cfg Config) *Pipeline {
	cfg = cfg.withDefaults()
	p := &Pipeline{
		cfg:      cfg,
		Store:    store.NewSharded(cfg.Partitioner, cfg.Box),
		serial:   newFront(cfg),
		entities: make(map[string]bool),
		Density:  hotspot.NewDensityGrid(geo.NewGrid(cfg.Box, cfg.HotspotGridCols, cfg.HotspotGridRows)),
	}
	p.Engine = query.NewEngine(p.Store)
	if cfg.Forecast.Enabled {
		p.ForecastHub = NewForecastHub(cfg.Box, cfg.Forecast)
	}
	if cfg.Synopses.Enabled {
		p.SynopsisHub = NewSynopsisHub(cfg.Domain, cfg.Synopses)
	}
	if cfg.Trace.Enabled {
		p.Tracer = obs.NewTracer(cfg.Trace)
	}
	p.Stats.Latency = stream.NewLatencyHist()
	p.Stats.StoreLatency = stream.NewLatencyHist()
	p.Stats.CERLatency = stream.NewLatencyHist()
	return p
}

// WorldBox returns the configured world bounding box.
func (p *Pipeline) WorldBox() geo.BBox { return p.cfg.Box }

// Domain returns the configured domain.
func (p *Pipeline) Domain() model.Domain { return p.cfg.Domain }

// InstallAreas registers the world's areas of interest: they become RDF
// area resources and parameterise the CER suite.
func (p *Pipeline) InstallAreas(areas map[string]*geo.Polygon) {
	for name, poly := range areas {
		p.Store.AddGlobal(onto.AreaTriples(name, poly))
	}
	p.Suite = cer.NewMaritimeSuite(p.cfg.Box, areas)
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

// latSampleEvery is the per-front sampling period of the ingest latency
// histograms (total / store / CER). Counters stay exact; only the
// clock-read-heavy timing observations are sampled.
const latSampleEvery = 16

// IngestLine consumes one wire line with its receiver timestamp and runs
// the full architecture over it. It returns the complex events detected as
// a consequence of this line. IngestLine must not be called concurrently
// with itself (per-entity decoder state); use NewIngestor for that. It is
// safe to run queries, range scans and exports while IngestLine runs.
func (p *Pipeline) IngestLine(tl synth.TimedLine) ([]model.Event, error) {
	return p.ingest(&p.serial, tl)
}

// ingest runs the full architecture over one wire line using the given
// front-end. Multiple goroutines may call ingest concurrently as long as
// each uses its own front and any two reports of the same entity always use
// the same front.
func (p *Pipeline) ingest(f *front, tl synth.TimedLine) ([]model.Event, error) {
	// One clock read per line; the latency histograms sample 1 in
	// latSampleEvery lines (per front, so replay determinism of the
	// counters is untouched) — on single-core hosts the clock reads were a
	// measurable share of the per-line budget.
	f.tick++
	sampled := f.tick%latSampleEvery == 0
	t0 := time.Now()
	atomic.AddInt64(&p.Stats.Lines, 1)
	p.Watermark.NoteAt(tl.TS, t0.UnixMilli())
	// Sampled stage tracing: lt is nil for unsampled lines (the common
	// case) and every method is a nil-safe no-op then, so the hot path
	// pays one atomic increment. Outcome strings on always-taken branches
	// must be constants — anything computed belongs under `if lt != nil`.
	lt := p.Tracer.StartLine()
	var pos model.Position
	var ok bool
	var err error
	lt.Begin(obs.StageDecode)
	switch p.cfg.Domain {
	case model.Maritime:
		pos, ok, err = p.decodeAIS(f, tl)
	case model.Aviation:
		pos, ok, err = p.decodeSBS(f, tl)
	}
	if err != nil {
		lt.End("error")
		lt.Finish("bad-line")
		atomic.AddInt64(&p.Stats.BadLines, 1)
		if p.cfg.StrictWire {
			return nil, err
		}
		return nil, nil
	}
	if !ok {
		// Multi-sentence fragment, static message, or a track still fusing:
		// consumed, but no position report came out.
		lt.End("no-position")
		lt.Finish("no-position")
		return nil, nil
	}
	lt.End("")
	lt.SetEntity(pos.EntityID)
	atomic.AddInt64(&p.Stats.Decoded, 1)

	// In-situ processing: noise gate then threshold compression.
	lt.Begin(obs.StageGate)
	if !f.gate.Accept(pos) {
		lt.End("gated")
		lt.Finish("gated")
		atomic.AddInt64(&p.Stats.Gated, 1)
		return nil, nil
	}
	lt.End("")
	// Online synopses and forecasting tap the gated stream (post-tracker,
	// pre-compression: suppressed reports still carry kinematic evidence).
	// The hubs do their own locking; because this runs inside the worker's
	// per-line critical section, the snapshot barrier quiesces both. The
	// synopsis tap runs first so the forecast hub's synopsis-history mode
	// can consume only the reports that produced critical points — model
	// memory then scales with critical points, not raw points.
	critical := 0
	if p.SynopsisHub != nil {
		lt.Begin(obs.StageSynopsis)
		critical = p.SynopsisHub.Observe(pos)
		if critical > 0 {
			lt.End("critical-point")
		} else {
			lt.End("")
		}
	}
	if p.ForecastHub != nil {
		if !p.cfg.Forecast.SynopsisHistory || critical > 0 {
			lt.Begin(obs.StageForecast)
			p.ForecastHub.Observe(pos)
			lt.End("")
		}
	}
	lt.Begin(obs.StageCompress)
	stored := true
	if !p.cfg.DisableCompression && !f.filter.Keep(pos) {
		stored = false
		atomic.AddInt64(&p.Stats.Suppressed, 1)
		lt.End("suppressed")
	} else {
		lt.End("kept")
	}

	// Transformation + parallel RDF store (only kept reports are stored —
	// that is the point of in-situ compression). The sharded store does its
	// own per-shard locking, so fronts write in parallel.
	// Batched fronts stage the report in the per-worker batch writer (the
	// flush happens once per drained batch, so StoreLatency then measures
	// the staging append; OPERATIONS.md documents the shift). The serial
	// front writes through immediately.
	if stored {
		atomic.AddInt64(&p.Stats.Kept, 1)
		lt.Begin(obs.StageStore)
		if sampled {
			st0 := time.Now()
			p.storePosition(f, pos)
			p.Stats.StoreLatency.Observe(time.Since(st0))
		} else {
			p.storePosition(f, pos)
		}
		lt.End("")
	}

	// Analytics on the full gated stream: CER + density. The suite keeps
	// cross-entity state (proximity pairing), so this stage is serialised.
	lt.Begin(obs.StageCER)
	p.analyticsMu.Lock()
	p.Density.Add(pos.Pt)
	var events []model.Event
	if p.Suite != nil {
		if sampled {
			ct0 := time.Now()
			events = p.Suite.Process(pos)
			p.Stats.CERLatency.Observe(time.Since(ct0))
		} else {
			events = p.Suite.Process(pos)
		}
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
	if sampled {
		p.Stats.Latency.Observe(time.Since(t0))
	}
	return events, nil
}

// storePosition routes a kept report to the front's batch writer when it
// has one, else straight to the sharded store.
func (p *Pipeline) storePosition(f *front, pos model.Position) {
	if f.bw != nil {
		f.bw.AddPosition(pos)
		return
	}
	if p.Store.AddPositionRecord(pos) != nil {
		atomic.AddInt64(&p.Stats.Unstored, 1)
	}
}

// decodeAIS decodes one AIVDM line; multi-sentence messages return ok=false
// until complete; static messages update the entity registry and return
// ok=false (they carry no position).
func (p *Pipeline) decodeAIS(f *front, tl synth.TimedLine) (model.Position, bool, error) {
	r, err := f.asm.Push(tl.Line)
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
func (p *Pipeline) decodeSBS(f *front, tl synth.TimedLine) (model.Position, bool, error) {
	if err := adsb.ParseInto(tl.Line, &f.sbs); err != nil {
		return model.Position{}, false, fmt.Errorf("core: sbs decode: %w", err)
	}
	snap, ok := f.tracker.Push(f.sbs)
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

// RunScenario ingests a whole scenario's wire stream and returns the
// detected events.
func (p *Pipeline) RunScenario(sc *synth.Scenario) ([]model.Event, error) {
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	var detected []model.Event
	for _, tl := range sc.WireTimed {
		evs, err := p.IngestLine(tl)
		if err != nil {
			return detected, err
		}
		detected = append(detected, evs...)
	}
	return detected, nil
}

// Report renders the pipeline statistics for the CLI and experiments.
func (p *Pipeline) Report() string {
	s := &p.Stats
	snap := s.Snapshot()
	ratio := insitu.Ratio(int(snap.Decoded-snap.Gated), int(snap.Kept))
	return fmt.Sprintf(
		"lines=%d bad=%d decoded=%d gated=%d stored=%d suppressed=%d ratio=%.1f:1 detections=%d\n"+
			"latency: total %s | store %s | cer %s",
		snap.Lines, snap.BadLines, snap.Decoded, snap.Gated, snap.Kept, snap.Suppressed, ratio, snap.Detections,
		s.Latency.Summary(), s.StoreLatency.Summary(), s.CERLatency.Summary())
}
