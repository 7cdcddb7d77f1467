package cer

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
)

// oraclePairEvent, oraclePairer and pairObs are a frozen copy of the pair
// stage as of PR 15: string-keyed maps, a map of maps for cell membership,
// every candidate sorted, every pair in range built, the never-read closing
// speed and its unbounded prev map included. The differential tests below
// pin the production stage to it, now that the dead output is deleted and
// through every later stage of its rebuild (ROADMAP item 3 (i)).
type oraclePairEvent struct {
	Key      string
	A, B     string
	TS       int64
	DistM    float64
	MaxSpeed float64
	Mid      geo.Point
	Closing  float64
}

type oraclePairer struct {
	MaxDistM  float64
	MaxDeltaT time.Duration

	grid    geo.Grid
	last    map[string]model.Position
	cellOf  map[string]int
	members map[int]map[string]struct{}
	prev    map[string]pairObs
}

type pairObs struct {
	distM float64
	ts    int64
}

func newOraclePairer(box geo.BBox, maxDistM float64) *oraclePairer {
	if maxDistM <= 0 {
		maxDistM = 500
	}
	cellDeg := 0.02
	if maxDistM > 2000 {
		cellDeg = maxDistM / 111_000 * 1.2
	}
	return &oraclePairer{
		MaxDistM:  maxDistM,
		MaxDeltaT: time.Minute,
		grid:      geo.NewGridCellSize(box, cellDeg),
		last:      make(map[string]model.Position),
		cellOf:    make(map[string]int),
		members:   make(map[int]map[string]struct{}),
		prev:      make(map[string]pairObs),
	}
}

func (pr *oraclePairer) Process(p model.Position) []oraclePairEvent {
	newCell := pr.grid.CellID(p.Pt)
	if oldCell, ok := pr.cellOf[p.EntityID]; ok {
		if oldCell != newCell {
			delete(pr.members[oldCell], p.EntityID)
		}
	}
	if pr.members[newCell] == nil {
		pr.members[newCell] = make(map[string]struct{})
	}
	pr.members[newCell][p.EntityID] = struct{}{}
	pr.cellOf[p.EntityID] = newCell
	pr.last[p.EntityID] = p

	var out []oraclePairEvent
	cells := append(pr.grid.Neighbors(newCell), newCell)
	var cands []string
	for _, c := range cells {
		for id := range pr.members[c] {
			if id != p.EntityID {
				cands = append(cands, id)
			}
		}
	}
	sort.Strings(cands)
	for _, id := range cands {
		q := pr.last[id]
		dt := p.TS - q.TS
		if dt < 0 {
			dt = -dt
		}
		if dt > pr.MaxDeltaT.Milliseconds() {
			continue
		}
		d := geo.Dist3D(p.Pt, q.Pt)
		if d > pr.MaxDistM {
			continue
		}
		key := PairKey(p.EntityID, id)
		closing := 0.0
		if prev, ok := pr.prev[key]; ok && p.TS > prev.ts {
			closing = (prev.distM - d) / (float64(p.TS-prev.ts) / 1000)
		}
		pr.prev[key] = pairObs{distM: d, ts: p.TS}
		a, b := p.EntityID, id
		if a > b {
			a, b = b, a
		}
		speed := p.SpeedMS
		if q.SpeedMS > speed {
			speed = q.SpeedMS
		}
		out = append(out, oraclePairEvent{
			Key: key, A: a, B: b, TS: p.TS, DistM: d,
			MaxSpeed: speed, Mid: geo.Midpoint(p.Pt, q.Pt), Closing: closing,
		})
	}
	return out
}

func (pe oraclePairEvent) AsPosition() model.Position {
	return model.Position{
		EntityID: pe.Key, TS: pe.TS, Pt: pe.Mid, SpeedMS: pe.MaxSpeed,
	}
}

// oraclePairStage is the frozen pairer feeding a recognizer, as both suites
// do. all holds the pair events of the latest report, built counts them.
type oraclePairStage struct {
	pairer *oraclePairer
	rec    *Recognizer
	all    []oraclePairEvent
	built  int
}

func (s *oraclePairStage) process(p model.Position) []model.Event {
	var out []model.Event
	s.all = s.pairer.Process(p)
	s.built += len(s.all)
	for _, pe := range s.all {
		for _, d := range s.rec.Process(pe.Key, pe.AsPosition()) {
			ev := d.Event
			ev.Entity, ev.Other = pe.A, pe.B
			out = append(out, ev)
		}
	}
	return out
}

// oracleMaritime is the maritime suite as it ran before: the per-entity
// recognizers of a real suite, then the frozen pair stage.
type oracleMaritime struct {
	per  *MaritimeSuite
	pair oraclePairStage
}

func newOracleMaritime(box geo.BBox, areas map[string]*geo.Polygon, cfg MaritimeSuiteConfig) *oracleMaritime {
	cfg = cfg.withDefaults()
	return &oracleMaritime{
		per: NewMaritimeSuiteConfig(box, areas, cfg),
		pair: oraclePairStage{
			pairer: newOraclePairer(box, cfg.PairDistM),
			rec:    NewRecognizer(RendezvousPattern(cfg.RendezvousMinDur)),
		},
	}
}

func (s *oracleMaritime) Process(p model.Position) []model.Event {
	var out []model.Event
	for _, d := range s.per.Loitering.Process(p.EntityID, p) {
		out = append(out, d.Event)
	}
	for _, rec := range s.per.Entries {
		for _, d := range rec.Process(p.EntityID, p) {
			ev := d.Event
			if i := strings.IndexByte(ev.Type, ':'); i > 0 {
				ev.Area = ev.Type[i+1:]
				ev.Type = ev.Type[:i]
			}
			out = append(out, ev)
		}
	}
	for _, d := range s.per.Gap.Process(p) {
		out = append(out, d.Event)
	}
	return append(out, s.pair.process(p)...)
}

// oracleAviation is the aviation suite as it ran before.
type oracleAviation struct {
	per  *AviationSuite
	pair oraclePairStage
}

func newOracleAviation(box geo.BBox, conflictDistM float64) *oracleAviation {
	return &oracleAviation{
		per: NewAviationSuite(box, conflictDistM),
		pair: oraclePairStage{
			pairer: newOraclePairer(box, conflictDistM),
			rec:    NewRecognizer(ProximityConflictPattern(30 * time.Second)),
		},
	}
}

func (s *oracleAviation) Process(p model.Position) []model.Event {
	var out []model.Event
	for _, rec := range []*Recognizer{s.per.Descent, s.per.Bust} {
		for _, d := range rec.Process(p.EntityID, p) {
			out = append(out, d.Event)
		}
	}
	if p.Pt.Alt < 5000 {
		for _, d := range s.per.Holding.Process(p.EntityID, p) {
			out = append(out, d.Event)
		}
	}
	s.pair.all = nil
	if p.Pt.Alt > 1000 {
		out = append(out, s.pair.process(p)...)
	}
	return out
}

// samePairs fails unless got is want event for event, floats compared by
// their bits.
func samePairs(t *testing.T, at string, want []oraclePairEvent, got []PairEvent) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d pair events, oracle %d", at, len(got), len(want))
	}
	bits := math.Float64bits
	for i, w := range want {
		g := got[i]
		if g.Key != w.Key || g.A != w.A || g.B != w.B || g.TS != w.TS ||
			bits(g.DistM) != bits(w.DistM) || bits(g.MaxSpeed) != bits(w.MaxSpeed) ||
			bits(g.Mid.Lon) != bits(w.Mid.Lon) || bits(g.Mid.Lat) != bits(w.Mid.Lat) || bits(g.Mid.Alt) != bits(w.Mid.Alt) {
			t.Fatalf("%s: pair event %d = %+v, oracle %+v", at, i, g, w)
		}
	}
}

func sameEvents(t *testing.T, at string, want, got []model.Event) {
	t.Helper()
	if len(want) == 0 && len(got) == 0 {
		return
	}
	if !reflect.DeepEqual(want, got) {
		t.Fatalf("%s: events %+v, oracle %+v", at, got, want)
	}
}

// stream is one named position stream with the suite thresholds to run it
// under.
type stream struct {
	name      string
	box       geo.BBox
	areas     map[string]*geo.Polygon
	cfg       MaritimeSuiteConfig
	positions []model.Position
}

// maritimeStreams are the streams the differential and state-cut tests
// cover: the benchmark's two fleets, the scripted world where rendezvous
// detections fire, and a randomised stream built to stress the pair stage.
func maritimeStreams() []stream {
	dense := denseWorld(6*time.Minute + 10*time.Second)
	sparse := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 2, Vessels: 50, Duration: 8 * time.Minute, ReportEvery: time.Second, NoiseSigmaM: 5,
	})
	box, areas, random := randomStream(7)
	return []stream{
		{name: "dense", box: dense.Box, areas: dense.Areas, positions: dense.Positions},
		{name: "sparse", box: sparse.Box, areas: sparse.Areas, positions: sparse.Positions},
		scriptedStream(),
		{name: "random", box: box, areas: areas, positions: random,
			cfg: MaritimeSuiteConfig{RendezvousMinDur: 90 * time.Second, LoiterMinDur: 4 * time.Minute}},
	}
}

// scriptedStream is the 2 h world of TestMaritimeSuiteOnSyntheticWorld.
func scriptedStream() stream {
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 17, Vessels: 16, Duration: 2 * time.Hour,
		Rendezvous: 2, Loiterers: 2, GapProb: 0.001, OutlierProb: 1e-9,
	})
	return stream{name: "scripted", box: sc.Box, areas: sc.Areas, positions: sc.Positions}
}

// randomStream is forty vessels in three tight clusters that share a few
// grid cells of a small box. Each vessel alternates slow and fast phases, so
// pairs slow down, speed up and slow down again; it drifts across cell
// borders and now and then jumps to another cluster or outside the box;
// its clock runs at a fixed skew against the others, some beyond MaxDeltaT,
// so reports arrive out of order across entities and many share a
// timestamp. Ids are decimal numbers of mixed length, so string order and
// the order of first sight disagree.
func randomStream(seed int64) (geo.BBox, map[string]*geo.Polygon, []model.Position) {
	rng := rand.New(rand.NewSource(seed))
	box := geo.NewBBox(24.00, 37.00, 24.10, 37.08)
	centres := []geo.Point{geo.Pt(24.0199, 37.0201), geo.Pt(24.0601, 37.0399), geo.Pt(24.0999, 37.0799)}
	areas := map[string]*geo.Polygon{
		"ZONE-A":  geo.Circle(centres[0], 900, 16),
		"ZONE-B":  geo.Circle(centres[0], 400, 16),
		"PORT-C":  geo.Circle(centres[1], 300, 16),
		"ZONE-BC": geo.Rect(geo.NewBBox(24.05, 37.03, 24.11, 37.09)),
	}
	type vessel struct {
		id        string
		pt        geo.Point
		skewMS    int64
		slow      bool
		phaseLeft int
	}
	vs := make([]*vessel, 40)
	for i := range vs {
		c := centres[i%len(centres)]
		vs[i] = &vessel{
			id:        fmt.Sprint(7 + i*i*13),
			pt:        geo.Destination(c, rng.Float64()*360, rng.Float64()*600),
			skewMS:    int64(rng.Intn(5)-2) * 25_000,
			slow:      rng.Intn(2) == 0,
			phaseLeft: 5 + rng.Intn(40),
		}
	}
	var out []model.Position
	for tick := int64(0); tick < 900; tick++ {
		for _, i := range rng.Perm(len(vs)) {
			v := vs[i]
			if rng.Intn(3) == 0 {
				continue // irregular cadence
			}
			if v.phaseLeft--; v.phaseLeft <= 0 {
				v.slow = !v.slow
				v.phaseLeft = 5 + rng.Intn(60)
			}
			speed := 3 + rng.Float64()*6
			if v.slow {
				speed = rng.Float64() * 1.4
			}
			switch r := rng.Intn(400); {
			case r == 0:
				v.pt = geo.Destination(centres[rng.Intn(len(centres))], rng.Float64()*360, rng.Float64()*600)
			case r == 1:
				v.pt = geo.Pt(24.2, 37.2) // outside the box: clamped to a border cell
			default:
				v.pt = geo.Destination(v.pt, rng.Float64()*360, speed*2)
			}
			out = append(out, model.Position{
				EntityID: v.id, Domain: model.Maritime, TS: 1_490_000_000_000 + tick*2000 + v.skewMS,
				Pt: v.pt, SpeedMS: speed, CourseDeg: rng.Float64() * 360,
			})
		}
	}
	return box, areas, out
}

// TestMaritimeSuiteMatchesOracle holds the pair stage to the frozen one:
// every pair event is delivered with identical bits in the same order, and
// the suite's whole detection stream is identical.
func TestMaritimeSuiteMatchesOracle(t *testing.T) {
	for _, s := range maritimeStreams() {
		t.Run(s.name, func(t *testing.T) {
			oracle := newOracleMaritime(s.box, s.areas, s.cfg)
			suite := NewMaritimeSuiteConfig(s.box, s.areas, s.cfg)
			// The suite keeps its pair events to itself; a second pairer,
			// fed the same reports, shows them.
			pairer := NewPairer(s.box, suite.Pairer.MaxDistM)
			detections := map[string]int{}
			for i, p := range s.positions {
				at := fmt.Sprintf("report %d (%s)", i, p.EntityID)
				want := oracle.Process(p)
				got := suite.Process(p)
				samePairs(t, at, oracle.pair.all, pairer.Process(p))
				sameEvents(t, at, want, got)
				for _, ev := range got {
					detections[ev.Type]++
				}
			}
			t.Logf("%d reports, %d pair events, detections %v", len(s.positions), oracle.pair.built, detections)
			if (s.name == "scripted" || s.name == "random") && detections["rendezvous"] == 0 {
				t.Errorf("no rendezvous fired in the %s world", s.name)
			}
		})
	}
}

func TestAviationSuiteMatchesOracle(t *testing.T) {
	sc := synth.GenAviation(synth.AviationConfig{Seed: 33, Flights: 60, Duration: 90 * time.Minute, HoldEpisodes: 1})
	dist := geo.NauticalMiles(5)
	oracle := newOracleAviation(sc.Box, dist)
	suite := NewAviationSuite(sc.Box, dist)
	pairer := NewPairer(sc.Box, dist)
	conflicts := 0
	for i, p := range sc.Positions {
		at := fmt.Sprintf("report %d (%s)", i, p.EntityID)
		want := oracle.Process(p)
		got := suite.Process(p)
		if p.Pt.Alt > 1000 {
			samePairs(t, at, oracle.pair.all, pairer.Process(p))
		}
		sameEvents(t, at, want, got)
		for _, ev := range got {
			if ev.Type == "proximityConflict" {
				conflicts++
			}
		}
	}
	if oracle.pair.built == 0 || conflicts == 0 {
		t.Errorf("aviation world exercised too little: %d pair events, %d conflicts", oracle.pair.built, conflicts)
	}
}
