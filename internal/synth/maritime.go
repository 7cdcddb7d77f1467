package synth

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"
	"time"

	"github.com/datacron-project/datacron/internal/ais"
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// TimedLine is one wire-format line with its receiver timestamp (Unix
// milliseconds). AIS payloads carry only the UTC second-of-minute, so real
// ingestion pipelines also rely on the receiver clock; we model the same.
type TimedLine struct {
	TS   int64
	Line string
}

// MaritimeConfig parameterises the maritime world generator. Zero values
// get sensible defaults (see withDefaults).
type MaritimeConfig struct {
	Seed        int64
	Start       time.Time     // default: 2017-03-21 06:00 UTC
	Duration    time.Duration // default: 2h
	ReportEvery time.Duration // AIS reporting interval; default 10s
	Vessels     int           // default 50 (includes scripted vessels)
	NoiseSigmaM float64       // GPS noise sigma; default 15m
	OutlierProb float64       // probability a report is a wild outlier; default 0.001
	GapProb     float64       // probability a vessel has one long AIS gap; default 0.1
	Rendezvous  int           // scripted rendezvous pairs; default 2
	Loiterers   int           // scripted loitering vessels; default 2
}

func (c MaritimeConfig) withDefaults() MaritimeConfig {
	if c.Start.IsZero() {
		c.Start = defaultStart
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Hour
	}
	if c.ReportEvery <= 0 {
		c.ReportEvery = 10 * time.Second
	}
	if c.Vessels <= 0 {
		c.Vessels = 50
	}
	if c.NoiseSigmaM == 0 {
		c.NoiseSigmaM = 15
	}
	if c.OutlierProb == 0 {
		c.OutlierProb = 0.001
	}
	if c.GapProb == 0 {
		c.GapProb = 0.1
	}
	if c.Rendezvous == 0 {
		c.Rendezvous = 2
	}
	if c.Loiterers == 0 {
		c.Loiterers = 2
	}
	min := 2*c.Rendezvous + c.Loiterers + 2
	if c.Vessels < min {
		c.Vessels = min
	}
	return c
}

// Port is a named harbour with an approach radius.
type Port struct {
	Name    string
	Pt      geo.Point
	RadiusM float64
}

// aegeanPorts is the fixed port registry of the maritime world.
var aegeanPorts = []Port{
	{"PIRAEUS", geo.Pt(23.60, 37.93), 4000},
	{"THESSALONIKI", geo.Pt(22.93, 40.60), 4000},
	{"HERAKLION", geo.Pt(25.14, 35.35), 3000},
	{"RHODES", geo.Pt(28.22, 36.45), 3000},
	{"IZMIR", geo.Pt(26.95, 38.43), 4000},
	{"SOUDA", geo.Pt(24.11, 35.52), 3000},
	{"MYTILENE", geo.Pt(26.55, 39.10), 2500},
	{"SYROS", geo.Pt(24.94, 37.44), 2000},
}

// aegeanBox is the maritime world bounding box.
var aegeanBox = geo.NewBBox(22.0, 34.5, 29.0, 41.2)

// MaritimeBox returns the maritime world bounding box.
func MaritimeBox() geo.BBox { return aegeanBox }

// MaritimePorts exposes the fixed port registry (used by link discovery and
// the examples).
func MaritimePorts() []Port {
	out := make([]Port, len(aegeanPorts))
	copy(out, aegeanPorts)
	return out
}

// phase is one behavioural segment of a vessel script.
type phase struct {
	kind      string // "transit", "loiter", "anchor", "fish", "moor"
	waypoints []geo.Point
	duration  time.Duration // for non-transit phases
	speedMS   float64
	status    model.NavStatus
}

// vesselScript is a vessel plus its behaviour plan.
type vesselScript struct {
	entity model.Entity
	mmsi   uint32
	start  geo.Point
	phases []phase
	gap    [2]int64 // observed-report suppression interval (0,0 = none)
}

// GenMaritime generates a maritime scenario. The result is deterministic in
// the config.
func GenMaritime(cfg MaritimeConfig) *Scenario {
	cfg = cfg.withDefaults()
	r := newRNG(cfg.Seed)
	sc, scripts := planMaritime(cfg, r)
	startMS := cfg.Start.UnixMilli()
	endMS := cfg.Start.Add(cfg.Duration).UnixMilli()

	// Simulate every vessel and assemble the global streams.
	for _, vs := range scripts {
		truth := simulateVessel(r, vs, startMS, endMS, cfg.ReportEvery)
		sc.Truth[vs.entity.ID] = truth
		sc.Events = append(sc.Events, areaEntryEvents(truth, sc.Areas, func(name string) bool {
			// Port approach entries are routine; only zone entries are events.
			return len(name) > 5 && name[:5] == "PORT-"
		})...)
	}

	emitMaritimeObservations(cfg, r, sc, scripts)
	return sc
}

// MaritimeWorld is GenMaritime(cfg) without its traffic: the areas, the
// entity registry and the scripted events, and no truth, positions, wire
// lines or area entries. It runs the generator's own plan, so the registry
// is the one the generated stream reports.
func MaritimeWorld(cfg MaritimeConfig) *Scenario {
	cfg = cfg.withDefaults()
	sc, _ := planMaritime(cfg, newRNG(cfg.Seed))
	return sc
}

// planMaritime is the first half of a maritime generator run: the areas of
// interest, then every vessel's script (buildMaritimeScripts), whose
// entities and scripted events it records. The simulation that follows
// draws from r where the plan left it.
func planMaritime(cfg MaritimeConfig, r rng) (*Scenario, []vesselScript) {
	sc := &Scenario{
		Domain: model.Maritime,
		Truth:  make(map[string]*model.Trajectory),
		Areas:  make(map[string]*geo.Polygon),
		Box:    aegeanBox,
	}
	// Areas of interest: port approaches, a fishing zone and a protected
	// area in the central Aegean.
	for _, p := range aegeanPorts {
		sc.Areas["PORT-"+p.Name] = geo.Circle(p.Pt, p.RadiusM, 24)
	}
	sc.Areas["FISHING-ZONE-1"] = geo.Rect(geo.NewBBox(24.3, 36.8, 25.3, 37.5))
	sc.Areas["PROTECTED-1"] = geo.Rect(geo.NewBBox(23.8, 36.2, 24.4, 36.7))

	scripts := buildMaritimeScripts(cfg, r, sc)
	for _, vs := range scripts {
		sc.Entities = append(sc.Entities, vs.entity)
	}
	return sc, scripts
}

// buildMaritimeScripts assigns behaviours: scripted rendezvous pairs and
// loiterers first, the rest split between port-to-port transit and fishing.
// Scripted ground-truth events are appended to sc.Events.
func buildMaritimeScripts(cfg MaritimeConfig, r rng, sc *Scenario) []vesselScript {
	startMS := cfg.Start.UnixMilli()
	durMS := cfg.Duration.Milliseconds()
	scripts := make([]vesselScript, 0, cfg.Vessels)
	idx := 0
	next := func(typeName string) *vesselScript {
		mmsi := mmsiFor(idx)
		id := mmsiString(mmsi)
		name := fmt.Sprintf("AEGEAN %s %d", typeName, idx+1)
		scripts = append(scripts, vesselScript{
			entity: model.Entity{
				ID: id, Domain: model.Maritime, Name: name,
				Callsign: fmt.Sprintf("SV%04d", idx+1),
				Type:     typeName, LengthM: 40 + r.between(0, 180),
			},
			mmsi: mmsi,
		})
		idx++
		return &scripts[len(scripts)-1]
	}

	cruise := func() float64 { return geo.Knots(r.between(10, 18)) }

	// Rendezvous pairs: both vessels converge on a meet point, drift
	// together, then separate.
	for k := 0; k < cfg.Rendezvous; k++ {
		meet := geo.Pt(r.between(24.0, 26.5), r.between(36.0, 38.5))
		meetStart := startMS + int64(float64(durMS)*r.between(0.30, 0.45))
		// Shorter than the 20-minute loitering threshold, so a rendezvous
		// does not double as scripted loitering ground truth.
		meetDur := time.Duration(r.between(12, 18)) * time.Minute
		var pairIDs [2]string
		for v := 0; v < 2; v++ {
			vs := next("CARGO")
			pairIDs[v] = vs.entity.ID
			sp := cruise()
			// Start far enough away that arriving at cruise speed takes
			// until meetStart.
			travel := float64(meetStart-startMS) / 1000 // seconds
			dist := sp * travel
			dir := r.between(0, 360)
			vs.start = geo.Destination(meet, dir, dist)
			away := geo.Destination(meet, r.between(0, 360), 300000)
			vs.phases = []phase{
				{kind: "transit", waypoints: []geo.Point{meet}, speedMS: sp, status: model.StatusUnderway},
				{kind: "loiter", duration: meetDur, speedMS: 0.3, status: model.StatusUnderway},
				{kind: "transit", waypoints: []geo.Point{away}, speedMS: sp, status: model.StatusUnderway},
			}
		}
		sc.Events = append(sc.Events, model.Event{
			Type: "rendezvous", Entity: pairIDs[0], Other: pairIDs[1],
			StartTS: meetStart, EndTS: meetStart + meetDur.Milliseconds(), Where: meet,
		})
	}

	// Loiterers: transit to an open-sea point, drift, move on.
	for k := 0; k < cfg.Loiterers; k++ {
		vs := next("TANKER")
		spot := geo.Pt(r.between(23.5, 27.0), r.between(35.8, 39.0))
		loiterStart := startMS + int64(float64(durMS)*r.between(0.25, 0.40))
		loiterDur := time.Duration(r.between(25, 45)) * time.Minute
		sp := cruise()
		travel := float64(loiterStart-startMS) / 1000
		vs.start = geo.Destination(spot, r.between(0, 360), sp*travel)
		away := geo.Destination(spot, r.between(0, 360), 200000)
		vs.phases = []phase{
			{kind: "transit", waypoints: []geo.Point{spot}, speedMS: sp, status: model.StatusUnderway},
			{kind: "loiter", duration: loiterDur, speedMS: 0.25, status: model.StatusUnderway},
			{kind: "transit", waypoints: []geo.Point{away}, speedMS: sp, status: model.StatusUnderway},
		}
		sc.Events = append(sc.Events, model.Event{
			Type: "loitering", Entity: vs.entity.ID,
			StartTS: loiterStart, EndTS: loiterStart + loiterDur.Milliseconds(), Where: spot,
		})
	}

	// Fishing vessels: out to the zone, fish slowly, head back.
	fishCenter := sc.Areas["FISHING-ZONE-1"].Centroid()
	nFishing := (cfg.Vessels - idx) / 4
	for k := 0; k < nFishing; k++ {
		vs := next("FISHING")
		home := pick(r, aegeanPorts)
		vs.start = r.jitterPoint(home.Pt, 1500)
		spot := r.jitterPoint(fishCenter, 20000)
		vs.phases = []phase{
			{kind: "transit", waypoints: []geo.Point{spot}, speedMS: geo.Knots(r.between(7, 10)), status: model.StatusUnderway},
			{kind: "fish", duration: time.Duration(r.between(60, 180)) * time.Minute, speedMS: geo.Knots(r.between(2, 4)), status: model.StatusFishing},
			{kind: "transit", waypoints: []geo.Point{home.Pt}, speedMS: geo.Knots(r.between(7, 10)), status: model.StatusUnderway},
			{kind: "moor", duration: 24 * time.Hour, speedMS: 0.02, status: model.StatusMoored},
		}
	}

	// Remaining vessels: port-to-port transits along the fixed lane graph.
	for idx < cfg.Vessels {
		typeName := "CARGO"
		if r.Float64() < 0.3 {
			typeName = "TANKER"
		}
		vs := next(typeName)
		from := aegeanPorts[lanePairs[r.Intn(len(lanePairs))][0]]
		vs.start = r.jitterPoint(from.Pt, 2000)
		sp := cruise()
		prev := from
		// A few consecutive voyages over the lane graph with short stops.
		for leg := 0; leg < 3; leg++ {
			to := nextLanePort(r, prev)
			// Traffic concentrates on a fixed lane graph (like real
			// traffic-separation schemes): every vessel on a directed port
			// pair follows the same S-curved corridor (as real lanes bend
			// around islands) with a small per-vessel jitter. This shared
			// structure is what the route-network forecaster learns from
			// archival data (experiment E6).
			wps := slices.Clone(laneTable()[[2]string{prev.Name, to.Name}])
			for i := range wps {
				wps[i] = r.jitterPoint(wps[i], 1200)
			}
			vs.phases = append(vs.phases,
				phase{kind: "transit", waypoints: wps, speedMS: sp, status: model.StatusUnderway},
				phase{kind: "moor", duration: time.Duration(r.between(10, 30)) * time.Minute, speedMS: 0.02, status: model.StatusMoored},
			)
			prev = to
		}
		vs.entity.Dest = prev.Name
	}

	// AIS gaps: some vessels go dark for a stretch.
	endMS := startMS + durMS
	for i := range scripts {
		if r.Float64() < cfg.GapProb {
			gapStart := startMS + int64(float64(durMS)*r.between(0.2, 0.7))
			gapLen := int64(r.between(10, 30)) * 60000
			gapEnd := gapStart + gapLen
			if gapEnd > endMS {
				gapEnd = endMS
			}
			scripts[i].gap = [2]int64{gapStart, gapEnd}
			sc.Events = append(sc.Events, model.Event{
				Type: "gap", Entity: scripts[i].entity.ID, StartTS: gapStart, EndTS: gapEnd,
			})
		}
	}
	return scripts
}

// simulateVessel advances a vessel through its phases, sampling the truth
// trajectory at the reporting interval.
func simulateVessel(r rng, vs vesselScript, startMS, endMS int64, report time.Duration) *model.Trajectory {
	tr := &model.Trajectory{EntityID: vs.entity.ID, Domain: model.Maritime}
	pos := vs.start
	course := r.between(0, 360)
	stepMS := report.Milliseconds()
	dt := float64(stepMS) / 1000

	phaseIdx := 0
	var phaseElapsed int64
	wpIdx := 0

	for ts := startMS; ts <= endMS; ts += stepMS {
		var speed float64
		status := model.StatusUnderway
		if phaseIdx < len(vs.phases) {
			ph := &vs.phases[phaseIdx]
			status = ph.status
			switch ph.kind {
			case "transit":
				if wpIdx >= len(ph.waypoints) {
					phaseIdx++
					wpIdx = 0
					phaseElapsed = 0
					// Hold position this tick; next tick runs the new phase.
					speed = 0
					break
				}
				target := ph.waypoints[wpIdx]
				remaining := geo.Haversine(pos, target)
				speed = math.Max(0.5, r.gauss(ph.speedMS, ph.speedMS*0.03))
				course = geo.Bearing(pos, target)
				stepDist := speed * dt
				if stepDist >= remaining {
					pos = target
					wpIdx++
				} else {
					pos = geo.Destination(pos, course, stepDist)
				}
			case "loiter", "anchor", "moor", "fish":
				speed = math.Abs(r.gauss(ph.speedMS, ph.speedMS*0.3))
				if ph.kind == "fish" {
					course += r.gauss(0, 25)
				} else {
					course += r.gauss(0, 60)
				}
				course = math.Mod(course+360, 360)
				pos = geo.Destination(pos, course, speed*dt)
				phaseElapsed += stepMS
				if phaseElapsed >= ph.duration.Milliseconds() {
					phaseIdx++
					wpIdx = 0
					phaseElapsed = 0
				}
			}
		} else {
			// Script exhausted: drift.
			speed = 0.05
		}
		tr.Points = append(tr.Points, model.Position{
			EntityID: vs.entity.ID, Domain: model.Maritime, TS: ts,
			Pt: pos, SpeedMS: speed, CourseDeg: course, Status: status,
		})
	}
	return tr
}

// emitMaritimeObservations derives the noisy observed stream and AIS wire
// lines from the truth trajectories.
func emitMaritimeObservations(cfg MaritimeConfig, r rng, sc *Scenario, scripts []vesselScript) {
	type timedPos struct {
		p    model.Position
		mmsi uint32
	}
	var all []timedPos
	staticEvery := (6 * time.Minute).Milliseconds()

	for _, vs := range scripts {
		truth := sc.Truth[vs.entity.ID]
		for _, tp := range truth.Points {
			if vs.gap != [2]int64{} && tp.TS >= vs.gap[0] && tp.TS < vs.gap[1] {
				continue // transmitter dark
			}
			obs := tp
			obs.Pt = r.jitterPoint(tp.Pt, cfg.NoiseSigmaM)
			if r.Float64() < cfg.OutlierProb {
				obs.Pt = r.jitterPoint(tp.Pt, 30000) // wild GPS outlier
			}
			obs.SpeedMS = math.Max(0, r.gauss(tp.SpeedMS, 0.1))
			all = append(all, timedPos{obs, vs.mmsi})
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].p.TS < all[j].p.TS })

	lastStatic := make(map[uint32]int64)
	for _, tp := range all {
		sc.Positions = append(sc.Positions, tp.p)
		sec := tp.p.Time().Second()
		msg := ais.PositionReport{
			MsgType: 1, MMSI: tp.mmsi, NavStatus: aisNavStatus(tp.p.Status),
			Lon: tp.p.Pt.Lon, Lat: tp.p.Pt.Lat,
			SOG: geo.ToKnots(tp.p.SpeedMS), COG: tp.p.CourseDeg,
			Heading: tp.p.CourseDeg, Second: sec,
		}
		payload, fill, err := msg.Encode()
		if err != nil {
			continue // out-of-world coordinates cannot occur by construction
		}
		for _, line := range ais.ToSentences(payload, fill, 0, "A") {
			sc.WireTimed = append(sc.WireTimed, TimedLine{TS: tp.p.TS, Line: line})
			sc.WireLines = append(sc.WireLines, line)
		}
		// Interleave periodic static/voyage messages.
		if tp.p.TS-lastStatic[tp.mmsi] >= staticEvery {
			lastStatic[tp.mmsi] = tp.p.TS
			ent := entityByID(sc.Entities, mmsiString(tp.mmsi))
			sv := ais.StaticVoyage{
				MMSI: tp.mmsi, IMO: 9000000 + tp.mmsi%1000000, Callsign: ent.Callsign,
				Name: ent.Name, ShipType: shipTypeCode(ent.Type), LengthM: int(ent.LengthM),
				Draught: 4 + float64(tp.mmsi%60)/10, Destination: ent.Dest,
			}
			pl, fb, err := sv.Encode()
			if err == nil {
				for _, line := range ais.ToSentences(pl, fb, int(tp.mmsi)%10, "B") {
					sc.WireTimed = append(sc.WireTimed, TimedLine{TS: tp.p.TS, Line: line})
					sc.WireLines = append(sc.WireLines, line)
				}
			}
		}
	}
}

// lanePairs is the fixed shipping-lane graph as index pairs into
// aegeanPorts; traffic runs both directions. Hub-and-spoke around Piraeus
// plus a few cross lanes, mirroring real Aegean corridors.
var lanePairs = [][2]int{
	{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 6}, {0, 7}, {1, 6}, {2, 5}, {3, 4}, {4, 7},
}

// nextLanePort picks a lane neighbour of the given port (any lane endpoint
// when the port is isolated).
func nextLanePort(r rng, from Port) Port {
	var nbrs []Port
	for _, lp := range lanePairs {
		a, b := aegeanPorts[lp[0]], aegeanPorts[lp[1]]
		if a.Name == from.Name {
			nbrs = append(nbrs, b)
		} else if b.Name == from.Name {
			nbrs = append(nbrs, a)
		}
	}
	if len(nbrs) == 0 {
		return aegeanPorts[lanePairs[r.Intn(len(lanePairs))][0]]
	}
	return pick(r, nbrs)
}

// laneOffsetM returns the fixed lateral lane offset for a directed port
// pair in metres, derived from a hash of the pair name so it is stable
// across runs. Magnitude 18–42 km: Aegean corridors bend substantially
// around islands, and the directed hash separates the two directions of a
// lane like a traffic-separation scheme.
func laneOffsetM(a, b string) float64 {
	var h uint32 = 2166136261
	for _, c := range []byte(a + ">" + b) {
		h ^= uint32(c)
		h *= 16777619
	}
	mag := 6000 + float64(h%8001) // amplitude 6–14 km
	if h&0x10000 != 0 {
		return -mag
	}
	return mag
}

// laneTable holds laneWaypoints for every directed port pair, keyed by the
// two names. It is computed once per process: the waypoints are a pure
// function of the pair, and recomputing them was most of a plan's CPU.
// Readers clone an entry before they jitter it.
var laneTable = sync.OnceValue(func() map[[2]string][]geo.Point {
	lanes := make(map[[2]string][]geo.Point, len(aegeanPorts)*len(aegeanPorts))
	for _, from := range aegeanPorts {
		for _, to := range aegeanPorts {
			lanes[[2]string{from.Name, to.Name}] = laneWaypoints(from, to)
		}
	}
	return lanes
})

// laneWaypoints returns the canonical corridor polyline for a directed port
// pair: waypoints every ~20 km along the rhumb line, laterally offset by a
// sinusoid whose amplitude and phase are fixed per directed pair. Aegean
// lanes weave around islands at exactly this scale, so a vessel turns every
// 15–25 minutes — structure that archival-data models can learn and pure
// extrapolation cannot anticipate.
func laneWaypoints(from, to Port) []geo.Point {
	amp := laneOffsetM(from.Name, to.Name)
	phase := math.Mod(math.Abs(amp), 3.1)
	total := geo.Haversine(from.Pt, to.Pt)
	const spacing = 20000.0
	n := int(total / spacing)
	brg := geo.Bearing(from.Pt, to.Pt)
	wps := make([]geo.Point, 0, n+1)
	for i := 1; i <= n; i++ {
		f := float64(i) / float64(n+1)
		off := amp * math.Sin(2*math.Pi*f*float64(n+1)/5+phase)
		wps = append(wps, geo.Destination(geo.Interpolate(from.Pt, to.Pt, f), brg+90, off))
	}
	return append(wps, to.Pt)
}

// aisNavStatus maps the model status to the AIS navigation status code.
func aisNavStatus(s model.NavStatus) uint8 {
	switch s {
	case model.StatusAnchored:
		return 1
	case model.StatusMoored:
		return 5
	case model.StatusFishing:
		return 7
	case model.StatusUnderway:
		return 0
	default:
		return 15
	}
}

// shipTypeCode maps a type name to the ITU ship type code.
func shipTypeCode(t string) uint8 {
	switch t {
	case "FISHING":
		return 30
	case "TANKER":
		return 80
	case "PASSENGER":
		return 60
	default:
		return 70
	}
}

func entityByID(ents []model.Entity, id string) model.Entity {
	for _, e := range ents {
		if e.ID == id {
			return e
		}
	}
	return model.Entity{ID: id}
}
