package synth

import (
	"fmt"
	"math"
	"sort"
	"time"

	"github.com/datacron-project/datacron/internal/adsb"
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// Airport is a named aerodrome.
type Airport struct {
	Code string
	Pt   geo.Point
}

// airports is the fixed aerodrome registry of the aviation world.
var airports = []Airport{
	{"ATH", geo.Pt(23.94, 37.94)},
	{"SKG", geo.Pt(22.97, 40.52)},
	{"HER", geo.Pt(25.18, 35.34)},
	{"RHO", geo.Pt(28.09, 36.41)},
	{"IST", geo.Pt(28.75, 41.26)},
	{"LCA", geo.Pt(33.62, 34.88)},
}

// aviationBox is the aviation world bounding box.
var aviationBox = geo.NewBBox(22.0, 33.5, 34.5, 42.0)

// AviationBox returns the aviation world bounding box.
func AviationBox() geo.BBox { return aviationBox }

// AviationConfig parameterises the aviation world generator.
type AviationConfig struct {
	Seed         int64
	Start        time.Time     // default 2017-03-21 06:00 UTC
	Duration     time.Duration // default 2h
	ReportEvery  time.Duration // ADS-B reporting interval; default 5s
	Flights      int           // default 40
	NoiseSigmaM  float64       // default 25m horizontal
	HoldEpisodes int           // scripted congestion episodes; default 1
}

func (c AviationConfig) withDefaults() AviationConfig {
	if c.Start.IsZero() {
		c.Start = defaultStart
	}
	if c.Duration <= 0 {
		c.Duration = 2 * time.Hour
	}
	if c.ReportEvery <= 0 {
		c.ReportEvery = 5 * time.Second
	}
	if c.Flights <= 0 {
		c.Flights = 40
	}
	if c.NoiseSigmaM == 0 {
		c.NoiseSigmaM = 25
	}
	if c.HoldEpisodes == 0 {
		c.HoldEpisodes = 1
	}
	return c
}

// SectorGrid returns the ATC sector grid used by the aviation world: a 4x3
// grid over the world box, each cell being one named sector
// ("SECTOR-<id>").
func SectorGrid() geo.Grid { return geo.NewGrid(aviationBox, 4, 3) }

// SectorName returns the sector name for a grid cell id.
func SectorName(cell int) string { return fmt.Sprintf("SECTOR-%d", cell) }

// flightScript is one generated flight.
type flightScript struct {
	entity    model.Entity
	from      Airport
	to        Airport
	depMS     int64
	cruiseAlt float64 // metres
	cruiseSpd float64 // m/s
	holdAt    int64   // if >0, hold near destination from this time...
	holdUntil int64   // ...until this time
}

// GenAviation generates an aviation scenario with 3D trajectories.
func GenAviation(cfg AviationConfig) *Scenario {
	cfg = cfg.withDefaults()
	r := newRNG(cfg.Seed)
	sc, scripts := planAviation(cfg, r)
	endMS := cfg.Start.Add(cfg.Duration).UnixMilli()

	// Simulate and emit.
	var all []model.Position
	for _, fs := range scripts {
		truth := simulateFlight(r, fs, endMS, cfg.ReportEvery)
		if truth.Len() == 0 {
			continue
		}
		sc.Truth[fs.entity.ID] = truth
		for _, tp := range truth.Points {
			obs := tp
			obs.Pt = r.jitterPoint(tp.Pt, cfg.NoiseSigmaM)
			obs.Pt.Alt = tp.Pt.Alt + r.gauss(0, 8)
			all = append(all, obs)
		}
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].TS < all[j].TS })

	identEvery := (5 * time.Minute).Milliseconds()
	lastIdent := make(map[string]int64)
	for _, p := range all {
		sc.Positions = append(sc.Positions, p)
		ent := entityByID(sc.Entities, p.EntityID)
		t := p.Time()
		if p.TS-lastIdent[p.EntityID] >= identEvery {
			lastIdent[p.EntityID] = p.TS
			line := adsb.Format(adsb.Message{
				Type: adsb.MsgIdent, HexIdent: p.EntityID, Generated: t, Callsign: ent.Callsign,
				AltitudeFt: math.NaN(), Lat: math.NaN(), Lon: math.NaN(),
				SpeedKn: math.NaN(), TrackDeg: math.NaN(), VertRateFpm: math.NaN(),
			})
			sc.WireTimed = append(sc.WireTimed, TimedLine{TS: p.TS, Line: line})
			sc.WireLines = append(sc.WireLines, line)
		}
		vel := adsb.Format(adsb.Message{
			Type: adsb.MsgVelocity, HexIdent: p.EntityID, Generated: t,
			SpeedKn: geo.ToKnots(p.SpeedMS), TrackDeg: p.CourseDeg,
			VertRateFpm: p.VertRateMS * 196.85, // m/s → ft/min
			AltitudeFt:  math.NaN(), Lat: math.NaN(), Lon: math.NaN(),
		})
		pos := adsb.Format(adsb.Message{
			Type: adsb.MsgPosition, HexIdent: p.EntityID, Generated: t,
			AltitudeFt: geo.ToFeet(p.Pt.Alt), Lat: p.Pt.Lat, Lon: p.Pt.Lon,
			SpeedKn: math.NaN(), TrackDeg: math.NaN(), VertRateFpm: math.NaN(),
		})
		sc.WireTimed = append(sc.WireTimed, TimedLine{TS: p.TS, Line: vel}, TimedLine{TS: p.TS, Line: pos})
		sc.WireLines = append(sc.WireLines, vel, pos)
	}
	return sc
}

// AviationWorld is GenAviation(cfg) without its traffic: the sectors, the
// flight registry and the scripted hotspots, and no truth, positions or
// wire lines. It runs the generator's own plan, so the registry is the one
// the generated stream reports.
func AviationWorld(cfg AviationConfig) *Scenario {
	cfg = cfg.withDefaults()
	sc, _ := planAviation(cfg, newRNG(cfg.Seed))
	return sc
}

// planAviation is the first half of an aviation generator run: the sector
// areas, the scripted congestion episodes and every flight's script, whose
// entities and events it records. The simulation that follows draws from r
// where the plan left it.
func planAviation(cfg AviationConfig, r rng) (*Scenario, []flightScript) {
	startMS := cfg.Start.UnixMilli()
	endMS := cfg.Start.Add(cfg.Duration).UnixMilli()
	durMS := cfg.Duration.Milliseconds()

	sc := &Scenario{
		Domain: model.Aviation,
		Truth:  make(map[string]*model.Trajectory),
		Areas:  make(map[string]*geo.Polygon),
		Box:    aviationBox,
	}
	grid := SectorGrid()
	for cell := 0; cell < grid.NumCells(); cell++ {
		sc.Areas[SectorName(cell)] = geo.Rect(grid.CellBounds(cell))
	}

	// Scripted congestion episodes: a window during which arrivals at one
	// airport are held near it, congesting the sector.
	type holdEpisode struct {
		ap       Airport
		from, to int64
	}
	var holds []holdEpisode
	for k := 0; k < cfg.HoldEpisodes; k++ {
		ap := airports[k%len(airports)]
		from := startMS + int64(float64(durMS)*r.between(0.35, 0.5))
		to := from + int64(r.between(20, 35))*60000
		if to > endMS {
			to = endMS
		}
		holds = append(holds, holdEpisode{ap, from, to})
		sc.Events = append(sc.Events, model.Event{
			Type: "hotspot", Entity: ap.Code, Area: SectorName(grid.CellID(ap.Pt)),
			StartTS: from, EndTS: to, Where: ap.Pt,
		})
	}

	// Build flights.
	var scripts []flightScript
	for i := 0; i < cfg.Flights; i++ {
		from := pick(r, airports)
		to := pick(r, airports)
		for to.Code == from.Code {
			to = pick(r, airports)
		}
		fs := flightScript{
			entity: model.Entity{
				ID: icaoFor(i), Domain: model.Aviation,
				Name:     fmt.Sprintf("AEE%03d", 100+i),
				Callsign: fmt.Sprintf("AEE%03d", 100+i),
				Type:     pick(r, []string{"A320", "B738", "AT72", "A321"}),
				Dest:     to.Code,
			},
			from: from, to: to,
			depMS:     startMS + int64(float64(durMS)*r.between(0, 0.55)),
			cruiseAlt: geo.Feet(r.between(29000, 39000)),
			cruiseSpd: geo.Knots(r.between(420, 470)),
		}
		// Short hops cruise lower and slower.
		if geo.Haversine(from.Pt, to.Pt) < 400000 {
			fs.cruiseAlt = geo.Feet(r.between(17000, 25000))
			fs.cruiseSpd = geo.Knots(r.between(300, 380))
		}
		for _, h := range holds {
			if h.ap.Code == to.Code {
				fs.holdAt = h.from
				fs.holdUntil = h.to
			}
		}
		scripts = append(scripts, fs)
		sc.Entities = append(sc.Entities, fs.entity)
	}
	return sc, scripts
}

// simulateFlight runs one flight's climb/cruise/descent (plus any scripted
// hold) and samples its truth trajectory.
func simulateFlight(r rng, fs flightScript, endMS int64, report time.Duration) *model.Trajectory {
	tr := &model.Trajectory{EntityID: fs.entity.ID, Domain: model.Aviation}
	const initAlt = 500.0
	const vertRate = 10.0 // m/s ≈ 2000 ft/min
	pos := fs.from.Pt
	pos.Alt = initAlt
	stepMS := report.Milliseconds()
	dt := float64(stepMS) / 1000
	status := model.StatusClimbing

	holding := false
	var holdCenter geo.Point
	holdEntryCourse := 0.0

	for ts := fs.depMS; ts <= endMS; ts += stepMS {
		remaining := geo.Haversine(pos, fs.to.Pt)
		speed := fs.cruiseSpd
		var vr float64
		// Descent distance needed from current altitude.
		descentDist := (pos.Alt - initAlt) / vertRate * speed

		// Scripted holding: once close to a congested destination inside
		// the episode window, orbit until the window closes.
		if fs.holdAt > 0 && ts >= fs.holdAt && ts < fs.holdUntil && remaining < 90000 {
			if !holding {
				holding = true
				holdCenter = pos
				holdEntryCourse = geo.Bearing(pos, fs.to.Pt)
			}
			speed = geo.Knots(230)
			// Fly a circle of ~6km radius: advance course steadily.
			holdEntryCourse += (speed * dt / 6000) * (180 / math.Pi)
			holdEntryCourse = math.Mod(holdEntryCourse, 360)
			pos = geo.Destination(holdCenter, holdEntryCourse, 6000)
			pos.Alt = holdCenter.Alt
			tr.Points = append(tr.Points, model.Position{
				EntityID: fs.entity.ID, Domain: model.Aviation, TS: ts, Pt: pos,
				SpeedMS: speed, CourseDeg: math.Mod(holdEntryCourse+90, 360),
				VertRateMS: 0, Status: model.StatusCruising,
			})
			continue
		}
		holding = false

		switch {
		case remaining <= descentDist+speed*dt:
			status = model.StatusDescending
			vr = -vertRate
		case pos.Alt < fs.cruiseAlt:
			status = model.StatusClimbing
			vr = vertRate
			speed = fs.cruiseSpd * 0.75
		default:
			status = model.StatusCruising
			vr = 0
		}
		course := geo.Bearing(pos, fs.to.Pt)
		stepDist := speed * dt
		if stepDist >= remaining && pos.Alt <= initAlt+vertRate*dt*2 {
			// Arrived.
			pos = fs.to.Pt
			pos.Alt = initAlt
			tr.Points = append(tr.Points, model.Position{
				EntityID: fs.entity.ID, Domain: model.Aviation, TS: ts, Pt: pos,
				SpeedMS: 0, CourseDeg: course, Status: model.StatusDescending,
			})
			break
		}
		if stepDist >= remaining {
			// Over the airport but still high: spiral down.
			pos = geo.Destination(fs.to.Pt, r.between(0, 360), 3000)
		} else {
			pos = geo.Destination(pos, course, stepDist)
		}
		pos.Alt += vr * dt
		if pos.Alt > fs.cruiseAlt {
			pos.Alt = fs.cruiseAlt
		}
		if pos.Alt < initAlt {
			pos.Alt = initAlt
		}
		tr.Points = append(tr.Points, model.Position{
			EntityID: fs.entity.ID, Domain: model.Aviation, TS: ts, Pt: pos,
			SpeedMS: speed, CourseDeg: course, VertRateMS: vr, Status: status,
		})
	}
	return tr
}
