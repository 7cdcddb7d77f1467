// Package synopses implements online trajectory synopses: compressing the
// gated surveillance stream of each moving entity into the critical points
// that carry its mobility signal — stops, turns, speed changes and
// communication gaps — while everything in between (straight, steady
// movement) is dropped. This is datAcron's central volume-reduction device:
// the synopses generator cuts raw stream volume by an order of magnitude
// while the analytics and forecasting layers keep the features they need
// ("Towards Mobility Data Science" names stream summarisation as the
// prerequisite for mobility analytics at scale).
//
// The Detector is a deterministic per-entity state machine: feed it the
// entity's gated reports in stream order and it emits zero or more
// CriticalPoints per report. Determinism matters beyond reproducible
// tests — the durability protocol replays the WAL tail through the
// same detector states, so a recovered synopsis must equal the
// uninterrupted one bit for bit.
package synopses

import (
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// Kind classifies a critical point.
type Kind uint8

// Critical point kinds.
const (
	Stop        Kind = iota // sustained low speed (mooring, anchorage, holding)
	Turn                    // cumulative course change beyond the threshold
	SpeedChange             // sustained speed level shift
	GapStart                // last report before a communication gap
	GapEnd                  // first report after a communication gap
	kindCount
)

// KindCount is the number of critical point kinds (for per-kind counters).
const KindCount = int(kindCount)

// String implements fmt.Stringer; these are also the wire names in the
// /synopses endpoints and the "synopsis" SSE frames.
func (k Kind) String() string {
	switch k {
	case Stop:
		return "stop"
	case Turn:
		return "turn"
	case SpeedChange:
		return "speed-change"
	case GapStart:
		return "gap-start"
	case GapEnd:
		return "gap-end"
	default:
		return "unknown"
	}
}

// Config holds the detection thresholds; a pipeline uses its domain's
// (ForDomain).
type Config struct {
	// StopSpeedMS is the speed under which an entity is a stop candidate;
	// a candidate sustained for StopMinDuration emits one Stop point per
	// episode. Course and speed-change detection are suspended while
	// stopped (course over ground is GPS noise at near-zero speed).
	StopSpeedMS     float64
	StopMinDuration time.Duration
	// TurnDeg emits a Turn once the cumulative course change since the
	// last turn (or reset) exceeds it. Cumulative, not per-report: a slow
	// arc crosses the threshold just like a sharp corner.
	TurnDeg float64
	// SpeedDeltaFrac emits a SpeedChange when the speed diverges from the
	// reference level by this fraction of max(reference, SpeedFloorMS);
	// the floor keeps jitter around zero from firing.
	SpeedDeltaFrac float64
	SpeedFloorMS   float64
	// GapDuration: report silence at least this long emits a GapStart
	// (annotating the last report before the silence) and a GapEnd (the
	// first report after); detection state resets across the gap.
	GapDuration time.Duration
}

// DefaultMaritime is tuned for AIS traffic (≈10 s reporting cadence).
func DefaultMaritime() Config {
	return Config{
		StopSpeedMS:     0.5, // ~1 knot
		StopMinDuration: time.Minute,
		TurnDeg:         15,
		SpeedDeltaFrac:  0.25,
		SpeedFloorMS:    1.0,
		GapDuration:     10 * time.Minute,
	}
}

// DefaultAviation is tuned for ADS-B traffic (second-level cadence, much
// higher speeds, gaps measured in minutes not tens of minutes).
func DefaultAviation() Config {
	return Config{
		StopSpeedMS:     10, // taxi threshold
		StopMinDuration: time.Minute,
		TurnDeg:         10,
		SpeedDeltaFrac:  0.15,
		SpeedFloorMS:    20,
		GapDuration:     2 * time.Minute,
	}
}

// ForDomain returns the default thresholds for a domain.
func ForDomain(d model.Domain) Config {
	if d == model.Aviation {
		return DefaultAviation()
	}
	return DefaultMaritime()
}

// CriticalPoint is one synopsis point: the report that triggered it plus
// the kind-specific annotation.
type CriticalPoint struct {
	Kind Kind           `json:"kind"`
	Pos  model.Position `json:"pos"`
	// DurationMS annotates stops (low-speed dwell when the point was
	// emitted) and gaps (silence length, on both GapStart and GapEnd).
	DurationMS int64 `json:"durationMS,omitempty"`
	// DeltaDeg annotates turns: the signed cumulative course change
	// (+ = clockwise).
	DeltaDeg float64 `json:"deltaDeg,omitempty"`
	// DeltaSpeedMS annotates speed changes: new level minus old level.
	DeltaSpeedMS float64 `json:"deltaSpeedMS,omitempty"`
}

// DetectorState is the serialisable detector state; it rides in pipeline
// snapshots so a recovered detector continues exactly where the crashed
// process stopped.
type DetectorState struct {
	Last      model.Position `json:"last"`
	HasLast   bool           `json:"hasLast"`
	CumTurn   float64        `json:"cumTurn"`
	RefSpeed  float64        `json:"refSpeed"`
	StopSince int64          `json:"stopSince"` // TS the low-speed episode began; -1 = none
	StopDone  bool           `json:"stopDone"`  // the episode's Stop point already emitted
	Raw       int64          `json:"raw"`       // reports observed
}

// Detector is the per-entity critical point state machine. Not safe for
// concurrent use; the hub serialises access per entity.
type Detector struct {
	cfg Config
	st  DetectorState
}

// NewDetector returns a detector with the given thresholds.
func NewDetector(cfg Config) *Detector {
	return &Detector{cfg: cfg, st: DetectorState{StopSince: -1}}
}

// State exports the detector for snapshots.
func (d *Detector) State() DetectorState { return d.st }

// Restore installs a snapshot state.
func (d *Detector) Restore(st DetectorState) { d.st = st }

// Raw returns how many reports this detector has observed.
func (d *Detector) Raw() int64 { return d.st.Raw }

// Observe feeds one gated report in stream order, appending any emitted
// critical points to out (which is returned). A report never emits more
// than three points (gap-start, gap-end and one movement point).
func (d *Detector) Observe(p model.Position, out []CriticalPoint) []CriticalPoint {
	d.st.Raw++
	if !d.st.HasLast {
		d.st.HasLast = true
		d.st.RefSpeed = p.SpeedMS
		d.st.CumTurn = 0
		if p.SpeedMS < d.cfg.StopSpeedMS {
			d.st.StopSince = p.TS
		}
		d.st.Last = p
		return out
	}
	if p.TS <= d.st.Last.TS {
		// Duplicate or out-of-order timestamp: replays must see the exact
		// same decision, so skip detection entirely rather than derive a
		// zero/negative dt.
		return out
	}

	// Communication gap: bracket the silence and reset movement state —
	// whatever happened inside the gap is unobservable, so cumulative
	// course/speed baselines must not span it.
	if dt := p.TS - d.st.Last.TS; dt >= d.cfg.GapDuration.Milliseconds() {
		out = append(out,
			CriticalPoint{Kind: GapStart, Pos: d.st.Last, DurationMS: dt},
			CriticalPoint{Kind: GapEnd, Pos: p, DurationMS: dt})
		d.st.CumTurn = 0
		d.st.RefSpeed = p.SpeedMS
		d.st.StopSince = -1
		d.st.StopDone = false
		if p.SpeedMS < d.cfg.StopSpeedMS {
			d.st.StopSince = p.TS
		}
		d.st.Last = p
		return out
	}

	if p.SpeedMS < d.cfg.StopSpeedMS {
		// Low-speed episode: emit one Stop once it has been sustained.
		if d.st.StopSince < 0 {
			d.st.StopSince = p.TS
			d.st.StopDone = false
		} else if !d.st.StopDone && p.TS-d.st.StopSince >= d.cfg.StopMinDuration.Milliseconds() {
			out = append(out, CriticalPoint{Kind: Stop, Pos: p, DurationMS: p.TS - d.st.StopSince})
			d.st.StopDone = true
		}
		d.st.Last = p
		return out
	}
	if d.st.StopSince >= 0 {
		// Movement resumed: rebase course/speed on the departure report so
		// the manoeuvring into the berth does not count toward the next
		// turn, and the stop itself is not also a speed change.
		d.st.StopSince = -1
		d.st.StopDone = false
		d.st.CumTurn = 0
		d.st.RefSpeed = p.SpeedMS
		d.st.Last = p
		return out
	}

	d.st.CumTurn += geo.AngleDiff(d.st.Last.CourseDeg, p.CourseDeg)
	if d.st.CumTurn >= d.cfg.TurnDeg || d.st.CumTurn <= -d.cfg.TurnDeg {
		out = append(out, CriticalPoint{Kind: Turn, Pos: p, DeltaDeg: d.st.CumTurn})
		d.st.CumTurn = 0
	}

	ref := d.st.RefSpeed
	if ref < d.cfg.SpeedFloorMS {
		ref = d.cfg.SpeedFloorMS
	}
	if delta := p.SpeedMS - d.st.RefSpeed; delta >= d.cfg.SpeedDeltaFrac*ref || delta <= -d.cfg.SpeedDeltaFrac*ref {
		out = append(out, CriticalPoint{Kind: SpeedChange, Pos: p, DeltaSpeedMS: delta})
		d.st.RefSpeed = p.SpeedMS
	}

	d.st.Last = p
	return out
}
