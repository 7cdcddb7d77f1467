// Package insitu implements the paper's "in-situ processing" layer: primitive
// operators applied directly on surveillance streams that "compress and
// integrate data at high rates of data compression without affecting the
// quality of analytics" (datAcron §2); TestCompressionOnSyntheticWorld
// holds that claim (E1, DESIGN.md §4).
//
// Two operators are provided, both per-entity:
//
//   - NoiseGate: drops kinematically impossible reports (GPS outliers).
//   - ThresholdFilter: online dead-reckoning compression — a report is kept
//     only when it deviates from the position extrapolated from the last
//     kept report, turns, changes speed, or too much time has elapsed.
package insitu

import (
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// NoiseGate drops positions whose implied speed from the previously accepted
// position exceeds its speed limit. It is the first primitive operator applied on
// the raw stream. The zero value is not ready; use NewNoiseGate.
type NoiseGate struct {
	maxSpeedMS float64
	last       map[string]model.Position
}

// NewNoiseGate returns a gate with the given speed ceiling (m/s). Maritime
// pipelines use ~40 m/s (78 kn); aviation ~350 m/s.
func NewNoiseGate(maxSpeedMS float64) *NoiseGate {
	return &NoiseGate{maxSpeedMS: maxSpeedMS, last: make(map[string]model.Position)}
}

// Accept reports whether p is kinematically plausible, updating per-entity
// state when it is. Duplicate and time-regressing reports are rejected.
func (g *NoiseGate) Accept(p model.Position) bool {
	last, seen := g.last[p.EntityID]
	if !seen {
		g.last[p.EntityID] = p
		return true
	}
	dtMS := p.TS - last.TS
	if dtMS <= 0 {
		return false
	}
	dist := geo.Dist3D(last.Pt, p.Pt)
	if dist/(float64(dtMS)/1000) > g.maxSpeedMS {
		return false
	}
	g.last[p.EntityID] = p
	return true
}

// ThresholdConfig parameterises the dead-reckoning ThresholdFilter.
type ThresholdConfig struct {
	// DistM keeps a report whose position deviates from the dead-reckoned
	// extrapolation of the last kept report by more than this (metres).
	DistM float64
	// CourseDeg keeps a report whose course changed by more than this.
	CourseDeg float64
	// SpeedMS keeps a report whose speed changed by more than this.
	SpeedMS float64
	// MaxGapMS always keeps a report when this much time has passed since
	// the last kept one, bounding reconstruction error during steady motion.
	MaxGapMS int64
}

// DefaultThreshold is a sensible maritime configuration: ~50 m deviation,
// 5° turns, 0.5 m/s speed steps, 3 min heartbeat.
func DefaultThreshold() ThresholdConfig {
	return ThresholdConfig{DistM: 50, CourseDeg: 5, SpeedMS: 0.5, MaxGapMS: 180_000}
}

// ThresholdFilter is the online dead-reckoning compressor.
type ThresholdFilter struct {
	cfg  ThresholdConfig
	last map[string]model.Position
}

// NewThresholdFilter returns a filter with the given thresholds. Zero-value
// fields of cfg disable their criterion (except MaxGapMS, which defaults to
// 5 minutes to keep the stream alive).
func NewThresholdFilter(cfg ThresholdConfig) *ThresholdFilter {
	if cfg.MaxGapMS <= 0 {
		cfg.MaxGapMS = 300_000
	}
	return &ThresholdFilter{cfg: cfg, last: make(map[string]model.Position)}
}

// Keep reports whether p must be retained in the compressed stream and
// updates per-entity state when it is.
func (f *ThresholdFilter) Keep(p model.Position) bool {
	last, seen := f.last[p.EntityID]
	if !seen {
		f.last[p.EntityID] = p
		return true
	}
	dtMS := p.TS - last.TS
	if dtMS <= 0 {
		return false
	}
	keep := false
	if dtMS >= f.cfg.MaxGapMS {
		keep = true
	}
	if !keep && f.cfg.DistM > 0 {
		// Dead-reckon the last kept report to p's timestamp.
		predicted := DeadReckon(last, p.TS)
		if geo.Dist3D(predicted.Pt, p.Pt) > f.cfg.DistM {
			keep = true
		}
	}
	if !keep && f.cfg.CourseDeg > 0 {
		if d := geo.AngleDiff(last.CourseDeg, p.CourseDeg); d > f.cfg.CourseDeg || d < -f.cfg.CourseDeg {
			keep = true
		}
	}
	if !keep && f.cfg.SpeedMS > 0 {
		if d := p.SpeedMS - last.SpeedMS; d > f.cfg.SpeedMS || d < -f.cfg.SpeedMS {
			keep = true
		}
	}
	if keep {
		f.last[p.EntityID] = p
	}
	return keep
}

// DeadReckon extrapolates a position report to a later timestamp assuming
// constant speed and course (the universal surveillance baseline).
func DeadReckon(p model.Position, ts int64) model.Position {
	dt := float64(ts-p.TS) / 1000
	if dt <= 0 {
		return p
	}
	out := p
	out.TS = ts
	out.Pt = geo.Destination(p.Pt, p.CourseDeg, p.SpeedMS*dt)
	out.Pt.Alt = p.Pt.Alt + p.VertRateMS*dt
	return out
}

// Ratio returns the compression ratio original/kept (e.g. 10 means 10:1).
// Returns 0 when kept is 0.
func Ratio(original, kept int) float64 {
	if kept == 0 {
		return 0
	}
	return float64(original) / float64(kept)
}
