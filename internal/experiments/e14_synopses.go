package experiments

import (
	"fmt"
	"math"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synopses"
	"github.com/datacron-project/datacron/internal/synth"
)

// E14Synopses measures the online trajectory-synopses subsystem (DESIGN.md
// §11) along the paper's volume-reduction claim: critical points cut the
// stream by an order of magnitude without destroying the trajectory signal.
// Three axes:
//
//  1. Compression: raw gated reports vs critical points (overall and per
//     kind) on synthetic maritime traffic — the acceptance bar is ≥ 5x.
//  2. Fidelity: RMSE of trajectories reconstructed from critical points
//     alone (interpolated between them) against the scenario's noise-free
//     ground truth, sampled at the reporting cadence inside each synopsis
//     span. The raw observed stream's own RMSE against the same truth is
//     reported beside it for context — note the raw stream still carries
//     the wild outliers the noise gate removes before the synopsis tap,
//     so the synopsis can beat it.
//  3. Ingest cost of the tap: wall-clock pipeline throughput with the hub
//     on vs off over the identical wire stream.
func E14Synopses(quick bool) *Table {
	vessels, dur := 40, 3*time.Hour
	if quick {
		vessels, dur = 15, time.Hour
	}
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 141, Vessels: vessels, Duration: dur, Rendezvous: -1, GapProb: 0.15,
	})
	t := &Table{
		ID:     "E14",
		Title:  "trajectory synopses: compression ratio vs reconstruction RMSE, and the ingest cost of the tap",
		Header: []string{"measure", "value", "detail"},
		Notes:  "critical points: stop / turn / speed-change / gap-start / gap-end, maritime default thresholds",
	}

	// Throughput with the hub off, then on (rings sized so no critical
	// point is evicted and reconstruction sees the whole synopsis).
	offP, offTime := runSynopsesPipeline(sc, core.SynopsesConfig{})
	onP, onTime := runSynopsesPipeline(sc, core.SynopsesConfig{Enabled: true, RingLen: 1 << 16})
	hub := onP.SynopsisHub
	if hub == nil {
		t.AddRow("error", "-", "pipeline without hub")
		return t
	}

	// Compression.
	st := hub.Stats()
	t.AddRow("raw gated reports", itoa(int(st.Observed)), fmt.Sprintf("%d entities", st.Entities))
	t.AddRow("critical points", itoa(int(st.Critical)), perKind(st))
	t.AddRow("compression ratio", fmt.Sprintf("%.1f : 1", st.Ratio()), "acceptance bar ≥ 5:1")

	// Fidelity: reconstruct each entity from its critical points and score
	// both the reconstruction and the raw stream against ground truth at
	// the reporting cadence, inside the synopsis span.
	stepMS := (10 * time.Second).Milliseconds()
	rawByEntity := model.GroupByEntity(sc.Positions)
	var sumSq, rawSumSq float64
	var n, rawN, scored int
	for _, s := range hub.Summaries() {
		es, err := hub.Synopsis(s.Entity)
		if err != nil || len(es.Points) < 2 {
			continue
		}
		truth := sc.Truth[s.Entity]
		if truth == nil {
			continue
		}
		rec := synopses.Reconstruct(s.Entity, model.Maritime, es.Points)
		if rec.Len() < 2 {
			continue
		}
		scored++
		raw := rawByEntity[s.Entity]
		for ts := rec.Start(); ts <= rec.End(); ts += stepMS {
			actual, ok := truth.At(ts)
			if !ok {
				continue
			}
			if pos, ok := rec.At(ts); ok {
				sumSq += sq(geo.Haversine(pos.Pt, actual.Pt))
				n++
			}
			if raw != nil && raw.Len() > 0 {
				if pos, ok := raw.At(ts); ok {
					rawSumSq += sq(geo.Haversine(pos.Pt, actual.Pt))
					rawN++
				}
			}
		}
	}
	t.AddRow("synopsis-reconstructed RMSE", rmse(sumSq, n), fmt.Sprintf("%d entities, %d samples", scored, n))
	t.AddRow("raw observed-stream RMSE", rmse(rawSumSq, rawN), fmt.Sprintf("%d samples (incl. pre-gate outliers)", rawN))

	// Tap overhead.
	offLines := int(offP.Stats.Snapshot().Lines)
	onLines := int(onP.Stats.Snapshot().Lines)
	t.AddRow("ingest, synopses off", offTime.Round(time.Millisecond).String(), rate(offLines, offTime))
	t.AddRow("ingest, synopses on", onTime.Round(time.Millisecond).String(), rate(onLines, onTime))
	if offTime > 0 {
		t.Notes += fmt.Sprintf("; tap overhead %.1f%%", 100*(float64(onTime)-float64(offTime))/float64(offTime))
	}
	return t
}

// runSynopsesPipeline ingests the scenario through a one-worker Ingestor
// with the given synopses config.
func runSynopsesPipeline(sc *synth.Scenario, cfg core.SynopsesConfig) (*core.Pipeline, time.Duration) {
	p := core.New(core.Config{Domain: model.Maritime, Synopses: cfg})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	start := time.Now()
	p.Ingest(sc.WireTimed)
	return p, time.Since(start)
}

// perKind renders the per-kind breakdown of a stats snapshot.
func perKind(st core.SynopsisStats) string {
	out := ""
	for k, n := range st.ByKind {
		if k > 0 {
			out += " "
		}
		out += fmt.Sprintf("%s=%d", synopses.Kind(k), n)
	}
	return out
}

func sq(v float64) float64 { return v * v }

// rmse renders sqrt(sumSq/n) in metres, or "-" with no samples.
func rmse(sumSq float64, n int) string {
	if n == 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f m", math.Sqrt(sumSq/float64(n)))
}
