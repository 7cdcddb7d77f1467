package experiments

import (
	"fmt"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/synth"
)

// E15Observability measures what the observability layer costs the hot
// path: the identical wire stream is ingested through three pipelines —
// tracing off, tracing at the daemon's default 1:64 sampling, and the
// pathological 1:1 (every line traced) — and the throughput delta is the
// instrumentation overhead. The acceptance bar for the default
// configuration is < 5% against the untraced baseline; 1:1 is reported to
// show the knob's full range, not to pass a bar. The sampled-span and
// per-stage accounting beside the timings shows what the budget buys.
func E15Observability(quick bool) *Table {
	vessels, dur := 40, 3*time.Hour
	if quick {
		vessels, dur = 15, time.Hour
	}
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 151, Vessels: vessels, Duration: dur,
	})
	t := &Table{
		ID:     "E15",
		Title:  "observability overhead: sampled stage tracing vs the untraced hot path",
		Header: []string{"configuration", "ingest time", "rate", "overhead"},
		Notes:  "acceptance bar: default sampling < 5% over baseline",
	}

	run := func(cfg obs.TraceConfig) (*core.Pipeline, time.Duration) {
		p := core.New(core.Config{Domain: model.Maritime, Trace: cfg})
		p.InstallAreas(sc.Areas)
		p.InstallEntities(sc.Entities)
		// One untimed warm-up pass levels the playing field (the first
		// configuration would otherwise pay all the cold-cache cost), then
		// the best of three timed passes is taken so a GC or scheduler
		// hiccup cannot masquerade as tracer overhead.
		best := time.Duration(1<<62 - 1)
		for pass := 0; pass < 4; pass++ {
			start := time.Now()
			p.Ingest(sc.WireTimed)
			if d := time.Since(start); pass > 0 && d < best {
				best = d
			}
		}
		return p, best
	}

	offP, offTime := run(obs.TraceConfig{})
	defSampled, defTime := run(obs.TraceConfig{Enabled: true})
	fullP, fullTime := run(obs.TraceConfig{Enabled: true, SampleEvery: 1})

	lines := int(offP.Stats.Snapshot().Lines)
	overhead := func(d time.Duration) string {
		if offTime <= 0 {
			return "-"
		}
		return fmt.Sprintf("%+.1f%%", 100*(float64(d)-float64(offTime))/float64(offTime))
	}
	t.AddRow("tracing off (baseline)", offTime.Round(time.Millisecond).String(), rate(lines, offTime), "-")
	t.AddRow(fmt.Sprintf("default sampling (1:%d)", obs.DefaultSampleEvery),
		defTime.Round(time.Millisecond).String(), rate(lines, defTime), overhead(defTime))
	t.AddRow("every line traced (1:1)", fullTime.Round(time.Millisecond).String(),
		rate(lines, fullTime), overhead(fullTime))

	if tr := defSampled.Tracer; tr != nil {
		t.AddRow("spans sampled (default)", itoa(int(tr.Sampled())), "-", "-")
	}
	if tr := fullP.Tracer; tr != nil {
		// Per-stage medians from the 1:1 run: where a line's time actually
		// goes (the paper's decode → gate → synopses → store → CER chain).
		for _, st := range obs.Stages() {
			h := tr.StageHist(st)
			if h == nil || h.Count() == 0 {
				continue
			}
			t.AddRow("stage "+st.String()+" p50/p99",
				h.Percentile(50).String()+" / "+h.Percentile(99).String(),
				fmt.Sprintf("%d samples", h.Count()), "-")
		}
	}
	return t
}
