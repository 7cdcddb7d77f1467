package experiments

import (
	"fmt"
	"runtime"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/query"
	"github.com/datacron-project/datacron/internal/store"
	"github.com/datacron-project/datacron/internal/synth"
)

// E13Tiering measures the tiered shard storage (DESIGN.md §10): under
// sustained ingest, sealing bounds the mutable head and a retention window
// bounds the total triple count and heap — the memory plateau that lets a
// datacron-serve run forever — while spatiotemporally-bounded queries stay
// fast because the planner starts from the bounded pattern, which each
// sealed segment answers by binary search on its numeric column.
func E13Tiering(quick bool) *Table {
	vessels, dur, sealN := 40, 6*time.Hour, 10_000
	if quick {
		vessels, dur, sealN = 15, 2*time.Hour, 1_500
	}
	longRet, shortRet := dur/3, dur/12
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 131, Vessels: vessels, Duration: dur, Rendezvous: -1,
	})
	t := &Table{
		ID:     "E13",
		Title:  "tiered shards: sustained-ingest memory plateau and query latency vs seal/retention policy",
		Header: []string{"policy", "triples", "head", "sealed", "segments", "dropped", "heap MB", "window query"},
		Notes:  fmt.Sprintf("%d wire lines over %v of stream time; maintenance every 4096 lines; query = 30-min window at stream end", len(sc.WireTimed), dur),
	}

	policies := []struct {
		name string
		pol  store.TierPolicy
	}{
		{"no tiering", store.TierPolicy{}},
		{fmt.Sprintf("seal %d", sealN), store.TierPolicy{SealTriples: sealN}},
		{fmt.Sprintf("seal %d + retain %v", sealN, longRet), store.TierPolicy{SealTriples: sealN, Retention: longRet}},
		{fmt.Sprintf("seal %d + retain %v", sealN, shortRet), store.TierPolicy{SealTriples: sealN, Retention: shortRet}},
	}
	for _, pc := range policies {
		p := core.New(core.Config{Domain: model.Maritime})
		p.InstallAreas(sc.Areas)
		p.InstallEntities(sc.Entities)
		ing := p.NewIngestor(core.IngestorConfig{Workers: 1})
		for lines := sc.WireTimed; len(lines) > 0; {
			n := min(4096, len(lines))
			_ = ing.Feed(nil, lines[:n])
			lines = lines[n:]
			if pc.pol.Active() {
				p.MaintainStore(ing, pc.pol, false)
			}
		}
		ing.Close()
		tiers := p.Store.TierStats()

		// Heap after a full GC: the store dominates a pipeline without
		// analytics churn, so the delta across policies is the tier win.
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)

		// A spatiotemporally-bounded query over the last 30 minutes of
		// stream time: the numeric pushdown should keep it flat as history
		// grows.
		end := p.Store.MaxAnchorTS()
		q := query.MustParse(fmt.Sprintf(`SELECT ?n ?t WHERE {
			?n rdf:type dat:SemanticNode .
			?n dat:timestamp ?t .
			FILTER st:during(?t, %d, %d)
		}`, end-30*time.Minute.Milliseconds(), end))
		runs := 5
		var el time.Duration
		for r := 0; r < runs; r++ {
			res, err := p.Engine.Run(q)
			if err != nil {
				t.AddRow(pc.name, "-", "-", "-", "-", "-", "-", err.Error())
				continue
			}
			el += res.Elapsed
		}
		t.AddRow(pc.name,
			itoa(p.Store.Len()),
			itoa(tiers.HeadTriples),
			itoa(tiers.SealedTriples),
			itoa(tiers.Segments),
			itoa(int(tiers.TriplesDropped)),
			f1(float64(ms.HeapAlloc)/(1<<20)),
			(el / time.Duration(runs)).Round(time.Microsecond).String(),
		)
	}
	return t
}
