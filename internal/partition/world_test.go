package partition

import (
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/synth"
)

// The partitioning claim ("sophisticated RDF partitioning algorithms",
// §2): the position graph of 40 vessels reporting every 20 s for an hour,
// routed to 8 shards as the store routes it (one anchored fragment per
// report, keyed by its node IRI), then 56 small box queries over the whole
// time span. Hash balances its shards (max/mean load ≤ 1.6) and prunes
// none; grid and Hilbert prune more than 30 % of the shards per query;
// temporal prunes nothing for full-time queries. On the world the claim
// was first measured on (seed 103) and three held-out seeds.
func TestPartitionersOnSyntheticWorld(t *testing.T) {
	box := geo.NewBBox(22.0, 34.5, 29.0, 41.2)
	var queries []geo.BBox
	for i := 0; i < 56; i++ {
		lon, lat := 22.5+float64(i%8)*0.75, 35.0+float64(i/8%7)*0.85
		queries = append(queries, geo.NewBBox(lon, lat, lon+0.5, lat+0.5))
	}
	const shards = 8
	for _, seed := range []int64{103, 1103, 2103, 3103} {
		ps := synth.GenMaritime(synth.MaritimeConfig{
			Seed: seed, Vessels: 40, Duration: time.Hour, ReportEvery: 20 * time.Second,
		}).Positions
		from, to := ps[0].TS, ps[len(ps)-1].TS
		for _, part := range []Partitioner{
			NewHash(shards),
			NewGrid(geo.NewGrid(box, 32, 32), shards),
			NewHilbert(box, 7, shards),
			NewTemporal(from, to+1, shards),
		} {
			loads := make([]int, shards)
			for _, p := range ps {
				loads[part.Assign(onto.NodeIRI(p.EntityID, p.TS).Value, p.Pt, p.TS)]++
			}
			visited := 0
			for _, q := range queries {
				visited += len(part.Candidates(q, from, to))
			}
			balance, pruning := balanceFactor(loads), pruningRate(visited/len(queries), shards)
			switch part.(type) {
			case *Hash:
				if balance > 1.6 || pruning != 0 {
					t.Errorf("seed %d %s: balance %.2f, pruning %.2f; want ≤ 1.6 and 0", seed, part.Name(), balance, pruning)
				}
			case *Grid, *Hilbert:
				if pruning <= 0.3 {
					t.Errorf("seed %d %s: pruning %.2f, want > 0.3", seed, part.Name(), pruning)
				}
			case *Temporal:
				if pruning > 0.01 {
					t.Errorf("seed %d %s: pruning %.2f for full-time queries, want 0", seed, part.Name(), pruning)
				}
			}
			t.Logf("seed %d %s: balance %.2f, pruning %.2f", seed, part.Name(), balance, pruning)
		}
	}
}
