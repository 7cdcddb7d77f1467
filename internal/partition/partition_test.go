package partition

import (
	"fmt"
	"testing"
	"testing/quick"

	"github.com/datacron-project/datacron/internal/geo"
)

var worldBox = geo.NewBBox(22, 34, 30, 42)

// partitioners under test, constructed fresh per test.
func testPartitioners(n int) []Partitioner {
	return []Partitioner{
		NewHash(n),
		NewGrid(geo.NewGrid(worldBox, 16, 16), n),
		NewHilbert(worldBox, 6, n),
		NewTemporal(0, 1_000_000, n),
	}
}

func TestAssignInRangeQuick(t *testing.T) {
	for _, p := range testPartitioners(7) {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			f := func(key string, lon, lat float64, ts int64) bool {
				s := p.Assign(key, geo.Pt(lon, lat), ts)
				return s >= 0 && s < p.Shards()
			}
			if err := quick.Check(f, nil); err != nil {
				t.Error(err)
			}
		})
	}
}

func TestCandidatesAreSupersetOfAssignment(t *testing.T) {
	// Fundamental correctness: any fragment inside a query box/time range
	// must live in one of the candidate shards.
	queryBox := geo.NewBBox(24, 36, 26, 38)
	from, to := int64(200_000), int64(500_000)
	for _, p := range testPartitioners(5) {
		p := p
		t.Run(p.Name(), func(t *testing.T) {
			cand := map[int]bool{}
			for _, s := range p.Candidates(queryBox, from, to) {
				cand[s] = true
			}
			for i := 0; i < 2000; i++ {
				lon := queryBox.MinLon + float64(i%50)*queryBox.WidthDeg()/50
				lat := queryBox.MinLat + float64(i/50)*queryBox.HeightDeg()/40
				ts := from + int64(i)*(to-from)/2000
				s := p.Assign(fmt.Sprintf("k%d", i), geo.Pt(lon, lat), ts)
				if !cand[s] {
					t.Fatalf("point (%f,%f)@%d assigned to shard %d not in candidates %v",
						lon, lat, ts, s, p.Candidates(queryBox, from, to))
				}
			}
		})
	}
}

func TestHashBalances(t *testing.T) {
	h := NewHash(8)
	counts := make([]int, 8)
	for i := 0; i < 8000; i++ {
		counts[h.Assign(fmt.Sprintf("entity-%d", i), geo.Point{}, 0)]++
	}
	if bf := balanceFactor(counts); bf > 1.15 {
		t.Errorf("hash balance factor %f too high", bf)
	}
}

func TestSpatialPartitionersPrune(t *testing.T) {
	small := geo.NewBBox(24, 36, 24.5, 36.5)
	for _, p := range []Partitioner{
		NewGrid(geo.NewGrid(worldBox, 16, 16), 8),
		NewHilbert(worldBox, 6, 8),
	} {
		got := len(p.Candidates(small, 0, 1))
		if got == 8 {
			t.Errorf("%s: small box should prune, visited all 8 shards", p.Name())
		}
	}
	// Hash cannot prune.
	if got := len(NewHash(8).Candidates(small, 0, 1)); got != 8 {
		t.Errorf("hash candidates = %d, want 8", got)
	}
}

func TestHilbertPrunesBetterThanGridOnAverage(t *testing.T) {
	// The E3 claim in miniature: for small query boxes, Hilbert's
	// contiguous ranges touch no more (usually fewer) shards than
	// round-robin grid assignment.
	grid := NewGrid(geo.NewGrid(worldBox, 32, 32), 8)
	hil := NewHilbert(worldBox, 6, 8)
	var gridTotal, hilTotal int
	for i := 0; i < 100; i++ {
		lon := 22.0 + float64(i%10)*0.7
		lat := 34.0 + float64(i/10)*0.7
		box := geo.NewBBox(lon, lat, lon+0.5, lat+0.5)
		gridTotal += len(grid.Candidates(box, 0, 1))
		hilTotal += len(hil.Candidates(box, 0, 1))
	}
	if hilTotal >= gridTotal {
		t.Errorf("hilbert visited %d shard-queries vs grid %d; expected fewer", hilTotal, gridTotal)
	}
}

func TestTemporalPruning(t *testing.T) {
	p := NewTemporal(0, 1000, 10)
	cand := p.Candidates(geo.BBox{}, 250, 450)
	if len(cand) < 2 || len(cand) > 3 {
		t.Errorf("temporal candidates = %v", cand)
	}
	for _, s := range cand {
		if s < 2 || s > 4 {
			t.Errorf("unexpected shard %d", s)
		}
	}
	// Out-of-horizon timestamps clamp.
	if p.Assign("", geo.Point{}, -5) != 0 {
		t.Error("before-horizon should go to shard 0")
	}
	if p.Assign("", geo.Point{}, 99999) != 9 {
		t.Error("after-horizon should go to last shard")
	}
}

func TestDisjointQueryBoxYieldsNoSpatialCandidates(t *testing.T) {
	far := geo.NewBBox(100, -50, 110, -40)
	if got := NewHilbert(worldBox, 6, 4).Candidates(far, 0, 1); len(got) != 0 {
		t.Errorf("hilbert candidates for disjoint box = %v", got)
	}
}

func TestBalanceFactor(t *testing.T) {
	if balanceFactor(nil) != 0 {
		t.Error("nil counts")
	}
	if balanceFactor([]int{0, 0}) != 0 {
		t.Error("zero counts")
	}
	if bf := balanceFactor([]int{10, 10, 10}); bf != 1 {
		t.Errorf("perfect balance = %f", bf)
	}
	if bf := balanceFactor([]int{30, 0, 0}); bf != 3 {
		t.Errorf("worst balance = %f", bf)
	}
}

func TestPruningRate(t *testing.T) {
	if pruningRate(2, 8) != 0.75 {
		t.Error("pruningRate(2,8)")
	}
	if pruningRate(8, 8) != 0 {
		t.Error("no pruning")
	}
	if pruningRate(0, 0) != 0 {
		t.Error("degenerate")
	}
}

func TestConstructorClamping(t *testing.T) {
	if NewHash(0).Shards() != 1 {
		t.Error("hash clamp")
	}
	if NewGrid(geo.NewGrid(worldBox, 4, 4), -1).Shards() != 1 {
		t.Error("grid clamp")
	}
	if NewHilbert(worldBox, 4, 0).Shards() != 1 {
		t.Error("hilbert clamp")
	}
	tp := NewTemporal(100, 100, 0)
	if tp.Shards() != 1 || tp.ToTS <= tp.FromTS {
		t.Error("temporal clamp")
	}
}

func TestDeterministicAssignment(t *testing.T) {
	for _, p := range testPartitioners(6) {
		pt := geo.Pt(25.3, 37.1)
		if p.Assign("k", pt, 500) != p.Assign("k", pt, 500) {
			t.Errorf("%s: assignment not deterministic", p.Name())
		}
	}
}

// balanceFactor summarises load balance: max shard load over mean load
// (1.0 = perfect). Empty counts return 0.
func balanceFactor(counts []int) float64 {
	if len(counts) == 0 {
		return 0
	}
	var sum, max int
	for _, c := range counts {
		sum += c
		if c > max {
			max = c
		}
	}
	if sum == 0 {
		return 0
	}
	mean := float64(sum) / float64(len(counts))
	return float64(max) / mean
}

// pruningRate is the fraction of shards skipped for a query: 1 - visited/n.
func pruningRate(visited, n int) float64 {
	if n == 0 {
		return 0
	}
	return 1 - float64(visited)/float64(n)
}

func BenchmarkHilbertAssign(b *testing.B) {
	p := NewHilbert(worldBox, 7, 8)
	for i := 0; i < b.N; i++ {
		p.Assign("k", geo.Pt(23.5+float64(i%100)*0.01, 37.5), int64(i))
	}
}
