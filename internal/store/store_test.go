package store

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/partition"
	"github.com/datacron-project/datacron/internal/rdf"
	"github.com/datacron-project/datacron/internal/synth"
)

var box = geo.NewBBox(22, 34, 30, 42)

func posAt(id string, lon, lat float64, ts int64) model.Position {
	return model.Position{EntityID: id, TS: ts, Pt: geo.Pt(lon, lat), SpeedMS: 5, CourseDeg: 90}
}

func TestAddAndRangeQuery(t *testing.T) {
	for _, part := range []partition.Partitioner{
		partition.NewHash(4),
		partition.NewGrid(geo.NewGrid(box, 16, 16), 4),
		partition.NewHilbert(box, 6, 4),
		partition.NewTemporal(0, 1_000_000, 4),
	} {
		part := part
		t.Run(part.Name(), func(t *testing.T) {
			s := NewSharded(part, box)
			// 10x10 grid of positions over the world, ts = index.
			n := 0
			for i := 0; i < 10; i++ {
				for j := 0; j < 10; j++ {
					lon := 22.5 + float64(i)*0.7
					lat := 34.5 + float64(j)*0.7
					s.AddPositionRecord(posAt(fmt.Sprintf("V%d", n), lon, lat, int64(n*1000)))
					n++
				}
			}
			// Query a sub-box over all time.
			qbox := geo.NewBBox(24, 36, 26, 38)
			results, visited, _ := s.RangeQueryN(qbox, 0, 1_000_000, 0)
			if visited == 0 || visited > 4 {
				t.Errorf("visited = %d", visited)
			}
			// Verify exactly the right hits by brute force.
			want := 0
			n = 0
			for i := 0; i < 10; i++ {
				for j := 0; j < 10; j++ {
					lon := 22.5 + float64(i)*0.7
					lat := 34.5 + float64(j)*0.7
					if qbox.Contains(geo.Pt(lon, lat)) {
						want++
					}
					n++
				}
			}
			if len(results) != want {
				t.Errorf("hits = %d, want %d", len(results), want)
			}
			for _, r := range results {
				if !qbox.Contains(r.Pt) {
					t.Errorf("false positive at %v", r.Pt)
				}
			}
		})
	}
}

func TestRangeQueryTimeFilter(t *testing.T) {
	s := NewSharded(partition.NewHash(4), box)
	for i := 0; i < 100; i++ {
		s.AddPositionRecord(posAt("V1", 25, 37, int64(i)*1000))
	}
	results, _, _ := s.RangeQueryN(box, 10_000, 19_999, 0)
	if len(results) != 10 {
		t.Errorf("time-filtered hits = %d, want 10", len(results))
	}
	for _, r := range results {
		if r.TS < 10_000 || r.TS > 19_999 {
			t.Errorf("hit outside time range: %d", r.TS)
		}
	}
}

func TestRangeQueryEmptyAndDisjoint(t *testing.T) {
	s := NewSharded(partition.NewHilbert(box, 6, 4), box)
	results, visited, _ := s.RangeQueryN(geo.NewBBox(100, 0, 110, 10), 0, 1, 0)
	if len(results) != 0 {
		t.Error("hits for disjoint box")
	}
	if visited != 0 {
		t.Errorf("visited %d shards for disjoint box", visited)
	}
}

func TestGlobalTriplesReplicated(t *testing.T) {
	s := NewSharded(partition.NewHash(3), box)
	e := model.Entity{ID: "237", Domain: model.Maritime, Name: "TEST SHIP"}
	s.AddEntity(e)
	obj := onto.EntityIRI(e.ID)
	for i := 0; i < s.NumShards(); i++ {
		found := false
		rdf.Find(s.View(i), &obj, &onto.PredName, nil, func(_, _, o rdf.Term) bool {
			found = o.Value == "TEST SHIP"
			return false
		})
		if !found {
			t.Errorf("shard %d missing replicated entity", i)
		}
	}
}

func TestAnchoredTriplesColocated(t *testing.T) {
	s := NewSharded(partition.NewGrid(geo.NewGrid(box, 8, 8), 4), box)
	p := posAt("V9", 25, 37, 12345)
	s.AddPositionRecord(p)
	node := onto.NodeIRI(p.EntityID, p.TS)
	// Exactly one shard has the node's triples.
	holders := 0
	for i := 0; i < s.NumShards(); i++ {
		n := 0
		rdf.Find(s.View(i), &node, nil, nil, func(_, _, _ rdf.Term) bool { n++; return true })
		if n > 0 {
			holders++
			if n < 8 {
				t.Errorf("shard %d holds only %d of the node's triples", i, n)
			}
		}
	}
	if holders != 1 {
		t.Errorf("node triples in %d shards, want exactly 1", holders)
	}
}

func TestShardLoadsAndBalance(t *testing.T) {
	s := NewSharded(partition.NewHash(8), box)
	for i := 0; i < 4000; i++ {
		s.AddPositionRecord(posAt(fmt.Sprintf("V%d", i%200), 22.5+float64(i%70)*0.1, 34.5+float64(i%60)*0.1, int64(i)))
	}
	loads := s.ShardLoads()
	total := 0
	for _, l := range loads {
		total += l
	}
	if total != 4000 {
		t.Errorf("total anchors = %d", total)
	}
	// Balance: the fullest shard holds at most 1.5× the mean load.
	if bf := float64(slices.Max(loads)) * float64(len(loads)) / float64(total); bf > 1.5 {
		t.Errorf("hash balance factor = %f", bf)
	}
}

func TestConcurrentLoad(t *testing.T) {
	s := NewSharded(partition.NewHilbert(box, 6, 4), box)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				s.AddPositionRecord(posAt(fmt.Sprintf("G%d-%d", g, i), 22.5+float64(i%70)*0.1, 34.5+float64(i%60)*0.1, int64(i)))
			}
		}(g)
	}
	wg.Wait()
	results, _, _ := s.RangeQueryN(box, 0, 1<<60, 0)
	if len(results) != 2000 {
		t.Errorf("hits after concurrent load = %d, want 2000", len(results))
	}
}

func TestEachShardParallelAndSubset(t *testing.T) {
	s := NewSharded(partition.NewHash(4), box)
	s.AddEntity(model.Entity{ID: "x", Name: "N"})
	var mu sync.Mutex
	seen := map[int]bool{}
	s.EachShardView([]int{0, 1, 2, 3}, 4, func(i int, st *rdf.View) {
		mu.Lock()
		seen[i] = st.Len() > 0
		mu.Unlock()
	})
	if len(seen) != 4 || !seen[0] || !seen[3] {
		t.Errorf("visited %v, want every shard with its global triples", seen)
	}
	count := 0
	s.EachShardView([]int{1, 3}, 2, func(i int, st *rdf.View) {
		mu.Lock()
		count++
		mu.Unlock()
	})
	if count != 2 {
		t.Errorf("subset visited %d", count)
	}
	// Degenerate parallelism clamps.
	count = 0
	s.EachShardView([]int{0}, 0, func(i int, st *rdf.View) { mu.Lock(); count++; mu.Unlock() })
	if count != 1 {
		t.Error("clamped parallelism broke subset execution")
	}
}

func TestAddEventAnchored(t *testing.T) {
	s := NewSharded(partition.NewGrid(geo.NewGrid(box, 8, 8), 4), box)
	ev := model.Event{Type: "loitering", Entity: "V1", StartTS: 1000, EndTS: 2000, Where: geo.Pt(25, 37)}
	s.AddEvent(ev)
	results, _, _ := s.RangeQueryN(geo.NewBBox(24.9, 36.9, 25.1, 37.1), 0, 10_000, 0)
	if len(results) != 1 {
		t.Fatalf("event anchor hits = %d", len(results))
	}
	term, ok := s.Dict().Decode(results[0].Node)
	if !ok || term != onto.EventIRI("loitering", "V1", 1000) {
		t.Errorf("anchored node = %v", term)
	}
}

func TestLoadScenarioEndToEnd(t *testing.T) {
	sc := synth.GenMaritime(synth.MaritimeConfig{Seed: 2, Vessels: 8, Duration: 30 * time.Minute})
	s := NewSharded(partition.NewHilbert(box, 7, 4), box)
	for _, e := range sc.Entities {
		s.AddEntity(e)
	}
	for _, p := range sc.Positions {
		if err := s.AddPositionRecord(p); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() == 0 {
		t.Fatal("nothing loaded")
	}
	results, _, _ := s.RangeQueryN(sc.Box, 0, 1<<60, 0)
	if len(results) != len(sc.Positions) {
		t.Errorf("anchors = %d, want %d", len(results), len(sc.Positions))
	}
}

// benchPosition is the i-th report of a 500-vessel grid sweep.
func benchPosition(i int) model.Position {
	return model.Position{
		EntityID: fmt.Sprintf("V%d", i%500), TS: int64(i) * 1000,
		Pt:      geo.Pt(22.5+float64(i%700)*0.005, 35.0+float64(i%600)*0.005),
		SpeedMS: 8, CourseDeg: 90,
	}
}

func BenchmarkStoreInsertPosition(b *testing.B) {
	s := NewSharded(partition.NewHilbert(box, 7, 8), box)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.AddPositionRecord(benchPosition(i))
	}
}

func BenchmarkRangeQuery(b *testing.B) {
	s := NewSharded(partition.NewHilbert(box, 7, 8), box)
	for i := 0; i < 50_000; i++ {
		s.AddPositionRecord(benchPosition(i))
	}
	q := geo.NewBBox(24, 36, 24.5, 36.5)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.RangeQueryN(q, 0, 1<<60, 0)
	}
}
