package query

import (
	"fmt"
	"testing"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/partition"
	"github.com/datacron-project/datacron/internal/rdf"
	"github.com/datacron-project/datacron/internal/store"
)

// joinWorld holds 60 subjects in two shards, each written twice: once
// before a seal and once after, so every subject's triples span a sealed
// segment and the head. Every subject is typed ex:C and has 0–3 values of
// ex:p per generation, some repeated across the generations; one in ten has
// an ex:rare value.
func joinWorld() *store.Sharded {
	s := store.NewSharded(partition.NewHash(2), worldBox)
	for gen := 0; gen < 2; gen++ {
		for i := 0; i < 60; i++ {
			node := exIRI("s%d", i)
			frag := []onto.TripleT{{S: node, P: exIRI("type"), O: exIRI("C")}}
			for k := 0; k < (i+gen)%4; k++ {
				frag = append(frag, onto.TripleT{S: node, P: exIRI("p"), O: exIRI("o%d", (i+k+gen)%5)})
			}
			if i%10 == 0 {
				frag = append(frag, onto.TripleT{S: node, P: exIRI("rare"), O: rdf.NewLong(int64(i + gen))})
			}
			s.AddAnchored(node.Value, geo.Pt(25, 37), int64(gen*100+i), node, frag)
		}
		if gen == 0 {
			s.Maintain(store.TierPolicy{}, true)
		}
	}
	return s
}

// TestJoinBranchesMatchSpecification holds both ways a join step runs to
// the specification: the sort-merge over the predicate's runs when they are
// no longer than a probe per row and tier, and the probe per row otherwise.
// The subjects have several values of the joined predicate, spread over a
// sealed segment and the head; the object is unbound or a constant; and the
// row counts fall on each side of the cost rule.
func TestJoinBranchesMatchSpecification(t *testing.T) {
	s := joinWorld()
	for _, tc := range []struct {
		src          string
		merge, probe bool
	}{
		// ≈ 30 rows a shard, ≈ 45 ex:p triples: at most rows × tiers.
		{`SELECT ?s ?o WHERE { ?s <http://ex/type> <http://ex/C> . ?s <http://ex/p> ?o . }`, true, false},
		{`SELECT COUNT(?o) WHERE { ?s <http://ex/type> <http://ex/C> . ?s <http://ex/p> ?o . }`, true, false},
		// ≈ 6 rows a shard: ex:p's runs are longer than a probe per row and
		// tier, its (p, o1) runs are not.
		{`SELECT ?s ?o WHERE { ?s <http://ex/rare> ?r . ?s <http://ex/p> ?o . }`, false, true},
		{`SELECT ?s WHERE { ?s <http://ex/rare> ?r . ?s <http://ex/p> <http://ex/o1> . }`, true, false},
		// The smaller (p, o3) run is scanned first; the ex:C runs are longer
		// than a probe per row and tier from there.
		{`SELECT ?s WHERE { ?s <http://ex/type> <http://ex/C> . ?s <http://ex/p> <http://ex/o3> . }`, false, true},
		// 30 rows merge with ex:rare down to 6, which probe ex:p.
		{`SELECT ?s ?r ?o WHERE { ?s <http://ex/type> <http://ex/C> . ?s <http://ex/p> ?o . ?s <http://ex/rare> ?r . }`, true, true},
	} {
		res := runBoth(t, s, tc.src)
		if len(res.Rows) == 0 {
			t.Errorf("%s: no rows, nothing compared", tc.src)
		}
		if j := joinsRun(t, res); (j.merge > 0) != tc.merge || (j.probe > 0) != tc.probe {
			t.Errorf("%s: ran %d merge and %d probe joins, want merge %v, probe %v", tc.src, j.merge, j.probe, tc.merge, tc.probe)
		}
	}
}

// TestJoinsStayInsideOneShard pins where a join stops today: inside the
// shard holding the fragment it starts from (ROADMAP item 1, open half).
// Two positions of one vessel, stored in different shards by the daemon's
// Hilbert partitioner, are two nodes sharing dat:ofMovingObject, yet the
// self-join pairs each node only with itself. Item 1 flips the expected
// answer to all four pairs.
func TestJoinsStayInsideOneShard(t *testing.T) {
	part := partition.NewHilbert(worldBox, 7, 2)
	s := store.NewSharded(part, worldBox)
	s.AddEntity(model.Entity{ID: "V0", Domain: model.Maritime, Name: "SHIP 0"})
	shards := map[int]bool{}
	for i, pt := range []geo.Point{geo.Pt(worldBox.MinLon+0.5, worldBox.MinLat+0.5), geo.Pt(worldBox.MaxLon-0.5, worldBox.MinLat+0.5)} {
		p := model.Position{EntityID: "V0", TS: int64(i+1) * 1000, Pt: pt, SpeedMS: 3, Domain: model.Maritime}
		shards[part.Assign(onto.NodeIRI(p.EntityID, p.TS).Value, p.Pt, p.TS)] = true
		if err := s.AddPositionRecord(p); err != nil {
			t.Fatal(err)
		}
	}
	if len(shards) != 2 {
		t.Fatal("both positions landed in one shard: the fixture crosses no shard boundary")
	}
	res, err := NewEngine(s).Execute(`SELECT ?a ?b WHERE { ?a dat:ofMovingObject ?v . ?b dat:ofMovingObject ?v . }`)
	if err != nil {
		t.Fatal(err)
	}
	var pairs []string
	for _, row := range res.Rows {
		pairs = append(pairs, fmt.Sprintf("%s-%s", row[0].Value, row[1].Value))
		if row[0] != row[1] {
			t.Errorf("a join crossed shards: %v — if item 1 landed, expect all four pairs here", row)
		}
	}
	if len(res.Rows) != 2 {
		t.Fatalf("%d pairs %v, want each node with itself only (2)", len(res.Rows), pairs)
	}
}
