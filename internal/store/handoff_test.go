package store

import (
	"bytes"
	"strings"
	"testing"

	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/partition"
	"github.com/datacron-project/datacron/internal/rdf"
)

// handoffWorld builds a store holding three entities' fragments spread over
// sealed segments and the head, plus replicated global triples.
func handoffWorld(t *testing.T) *Sharded {
	t.Helper()
	s := NewSharded(partition.NewHash(4), box)
	s.AddGlobal([]onto.TripleT{{S: onto.EntityIRI("e1"), P: onto.PredType, O: onto.ClassVessel}})
	ids := []string{"e1", "e2", "e3"}
	for i := 0; i < 30; i++ {
		id := ids[i%3]
		s.AddPositionRecord(posAt(id, 23+float64(i)*0.1, 35, int64(1000+i)))
	}
	// Seal everything so far, then add a head tail.
	s.Maintain(TierPolicy{SealTriples: 1}, true)
	for i := 30; i < 45; i++ {
		id := ids[i%3]
		s.AddPositionRecord(posAt(id, 23+float64(i)*0.1, 35, int64(1000+i)))
	}
	return s
}

func censusOf(s *Sharded) map[string]int {
	c := map[string]int{}
	s.EachAnchorNode(func(iri string) {
		if e, ok := onto.AnchorEntityID(iri); ok {
			c[e]++
		}
	})
	return c
}

func TestHandoffRoundTripMovesOnlyKeptEntities(t *testing.T) {
	donor := handoffWorld(t)
	var buf bytes.Buffer
	if err := donor.WriteHandoff(&buf); err != nil {
		t.Fatalf("WriteHandoff: %v", err)
	}

	moved := func(iri string) bool {
		e, ok := onto.AnchorEntityID(iri)
		return ok && e == "e2"
	}
	frags, err := ReadHandoff(strings.NewReader(buf.String()), moved)
	if err != nil {
		t.Fatalf("ReadHandoff: %v", err)
	}
	if len(frags) != 15 {
		t.Fatalf("kept %d fragments, want 15 (e2 only)", len(frags))
	}
	for _, f := range frags {
		if len(f.Triples) == 0 {
			t.Fatalf("fragment %s has no triples", f.Node.Value)
		}
		for _, tr := range f.Triples {
			if tr.S != f.Node {
				t.Fatalf("fragment %s carries foreign triple rooted at %s", f.Node.Value, tr.S.Value)
			}
		}
	}

	target := NewSharded(partition.NewHash(4), box)
	installed, skipped := target.InstallHandoff(frags)
	if installed != 15 || skipped != 0 {
		t.Fatalf("install = (%d, %d), want (15, 0)", installed, skipped)
	}
	// Idempotent: a full re-ship installs nothing new.
	installed, skipped = target.InstallHandoff(frags)
	if installed != 0 || skipped != 15 {
		t.Fatalf("re-install = (%d, %d), want (0, 15)", installed, skipped)
	}
	if got := censusOf(target); got["e2"] != 15 || len(got) != 1 {
		t.Fatalf("target census = %v, want e2:15 only", got)
	}

	// Donor drop: e2 gone, e1/e3 untouched, and global triples survive.
	frag, tri := donor.DropAnchored(moved)
	if frag != 15 {
		t.Fatalf("dropped %d fragments, want 15", frag)
	}
	if tri == 0 {
		t.Fatalf("dropped no triples")
	}
	got := censusOf(donor)
	if got["e2"] != 0 || got["e1"] != 15 || got["e3"] != 15 {
		t.Fatalf("donor census after drop = %v", got)
	}
	found := false
	rdf.Find(donor.View(0), &[]rdf.Term{onto.EntityIRI("e1")}[0], nil, nil, func(_, _, _ rdf.Term) bool {
		found = true
		return false
	})
	if !found {
		t.Fatalf("global dimension triples lost by drop")
	}

	// Dropped fragments must be invisible to queries: no e2 semantic nodes
	// remain in any shard view.
	for i := 0; i < donor.NumShards(); i++ {
		rdf.Find(donor.View(i), nil, &onto.PredOfObject, &[]rdf.Term{onto.EntityIRI("e2")}[0], func(s, _, _ rdf.Term) bool {
			t.Fatalf("shard %d still holds e2 fragment %s", i, s.Value)
			return false
		})
	}
}

// Rebuilt segments must take fresh ids: an id names immutable contents
// (snapshot caches hard-link by id), so filtering a segment in place would
// poison every snapshot that references the old file.
func TestDropAnchoredAssignsFreshSegmentIDs(t *testing.T) {
	s := handoffWorld(t)
	before := map[string]bool{}
	for _, name := range s.SegmentFiles() {
		before[name] = true
	}
	s.DropAnchored(func(iri string) bool {
		e, ok := onto.AnchorEntityID(iri)
		return ok && e == "e1"
	})
	for _, name := range s.SegmentFiles() {
		if before[name] {
			t.Fatalf("segment %s kept its id through a rebuild", name)
		}
	}
}
