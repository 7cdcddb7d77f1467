package rdf

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"testing"
)

// naiveSet is the specification a Head is held to: a set of triples, and a
// pattern match as a filter over all of them.
type naiveSet map[Triple]bool

func (ns naiveSet) find(s, p, o ID) []Triple {
	var out []Triple
	for t := range ns {
		if (s == Wildcard || t.S == s) && (p == Wildcard || t.P == p) && (o == Wildcard || t.O == o) {
			out = append(out, t)
		}
	}
	slices.SortFunc(out, cmpSPO)
	return out
}

func (ns naiveSet) predCard(p, o ID) int { return len(ns.find(Wildcard, p, o)) }

// checkRuns holds h's size to ns and its runs to the stated cap.
func checkRuns(t *testing.T, h *Head, ns naiveSet) {
	t.Helper()
	if h.Len() != len(ns) {
		t.Fatalf("Len = %d, the set holds %d", h.Len(), len(ns))
	}
	if cap := bits.Len(uint(h.Len())); len(h.runs) > cap {
		t.Fatalf("%d runs over %d triples, cap %d", len(h.runs), h.Len(), cap)
	}
	for k := 1; k < len(h.runs); k++ {
		if older, newer := h.runs[k-1].Len(), h.runs[k].Len(); older <= mergeRatio*newer {
			t.Fatalf("run %d holds %d triples, not more than %d× run %d's %d", k-1, older, mergeRatio, k, newer)
		}
	}
}

// checkHead holds h to ns: checkRuns, PredCard and every pattern shape
// probed from every triple (and from ids nothing holds).
func checkHead(t *testing.T, h *Head, ns naiveSet, absent ID) {
	t.Helper()
	checkRuns(t, h, ns)
	probes := []Triple{{absent, absent, absent}}
	for tr := range ns {
		probes = append(probes, tr)
	}
	for _, tr := range probes {
		for _, o := range []ID{Wildcard, tr.O} {
			if got, want := h.PredCard(tr.P, o), ns.predCard(tr.P, o); got != want {
				t.Fatalf("PredCard(%d, %d) = %d, want %d", tr.P, o, got, want)
			}
		}
		for shape := 0; shape < 8; shape++ {
			s, p, o := Wildcard, Wildcard, Wildcard
			if shape&1 != 0 {
				s = tr.S
			}
			if shape&2 != 0 {
				p = tr.P
			}
			if shape&4 != 0 {
				o = tr.O
			}
			var got []Triple
			got = slices.AppendSeq(got, Match(h, s, p, o))
			slices.SortFunc(got, cmpSPO)
			if want := ns.find(s, p, o); !slices.Equal(got, want) {
				t.Fatalf("Match(%d, %d, %d) = %v, want %v", s, p, o, got, want)
			}
		}
	}
}

// FuzzHeadMatchesSet drives a sequence of inserts from the fuzz bytes and
// holds the head to a naive set: its size and runs after each insert, every
// pattern at the end. A batch is a size byte and then
// three bytes a triple. Subjects come from a small pool of old ids, or — a
// subject byte ≥ 128 — are the newest fresh id or a newly minted one above
// every id so far, the way position fragments arrive; predicates and objects
// come from small pools, so duplicates recur within a batch, across batches
// and against older runs.
func FuzzHeadMatchesSet(f *testing.F) {
	f.Add([]byte{3, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 1, 1, 1, 200, 1, 2, 130, 2, 3})
	f.Add([]byte{8, 200, 1, 1, 130, 2, 2, 130, 3, 3, 130, 4, 4, 5, 1, 1, 5, 1, 2, 200, 1, 1, 130, 1, 2,
		8, 200, 1, 1, 130, 2, 2, 130, 3, 3, 130, 4, 4, 5, 1, 1, 5, 1, 2, 200, 1, 1, 130, 1, 2})
	f.Add([]byte{15, 0xff, 0xff, 0xff, 0xff, 0xfe, 0xfd, 0x80, 0x81, 0x82, 0x10, 0x20, 0x30, 7, 7, 7})
	f.Fuzz(func(t *testing.T, data []byte) {
		h, ns := NewHead(nil), naiveSet{}
		fresh := ID(64) // old subjects are 1..32, fresh ones count up from here
		for len(data) > 0 {
			size := int(data[0]%16) + 1
			data = data[1:]
			var batch []Triple
			for ; size > 0 && len(data) >= 3; size-- {
				s := ID(data[0]%32 + 1)
				if data[0] >= 192 {
					fresh++
				}
				if data[0] >= 128 {
					s = fresh
				}
				batch = append(batch, Triple{S: s, P: ID(data[1]%4 + 1), O: ID(data[2]%8 + 1)})
				data = data[3:]
			}
			for _, tr := range batch {
				ns[tr] = true
			}
			h.Insert(batch)
			checkRuns(t, h, ns)
		}
		checkHead(t, h, ns, fresh+1)
	})
}

// TestHeadFindStopsAcrossRuns: fn returning false ends the walk in the run
// it is in, not just that run's share.
func TestHeadFindStopsAcrossRuns(t *testing.T) {
	h := NewHead(nil)
	for i := 0; i < 40; i++ {
		h.Insert([]Triple{{S: ID(2*i + 1), P: 1, O: 1}, {S: ID(2*i + 2), P: 1, O: 2}})
	}
	if len(h.runs) < 2 {
		t.Fatalf("%d runs: the walk crosses none", len(h.runs))
	}
	for _, pat := range [][3]ID{{0, 0, 0}, {0, 1, 0}, {0, 0, 2}} {
		n := 0
		for range Match(h, pat[0], pat[1], pat[2]) {
			if n++; n == 30 {
				break
			}
		}
		if n != 30 {
			t.Errorf("pattern %v: early stop visited %d", pat, n)
		}
	}
}

// TestHeadSealIsOneSegment: Seal merges every run into a segment with the
// head's contents and numeric columns.
func TestHeadSealIsOneSegment(t *testing.T) {
	h := NewHead(nil)
	ns := naiveSet{}
	for i := 0; i < 50; i++ {
		batch := []TermTriple{{S: NewIRI(fmt.Sprintf("http://x/n%d", i)), P: NewIRI("http://x/v"), O: NewLong(int64(i))}}
		if err := h.AddBatch(batch); err != nil {
			t.Fatal(err)
		}
	}
	for t := range Match(h, Wildcard, Wildcard, Wildcard) {
		ns[t] = true
	}
	seg := h.Seal()
	if seg.Len() != len(ns) {
		t.Fatalf("sealed %d triples, head held %d", seg.Len(), len(ns))
	}
	for _, tr := range seg.Triples() {
		if !ns[tr] {
			t.Fatalf("sealed %v, which the head did not hold", tr)
		}
	}
	p, _ := h.Dict().Lookup(NewIRI("http://x/v"))
	if n := seg.NumericRun(p, math.Inf(-1), math.Inf(1)).Len(); n != 50 {
		t.Errorf("the sealed segment's numeric column holds %d, want 50", n)
	}
	if n := seg.NumericRun(p, 10, 19).Len(); n != 10 {
		t.Errorf("NumericRun over the sealed head found %d, want 10", n)
	}
}

// TestDictionaryFailsClosed: past the last id the dictionary refuses new
// terms instead of wrapping, a refused batch leaves the head as it was, and
// terms already known still encode.
func TestDictionaryFailsClosed(t *testing.T) {
	defer func(old ID) { maxID = old }(maxID)
	maxID = 4
	h := NewHead(nil)
	a, b := NewIRI("http://x/a"), NewIRI("http://x/b")
	if err := h.AddBatch([]TermTriple{{S: a, P: b, O: NewLong(1)}}); err != nil {
		t.Fatal(err)
	}
	if h.Dict().Full() {
		t.Fatal("full after 3 of 4 ids")
	}
	err := h.AddBatch([]TermTriple{{S: a, P: b, O: NewLong(2)}, {S: a, P: b, O: NewLong(3)}})
	if !errors.Is(err, ErrDictionaryFull) {
		t.Fatalf("AddBatch past the last id: %v, want ErrDictionaryFull", err)
	}
	if h.Len() != 1 || !h.Dict().Full() {
		t.Fatalf("after the refusal: Len %d, Full %v; want 1, true", h.Len(), h.Dict().Full())
	}
	if _, err := h.Dict().Encode(NewLong(9)); !errors.Is(err, ErrDictionaryFull) {
		t.Fatalf("Encode past the last id: %v", err)
	}
	if id, err := h.Dict().Encode(a); err != nil || id != 1 {
		t.Fatalf("Encode of a known term: %d, %v", id, err)
	}
	if err := h.AddBatch([]TermTriple{{S: b, P: a, O: NewLong(2)}}); err != nil {
		t.Fatalf("a batch of known terms: %v", err)
	}
	if h.Len() != 2 || h.Dict().Len() != 4 {
		t.Fatalf("Len %d, %d terms; want 2, 4", h.Len(), h.Dict().Len())
	}
}
