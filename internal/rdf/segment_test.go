package rdf

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// randomTriples builds a reproducible triple soup with repeated subjects,
// predicates and objects so every access path has multi-element ranges.
func randomTriples(n int, seed int64) []Triple {
	rng := rand.New(rand.NewSource(seed))
	out := make([]Triple, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, Triple{
			S: ID(rng.Intn(50) + 1),
			P: ID(rng.Intn(8) + 1),
			O: ID(rng.Intn(80) + 1),
		})
	}
	return out
}

func collect(g Graph, s, p, o ID) []Triple {
	var out []Triple
	out = slices.AppendSeq(out, Match(g, s, p, o))
	slices.SortFunc(out, cmpSPO)
	return out
}

// chunkedHead inserts triples into a fresh head in batches of up to 64, so
// it holds several runs.
func chunkedHead(dict *Dictionary, triples []Triple) *Head {
	h := NewHead(dict)
	for lo := 0; lo < len(triples); lo += 64 {
		h.Insert(slices.Clone(triples[lo:min(lo+64, len(triples))]))
	}
	return h
}

// TestSegmentFindParity checks every bound-slot combination against a
// many-run head over the same triples.
func TestSegmentFindParity(t *testing.T) {
	dict := NewDictionary()
	triples := randomTriples(3000, 7)
	st := chunkedHead(dict, triples)
	seg := NewSegment(dict, triples)
	if seg.Len() != st.Len() {
		t.Fatalf("segment len %d, store len %d", seg.Len(), st.Len())
	}
	w := ID(Wildcard)
	patterns := [][3]ID{
		{w, w, w},
		{5, w, w}, {w, 3, w}, {w, w, 9},
		{5, 3, w}, {5, w, 9}, {w, 3, 9},
		{5, 3, 9},
		{51, w, w}, {w, 9, w}, {w, w, 81}, // out-of-range ids match nothing
	}
	for _, pat := range patterns {
		a := collect(st, pat[0], pat[1], pat[2])
		b := collect(seg, pat[0], pat[1], pat[2])
		if len(a) != len(b) {
			t.Fatalf("pattern %v: store %d, segment %d triples", pat, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("pattern %v: triple %d differs: %v vs %v", pat, i, a[i], b[i])
			}
		}
	}
	// Exhaustive single-subject / single-predicate / single-object parity.
	for id := ID(1); id <= 80; id++ {
		for _, pat := range [][3]ID{{id, w, w}, {w, id, w}, {w, w, id}} {
			a := collect(st, pat[0], pat[1], pat[2])
			b := collect(seg, pat[0], pat[1], pat[2])
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("pattern %v: parity broken", pat)
			}
		}
	}
}

// TestGallopFindsFirstPast holds the galloping run end to the first index
// past the run, for every start, every run length and both array ends.
func TestGallopFindsFirstPast(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for lo := 0; lo <= n; lo++ {
			for first := lo; first <= n; first++ {
				if got := gallop(lo, n, func(i int) bool { return i >= first }); got != first {
					t.Fatalf("gallop(%d, %d) with first past %d = %d", lo, n, first, got)
				}
			}
		}
	}
}

// TestSegmentNumericRange checks the value-sorted column against a brute
// force over the triple array: same triples for random [lo, hi] ranges,
// boundary values included, non-numeric objects never surfaced, and
// NumericCount counts them.
func TestSegmentNumericRange(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	dict := NewDictionary()
	enc := func(t Term) ID { id, _ := dict.Encode(t); return id }
	// Interleave numeric literals (some shared across triples), non-numeric
	// literals, IRIs, and a numeric-looking plain string.
	var triples []Triple
	numericO := map[ID]float64{}
	for i := 0; i < 4000; i++ {
		s := enc(NewIRI(fmt.Sprintf("e:s%d", rng.Intn(200))))
		p := enc(NewIRI(fmt.Sprintf("e:p%d", rng.Intn(6))))
		var o ID
		switch rng.Intn(4) {
		case 0:
			v := float64(rng.Intn(100)) / 4
			o = enc(NewDouble(v))
			numericO[o] = v
		case 1:
			v := int64(rng.Intn(1000))
			o = enc(NewLong(v))
			numericO[o] = float64(v)
		case 2:
			o = enc(NewLiteral(fmt.Sprintf("name-%d", rng.Intn(50))))
		default:
			o = enc(NewIRI(fmt.Sprintf("e:o%d", rng.Intn(40))))
		}
		triples = append(triples, Triple{s, p, o})
	}
	seg := NewSegment(dict, triples)

	brute := func(p ID, lo, hi float64) map[Triple]bool {
		out := map[Triple]bool{}
		for _, tr := range seg.Triples() {
			v, ok := numericO[tr.O]
			if tr.P == p && ok && v >= lo && v <= hi {
				out[tr] = true
			}
		}
		return out
	}
	for trial := 0; trial < 200; trial++ {
		p := enc(NewIRI(fmt.Sprintf("e:p%d", rng.Intn(7)))) // p6 has no triples
		lo := float64(rng.Intn(1100)) - 50
		hi := lo + float64(rng.Intn(300))
		if trial%10 == 0 {
			lo, hi = 25, 25 // exact boundary hit on shared values
		}
		want := brute(p, lo, hi)
		got := map[Triple]bool{}
		prev := math.Inf(-1)
		seg.NumericRun(p, lo, hi).each(func(tr Triple) bool {
			if got[tr] {
				t.Fatalf("trial %d: duplicate triple %v", trial, tr)
			}
			got[tr] = true
			if v := numericO[tr.O]; v < prev {
				t.Fatalf("trial %d: values not ascending", trial)
			} else {
				prev = v
			}
			return true
		})
		if len(got) != len(want) || seg.NumericCount(p, lo, hi) != len(want) {
			t.Fatalf("trial %d: p=%d [%g,%g]: got %d triples (counted %d), want %d", trial, p, lo, hi, len(got), seg.NumericCount(p, lo, hi), len(want))
		}
		for tr := range want {
			if !got[tr] {
				t.Fatalf("trial %d: missing %v", trial, tr)
			}
		}
	}
	// Early stop.
	n := 0
	seg.NumericRun(enc(NewIRI("e:p0")), math.Inf(-1), math.Inf(1)).each(func(Triple) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestSegmentEarlyStop(t *testing.T) {
	dict := NewDictionary()
	seg := NewSegment(dict, randomTriples(500, 3))
	n := 0
	for range Match(seg, Wildcard, Wildcard, Wildcard) {
		if n++; n == 10 {
			break
		}
	}
	if n != 10 {
		t.Errorf("early stop visited %d", n)
	}
}

func TestSegmentPredCard(t *testing.T) {
	dict := NewDictionary()
	triples := randomTriples(2000, 11)
	st := chunkedHead(dict, triples)
	seg := NewSegment(dict, triples)
	for p := ID(1); p <= 8; p++ {
		if seg.PredCard(p, Wildcard) != st.PredCard(p, Wildcard) {
			t.Errorf("pred %d: segment card %d, store card %d", p, seg.PredCard(p, Wildcard), st.PredCard(p, Wildcard))
		}
	}
}

// TestViewMergesParts checks the merged view over a head and two segments
// behaves like one head holding the union.
func TestViewMergesParts(t *testing.T) {
	dict := NewDictionary()
	all := randomTriples(1500, 13)
	union := chunkedHead(dict, all)
	segA := NewSegment(dict, all[:500])
	segB := NewSegment(dict, all[500:1000])
	head := chunkedHead(dict, all[1000:])
	v := NewView(dict, head, segA, segB)

	// The union dedups; the view may see a triple in two parts. Compare as
	// sets.
	seen := map[Triple]bool{}
	for tr := range Match(v, Wildcard, Wildcard, Wildcard) {
		seen[tr] = true
	}
	if len(seen) != union.Len() {
		t.Fatalf("view distinct triples %d, union %d", len(seen), union.Len())
	}
	for tr := range Match(union, Wildcard, Wildcard, Wildcard) {
		if !seen[tr] {
			t.Fatalf("union triple %v missing from view", tr)
		}
	}
	// Early stop crosses part boundaries.
	n := 0
	for range Match(v, Wildcard, Wildcard, Wildcard) {
		if n++; n == 600 { // beyond segA's 500
			break
		}
	}
	if n != 600 {
		t.Errorf("early stop across parts visited %d", n)
	}
	// PredCard sums parts.
	for p := ID(1); p <= 8; p++ {
		want := head.PredCard(p, Wildcard) + segA.PredCard(p, Wildcard) + segB.PredCard(p, Wildcard)
		if v.PredCard(p, Wildcard) != want {
			t.Errorf("view PredCard(%d) = %d, want %d", p, v.PredCard(p, Wildcard), want)
		}
	}
}

// TestStoreHasIDAndSortedLists: a head filled one triple at a time, out of
// order and with duplicates, holds each triple once, answers a fully bound
// probe exactly and lists a subject's objects in order within each run.
func TestStoreHasIDAndSortedLists(t *testing.T) {
	st := NewHead(nil)
	for _, o := range []ID{9, 3, 7, 3, 1, 9, 5} {
		st.Insert([]Triple{{1, 2, o}})
	}
	has := func(s, p, o ID) bool {
		n := 0
		for range Match(st, s, p, o) {
			n++
		}
		return n == 1
	}
	if st.Len() != 5 {
		t.Fatalf("len = %d, want 5 (dups collapsed)", st.Len())
	}
	for _, r := range st.runs {
		var got []ID
		for t := range Match(r, 1, 2, Wildcard) {
			got = append(got, t.O)
		}
		if !slices.IsSorted(got) {
			t.Errorf("objects not sorted: %v", got)
		}
	}
	for _, o := range []ID{1, 3, 5, 7, 9} {
		if !has(1, 2, o) {
			t.Errorf("HasID(1,2,%d) = false", o)
		}
	}
	for _, o := range []ID{2, 4, 10} {
		if has(1, 2, o) {
			t.Errorf("HasID(1,2,%d) = true", o)
		}
	}
	if st.PredCard(2, Wildcard) != 5 || st.PredCard(3, Wildcard) != 0 {
		t.Errorf("PredCard = %d/%d", st.PredCard(2, Wildcard), st.PredCard(3, Wildcard))
	}
}

// TestRunsMatchSet holds the runs every Graph hands out, read in place, to
// the naive set: a head of several runs, a sealed segment, and a view over a
// head and a segment splitting the triples between them, for every pattern
// shape probed from every triple and from ids nothing holds. The runs are
// never empty and yield the triples in Match's order.
func TestRunsMatchSet(t *testing.T) {
	dict := NewDictionary()
	triples := randomTriples(2000, 11)
	ns := naiveSet{}
	for _, tr := range triples {
		ns[tr] = true
	}
	half := len(triples) / 2
	graphs := map[string]Graph{
		"head":    chunkedHead(dict, triples),
		"segment": NewSegment(dict, triples),
		"view":    NewView(dict, chunkedHead(dict, triples[:half]), NewSegment(dict, triples[half:])),
	}
	probes := append(slices.Clone(triples[:300]), Triple{S: 99, P: 99, O: 99})
	for name, g := range graphs {
		var runs []Run
		for _, tr := range probes {
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
				for _, r := range g.Runs(s, p, o, runs[:0]) {
					if r.Len() == 0 {
						t.Fatalf("%s: Runs(%d, %d, %d) handed out an empty run", name, s, p, o)
					}
					for i := range r.Len() {
						if tr := r.At(i); r.Keeps(tr) {
							got = append(got, tr)
						}
					}
				}
				var found []Triple
				found = slices.AppendSeq(found, Match(g, s, p, o))
				if !slices.Equal(got, found) {
					t.Fatalf("%s: runs of (%d, %d, %d) yield %v, Match %v", name, s, p, o, got, found)
				}
				slices.SortFunc(got, cmpSPO)
				// The view's parts split the triples with duplicates: one
				// triple can be in both.
				if want := ns.find(s, p, o); !slices.Equal(slices.Compact(got), want) {
					t.Fatalf("%s: runs of (%d, %d, %d) yield %v, want %v", name, s, p, o, got, want)
				}
			}
		}
	}
}
