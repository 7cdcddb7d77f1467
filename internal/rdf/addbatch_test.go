package rdf

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
)

// termTriples decodes and canonically sorts a graph's full contents, the
// dictionary-independent form the differential tests compare on.
func termTriples(t *testing.T, g Graph) []TermTriple {
	t.Helper()
	out := make([]TermTriple, 0, g.Len())
	Find(g, nil, nil, nil, func(s, p, o Term) bool {
		out = append(out, TermTriple{S: s, P: p, O: o})
		return true
	})
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.S != b.S {
			return a.S.String() < b.S.String()
		}
		if a.P != b.P {
			return a.P.String() < b.P.String()
		}
		return a.O.String() < b.O.String()
	})
	return out
}

func randomTermTriples(rng *rand.Rand, n int) []TermTriple {
	subjects := make([]Term, rng.Intn(8)+2)
	for i := range subjects {
		subjects[i] = NewIRI(fmt.Sprintf("http://x/s%d", rng.Intn(20)))
	}
	preds := make([]Term, rng.Intn(5)+1)
	for i := range preds {
		preds[i] = NewIRI(fmt.Sprintf("http://x/p%d", rng.Intn(8)))
	}
	out := make([]TermTriple, n)
	for i := range out {
		var o Term
		switch rng.Intn(3) {
		case 0:
			o = NewIRI(fmt.Sprintf("http://x/o%d", rng.Intn(30)))
		case 1:
			o = NewLong(int64(rng.Intn(50)))
		default:
			o = NewDouble(float64(rng.Intn(100)) / 4)
		}
		out[i] = TermTriple{S: subjects[rng.Intn(len(subjects))], P: preds[rng.Intn(len(preds))], O: o}
	}
	return out
}

// assertSameHead requires two heads — each on its own dictionary — to hold
// the same triples: equal contents, Len and PredCard, and equal answers to
// all eight pattern shapes probed from every triple of the stream.
func assertSameHead(t *testing.T, what string, want, got *Head, stream []TermTriple) {
	t.Helper()
	if want.Len() != got.Len() {
		t.Fatalf("%s: Len %d vs %d", what, want.Len(), got.Len())
	}
	a, b := termTriples(t, want), termTriples(t, got)
	if len(a) != len(b) {
		t.Fatalf("%s: %d triples vs %d", what, len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("%s: triple %d: %v vs %v", what, i, a[i], b[i])
		}
	}
	for _, tr := range stream {
		pa, _ := want.Dict().Lookup(tr.P)
		pb, _ := got.Dict().Lookup(tr.P)
		if want.PredCard(pa, Wildcard) != got.PredCard(pb, Wildcard) {
			t.Fatalf("%s: PredCard(%v) %d vs %d", what, tr.P, want.PredCard(pa, Wildcard), got.PredCard(pb, Wildcard))
		}
		for _, probe := range [][3]*Term{
			{nil, nil, nil},
			{&tr.S, nil, nil}, {nil, &tr.P, nil}, {nil, nil, &tr.O},
			{&tr.S, &tr.P, nil}, {nil, &tr.P, &tr.O}, {&tr.S, nil, &tr.O},
			{&tr.S, &tr.P, &tr.O},
		} {
			na, nb := 0, 0
			Find(want, probe[0], probe[1], probe[2], func(_, _, _ Term) bool { na++; return true })
			Find(got, probe[0], probe[1], probe[2], func(_, _, _ Term) bool { nb++; return true })
			if na != nb {
				t.Fatalf("%s: probe %v: %d matches vs %d", what, probe, na, nb)
			}
		}
	}
}

// TestAddBatchDifferential feeds identical random triple streams — heavy
// with duplicates within batches, across batches, and against older runs —
// through one-triple batches, batches of random size and one whole batch,
// and requires identical heads.
func TestAddBatchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 60; round++ {
		triples := randomTermTriples(rng, rng.Intn(200)+1)
		one, chunked, whole := NewHead(nil), NewHead(nil), NewHead(nil)
		for i := range triples {
			one.AddBatch(triples[i : i+1])
		}
		for lo := 0; lo < len(triples); {
			hi := min(lo+rng.Intn(40)+1, len(triples))
			chunked.AddBatch(triples[lo:hi])
			lo = hi
		}
		whole.AddBatch(triples)
		assertSameHead(t, fmt.Sprintf("round %d chunked", round), one, chunked, triples)
		assertSameHead(t, fmt.Sprintf("round %d whole", round), one, whole, triples)
	}
}

// TestAddBatchInterleavedWithAdd mixes multi-triple batches, one-fragment
// batches (AddAnchored's shape) and encoded inserts into the same head and
// checks it against a one-triple-at-a-time twin.
func TestAddBatchInterleavedWithAdd(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	h, twin := NewHead(nil), NewHead(nil)
	var stream []TermTriple
	for round := 0; round < 30; round++ {
		triples := randomTermTriples(rng, rng.Intn(80)+1)
		switch round % 3 {
		case 0:
			h.AddBatch(triples)
		case 1:
			for lo := 0; lo < len(triples); lo += 9 {
				h.AddBatch(triples[lo:min(lo+9, len(triples))])
			}
		default:
			tri, err := h.Dict().EncodeBatch(triples, nil)
			if err != nil {
				t.Fatal(err)
			}
			h.Insert(tri)
		}
		for i := range triples {
			twin.AddBatch(triples[i : i+1])
		}
		stream = append(stream, triples...)
	}
	assertSameHead(t, "interleaved", twin, h, stream)
}

// TestAddBatchEmptyAndAllDup covers the early-out paths.
func TestAddBatchEmptyAndAllDup(t *testing.T) {
	st := NewHead(nil)
	st.AddBatch(nil)
	if st.Len() != 0 {
		t.Fatalf("Len after empty batch = %d", st.Len())
	}
	tr := TermTriple{S: NewIRI("http://x/s"), P: NewIRI("http://x/p"), O: NewLong(1)}
	st.AddBatch([]TermTriple{tr, tr, tr})
	if st.Len() != 1 {
		t.Fatalf("Len after dup-only batch = %d, want 1", st.Len())
	}
	st.AddBatch([]TermTriple{tr})
	if st.Len() != 1 || len(st.runs) != 1 {
		t.Fatalf("Len after re-insert = %d in %d runs, want 1 in 1", st.Len(), len(st.runs))
	}
}
