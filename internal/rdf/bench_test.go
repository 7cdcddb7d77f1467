package rdf

import (
	"fmt"
	"testing"
)

// BenchmarkAddHighDegreePredicate inserts one triple per op, every triple
// sharing one (predicate, object) pair, so the POS order holds a single
// high-degree block that each merge carries along: the guard against an
// insert whose cost grows with that block.
func BenchmarkAddHighDegreePredicate(b *testing.B) {
	const typePred, cls = 1, 2
	b.ReportAllocs()
	st := NewHead(nil)
	for i := 0; i < b.N; i++ {
		st.Insert([]Triple{{ID(i + 3), typePred, cls}})
	}
}

// BenchmarkAddHighDegreeRandomOrder is the same shape with random-order
// subject IDs: no run's subject range can be skipped on a duplicate check.
func BenchmarkAddHighDegreeRandomOrder(b *testing.B) {
	const typePred, cls = 1, 2
	b.ReportAllocs()
	st := NewHead(nil)
	for i := 0; i < b.N; i++ {
		// LCG-scrambled ids: deterministic, collision-free enough.
		id := ID(uint32(i)*2654435761 + 3)
		st.Insert([]Triple{{id, typePred, cls}})
	}
}

// BenchmarkSegmentFind measures a subject probe on the sealed tier's one
// run against a many-run head holding the same data.
func BenchmarkSegmentFind(b *testing.B) {
	dict := NewDictionary()
	triples := randomTriples(100_000, 42)
	st := chunkedHead(dict, triples)
	seg := NewSegment(dict, triples)
	for _, bc := range []struct {
		name string
		g    Graph
	}{{"head", st}, {"segment", seg}} {
		b.Run(bc.name, func(b *testing.B) {
			n := 0
			for i := 0; i < b.N; i++ {
				for range Match(bc.g, ID(i%50+1), Wildcard, Wildcard) {
					n++
				}
			}
		})
	}
}

// BenchmarkSeal measures sealing cost per triple (runs under the ingest
// barrier in production, so it bounds the pause a seal can introduce).
func BenchmarkSeal(b *testing.B) {
	dict := NewDictionary()
	triples := randomTriples(50_000, 9)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seg := NewSegment(dict, triples)
		if seg.Len() == 0 {
			b.Fatal("empty segment")
		}
	}
	b.SetBytes(int64(len(triples)))
}

var sinkLen int

// BenchmarkStoreAddBatch measures the head insert on a position-shaped
// stream: 64 nine-triple star fragments per op (one ingest worker's batch
// drain), with the shared objects real reports carry — one type class, a
// recurring entity IRI, a small status vocabulary — so the POS order holds
// the high-degree blocks every merge carries along. The add arm inserts the
// op's fragments one AddBatch each (AddAnchored's shape: a run per
// fragment), the batch arm as one 576-triple AddBatch (a flush's shape).
func BenchmarkStoreAddBatch(b *testing.B) {
	const reports, starSize = 64, 9
	classNode := NewIRI("http://b/class/Node")
	predType := NewIRI("http://b/p/type")
	predOf := NewIRI("http://b/p/ofObject")
	predStatus := NewIRI("http://b/p/status")
	var preds [6]Term
	for j := range preds {
		preds[j] = NewIRI(fmt.Sprintf("http://b/p/%d", j))
	}
	var statuses [5]Term
	for j := range statuses {
		statuses[j] = NewLiteral(fmt.Sprintf("Status%d", j))
	}
	makeBatch := func(i int, dst []TermTriple) []TermTriple {
		for r := 0; r < reports; r++ {
			n := i*reports + r
			node := NewIRI(fmt.Sprintf("http://b/n/%d", n))
			dst = append(dst,
				TermTriple{S: node, P: predType, O: classNode},
				TermTriple{S: node, P: predOf, O: NewIRI(fmt.Sprintf("http://b/e/%d", n%64))},
				TermTriple{S: node, P: predStatus, O: statuses[n%len(statuses)]},
			)
			for j := range preds {
				dst = append(dst, TermTriple{S: node, P: preds[j], O: NewLong(int64(n*starSize + j))})
			}
		}
		return dst
	}
	// Batches are pre-generated outside the timer so the measurement is the
	// insert path alone, not term construction. Terms are pre-encoded in
	// strided order so insertion order is non-monotonic in dictionary-ID
	// space — the shape real streams produce (recurring entity IRIs,
	// statuses and predicates interleave with fresh nodes).
	run := func(b *testing.B, insert func(st *Head, batch []TermTriple)) {
		batches := make([][]TermTriple, b.N)
		for i := range batches {
			batches[i] = makeBatch(i, nil)
		}
		dict := NewDictionary()
		const stride = 7
		for s := 0; s < stride; s++ {
			for i := s; i < len(batches); i += stride {
				dict.EncodeBatch(batches[i], nil)
			}
		}
		st := NewHead(dict)
		b.ReportAllocs()
		b.ResetTimer()
		for _, batch := range batches {
			insert(st, batch)
		}
		sinkLen = st.Len()
	}
	b.Run("add", func(b *testing.B) {
		run(b, func(st *Head, batch []TermTriple) {
			for lo := 0; lo < len(batch); lo += starSize {
				st.AddBatch(batch[lo : lo+starSize])
			}
		})
	})
	b.Run("batch", func(b *testing.B) {
		run(b, func(st *Head, batch []TermTriple) { st.AddBatch(batch) })
	})
}

// BenchmarkStoreAddPositionShaped inserts one encoded nine-triple star
// fragment per op, the shape every position report writes.
func BenchmarkStoreAddPositionShaped(b *testing.B) {
	st := NewHead(nil)
	b.ReportAllocs()
	frag := make([]Triple, 9)
	for i := 0; i < b.N; i++ {
		node := ID(i*10 + 100)
		for j := range frag {
			frag[j] = Triple{node, ID(j + 1), ID(i*10 + 101 + j)}
		}
		st.Insert(frag)
	}
	sinkLen = st.Len()
}
