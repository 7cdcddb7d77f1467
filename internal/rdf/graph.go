package rdf

import "iter"

// Graph is the read interface shared by the Head (mutable head and global
// tiers), the immutable Segment (sealed tier) and the View that merges
// them. The query layer evaluates against Graph, so it is oblivious to how
// a shard tiers its data.
type Graph interface {
	// Runs appends to dst the non-empty index runs holding the triples
	// that match the pattern (Wildcard = any), to be read in place: a run's
	// triples in order, Run.Keeps deciding each. Match walks them.
	Runs(s, p, o ID, dst []Run) []Run
	// Dict returns the dictionary the graph's IDs are encoded against.
	Dict() *Dictionary
	// Len returns the number of triples.
	Len() int
	// PredCard returns the number of triples with predicate p and, unless
	// o is Wildcard, object o (an exact count for Head and Segment, a sum
	// for View) — the statistic the query planner orders patterns by.
	PredCard(p, o ID) int
}

// View is the merged read path over the tiers of one shard: typically
// [global head, mutable head, sealed segments...]. It implements
// Graph by iterating its parts in order. A View holds no locks; the caller
// must guarantee the parts are quiescent or immutable for the View's
// lifetime (the sharded store builds views under the shard read lock).
//
// A View does not deduplicate across parts: the tiering write path keeps
// tiers disjoint, and the consumers that must be canonical anyway
// (row-level set semantics in the query engine, sorted-line dedup in
// WriteNTriples) dedup at their level.
type View struct {
	dict  *Dictionary
	parts []Graph
}

// NewView returns a view over parts sharing dict.
func NewView(dict *Dictionary, parts ...Graph) *View {
	return &View{dict: dict, parts: parts}
}

// Parts returns the underlying graphs, outermost (global) first.
func (v *View) Parts() []Graph { return v.parts }

// Dict implements Graph.
func (v *View) Dict() *Dictionary { return v.dict }

// Len implements Graph: the sum over parts.
func (v *View) Len() int {
	n := 0
	for _, g := range v.parts {
		n += g.Len()
	}
	return n
}

// PredCard implements Graph: the sum over parts.
func (v *View) PredCard(p, o ID) int {
	n := 0
	for _, g := range v.parts {
		n += g.PredCard(p, o)
	}
	return n
}

// Runs implements Graph: the parts' runs, part by part.
func (v *View) Runs(s, p, o ID, dst []Run) []Run {
	for _, g := range v.parts {
		dst = g.Runs(s, p, o, dst)
	}
	return dst
}

// Match yields the triples of g matching (s, p, o), Wildcard = any: g's
// runs in order, each triple its run keeps. Breaking out of the loop stops
// the scan.
func Match(g Graph, s, p, o ID) iter.Seq[Triple] {
	return func(yield func(Triple) bool) {
		for _, r := range g.Runs(s, p, o, nil) {
			if !r.each(yield) {
				return
			}
		}
	}
}

// Find is the Term-level convenience over Match; nil pattern slots match
// anything, and fn returning false stops the scan.
func Find(g Graph, s, p, o *Term, fn func(s, p, o Term) bool) {
	dict := g.Dict()
	enc := func(t *Term) (ID, bool) {
		if t == nil {
			return Wildcard, true
		}
		id, ok := dict.Lookup(*t)
		return id, ok
	}
	sid, ok := enc(s)
	if !ok {
		return
	}
	pid, ok := enc(p)
	if !ok {
		return
	}
	oid, ok := enc(o)
	if !ok {
		return
	}
	for t := range Match(g, sid, pid, oid) {
		ts, _ := dict.Decode(t.S)
		tp, _ := dict.Decode(t.P)
		to, _ := dict.Decode(t.O)
		if !fn(ts, tp, to) {
			return
		}
	}
}
