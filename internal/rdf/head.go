package rdf

import "slices"

// mergeRatio bounds how lopsided the runs of a Head may become. After an
// insert the two newest runs merge while the older holds at most mergeRatio
// times the newer's triples, so every run ends up holding more than
// mergeRatio times the next newer one: a head of n triples has at most
// log₂(n)+1 runs, and a triple is copied by O(log n) merges in its life.
const mergeRatio = 2

// Head is the mutable triple set of the store's head and global tiers: a
// short list of immutable runs in the Segment layout (without numeric
// columns), oldest first and holding no triple twice. A write appends one
// run and merges runs geometrically; a read visits the runs in order. Writes
// must be externally serialised (the sharded store gives each shard one
// writer, under its lock); reads may share a head, but not with a write.
type Head struct {
	dict *Dictionary
	runs []*Segment
	n    int
	tri  []Triple // AddBatch's encoding scratch
}

// NewHead returns an empty head over dict (nil for a private dictionary).
func NewHead(dict *Dictionary) *Head {
	if dict == nil {
		dict = NewDictionary()
	}
	return &Head{dict: dict}
}

// Dict implements Graph.
func (h *Head) Dict() *Dictionary { return h.dict }

// Len implements Graph.
func (h *Head) Len() int { return h.n }

// PredCard implements Graph: the sum over the runs.
func (h *Head) PredCard(p, o ID) int {
	n := 0
	for _, r := range h.runs {
		n += r.PredCard(p, o)
	}
	return n
}

// AddBatch encodes triples and inserts them as Insert does. A batch the
// dictionary cannot fully encode (ErrDictionaryFull) leaves the head as it
// was.
func (h *Head) AddBatch(triples []TermTriple) error {
	tri, err := h.dict.EncodeBatch(triples, h.tri[:0])
	h.tri = tri[:0]
	if err != nil {
		return err
	}
	h.Insert(tri)
	return nil
}

// Insert adds encoded triples, in any order; duplicates, within tri or of
// triples the head holds, are dropped. It neither modifies tri nor keeps a
// reference to it: what is new becomes one run, which then merges with the
// newer end of the run list.
func (h *Head) Insert(tri []Triple) {
	buf := getSortBufs(len(tri))
	defer sortPool.Put(buf)
	sorted := slices.Compact(buf.sortSPO(tri))
	fresh := sorted[:0]
	for _, t := range sorted {
		if !h.holds(t) {
			fresh = append(fresh, t)
		}
	}
	if len(fresh) == 0 {
		return
	}
	h.runs = append(h.runs, newRun(h.dict, fresh, buf))
	h.n += len(fresh)
	for k := len(h.runs); k >= 2 && len(h.runs[k-2].tri) <= mergeRatio*len(h.runs[k-1].tri); k = len(h.runs) {
		h.mergeNewest()
	}
}

// mergeNewest merges the two newest runs into one.
func (h *Head) mergeNewest() {
	k := len(h.runs)
	h.runs[k-2] = mergeRuns(h.runs[k-2], h.runs[k-1])
	h.runs[k-1] = nil
	h.runs = h.runs[:k-1]
}

// holds reports whether a run holds t. A run whose subject range excludes
// t.S costs one comparison: a freshly minted node id lies above every id of
// an older run.
func (h *Head) holds(t Triple) bool {
	for _, r := range h.runs {
		if r.covers(t.S) {
			if _, found := slices.BinarySearchFunc(r.tri, t, cmpSPO); found {
				return true
			}
		}
	}
	return false
}

// FindID implements Graph, run by run. A bound subject skips every run whose
// subject range excludes it (Segment.find), so a join probe touches one run,
// not all.
func (h *Head) FindID(s, p, o ID, fn func(Triple) bool) {
	for _, r := range h.runs {
		if !r.find(s, p, o, fn) {
			return
		}
	}
}

// Seal merges the runs into one and returns it as a sealed segment, numeric
// columns built. The head is spent: the caller replaces it.
func (h *Head) Seal() *Segment {
	for len(h.runs) > 1 {
		h.mergeNewest()
	}
	if len(h.runs) == 0 {
		return &Segment{dict: h.dict}
	}
	seg := h.runs[0]
	seg.buildNumericColumns()
	return seg
}
