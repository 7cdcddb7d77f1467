package store

import (
	"fmt"
	"io"
	"slices"

	"github.com/datacron-project/datacron/internal/rdf"
)

// ExportNT writes the union graph of all shards as canonical N-Triples.
// Replicated global triples are emitted once. The dump is independent of
// partitioning, tier layout and insertion order, which is what makes it the
// content-equality probe of the recovery, handoff and cluster goldens.
func (s *Sharded) ExportNT(w io.Writer) error {
	var all []rdf.Triple
	for _, sh := range s.shards {
		sh.mu.RLock()
		v := sh.viewLocked()
		all = slices.AppendSeq(all, rdf.Match(v, rdf.Wildcard, rdf.Wildcard, rdf.Wildcard))
		sh.mu.RUnlock()
	}
	union := rdf.NewHead(s.dict)
	union.Insert(all) // one sort + compact
	if err := rdf.WriteNTriples(w, union); err != nil {
		return fmt.Errorf("store: export: %w", err)
	}
	return nil
}
