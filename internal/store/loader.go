package store

import (
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/onto"
)

// AddPositionRecord transforms one position report to RDF and stores it
// anchored at its coordinates and timestamp.
func (s *Sharded) AddPositionRecord(p model.Position) error {
	node := onto.NodeIRI(p.EntityID, p.TS)
	return s.AddAnchored(node.Value, p.Pt, p.TS, node, onto.PositionTriples(p))
}

// AddEntity stores static entity data as global (replicated) triples, so
// per-shard joins against entity attributes stay local.
func (s *Sharded) AddEntity(e model.Entity) error {
	return s.AddGlobal(onto.EntityTriples(e))
}

// AddEvent stores a (detected or scripted) event anchored at its location
// and start time.
func (s *Sharded) AddEvent(ev model.Event) error {
	node := onto.EventIRI(ev.Type, ev.Entity, ev.StartTS)
	return s.AddAnchored(node.Value, ev.Where, ev.StartTS, node, onto.EventTriples(ev))
}
