package store_test

import (
	"testing"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/partition"
	"github.com/datacron-project/datacron/internal/query"
	"github.com/datacron-project/datacron/internal/store"
)

// TestSegmentPruningInViews holds a bounded join to every tier of a shard:
// the time window selects the vessel's recent positions, and the join
// through the vessel reaches its old positions, held only by a sealed
// segment whose anchors all lie outside the window. A view that drops that
// segment loses those rows, and the answer then depends on when the shard
// last sealed.
func TestSegmentPruningInViews(t *testing.T) {
	s := store.NewSharded(partition.NewHash(1), geo.NewBBox(20, 35, 28, 40))
	// Two temporal generations, sealed separately.
	for i := 0; i < 20; i++ {
		s.AddPositionRecord(model.Position{EntityID: "V1", TS: int64(i * 1000), Pt: geo.Pt(21, 36)})
	}
	s.Maintain(store.TierPolicy{}, true)
	for i := 0; i < 20; i++ {
		s.AddPositionRecord(model.Position{EntityID: "V1", TS: int64(1_000_000 + i*1000), Pt: geo.Pt(25, 38)})
	}
	s.Maintain(store.TierPolicy{}, true)

	res, err := query.NewEngine(s).Execute(`SELECT ?m ?t0 WHERE {
		?n dat:timestamp ?t .
		?n dat:ofMovingObject ?v .
		?m dat:ofMovingObject ?v .
		?m dat:timestamp ?t0 .
		FILTER st:during(?t, 1000000, 2000000)
	}`)
	if err != nil {
		t.Fatal(err)
	}
	old := 0
	for _, row := range res.Rows {
		if ts, _ := row[1].Float(); ts < 1_000_000 {
			old++
		}
	}
	if len(res.Rows) != 40 || old != 20 {
		t.Errorf("%d rows, %d of them outside the window; want 40 and 20", len(res.Rows), old)
	}
}
