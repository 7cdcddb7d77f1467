package store

import (
	"bytes"
	"os"
	"testing"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/partition"
)

// buildTestStore fills a sharded store with globals, positions and an
// event, the three anchor/triple shapes a snapshot must round-trip.
func buildTestStore(t *testing.T) *Sharded {
	t.Helper()
	box := geo.BBox{MinLon: 20, MinLat: 35, MaxLon: 28, MaxLat: 40}
	s := NewSharded(partition.NewHilbert(box, 5, 4), box)
	s.AddEntity(model.Entity{ID: "237000001", Domain: model.Maritime, Name: "TEST VESSEL", Type: "CARGO"})
	for i := 0; i < 200; i++ {
		s.AddPositionRecord(model.Position{
			EntityID: "237000001", Domain: model.Maritime,
			TS: int64(1000 * i), Pt: geo.Pt(20.5+float64(i)*0.03, 36.0+float64(i)*0.01),
			SpeedMS: 5.5, CourseDeg: 42,
		})
	}
	s.AddEvent(model.Event{Type: "loitering", Entity: "237000001", StartTS: 5000, EndTS: 9000,
		Where: geo.Pt(21, 36.2), DetectTS: 9000})
	return s
}

func TestStoreSnapshotRoundTrip(t *testing.T) {
	src := buildTestStore(t)
	dir := t.TempDir()
	if _, err := src.WriteSnapshotTiered(dir, t.TempDir()); err != nil {
		t.Fatal(err)
	}

	box := geo.BBox{MinLon: 20, MinLat: 35, MaxLon: 28, MaxLat: 40}
	dst := NewSharded(partition.NewHilbert(box, 5, 4), box)
	triples, anchors, err := dst.LoadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if triples == 0 || anchors != 201 {
		t.Fatalf("loaded triples=%d anchors=%d, want >0 and 201", triples, anchors)
	}
	if got, want := dst.Len(), src.Len(); got != want {
		t.Errorf("restored Len = %d, want %d", got, want)
	}
	if got, want := dst.ShardLoads(), src.ShardLoads(); len(got) == len(want) {
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("shard %d load = %d, want %d (partitioning not preserved)", i, got[i], want[i])
			}
		}
	}

	// Range queries agree exactly.
	res1, _, _ := src.RangeQueryN(box, 0, 1<<62, 0)
	res2, _, _ := dst.RangeQueryN(box, 0, 1<<62, 0)
	if len(res1) != len(res2) {
		t.Errorf("range results: src %d, restored %d", len(res1), len(res2))
	}

	// Canonical exports are byte-identical.
	var b1, b2 bytes.Buffer
	if err := src.ExportNT(&b1); err != nil {
		t.Fatal(err)
	}
	if err := dst.ExportNT(&b2); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1.Bytes(), b2.Bytes()) {
		t.Error("canonical N-Triples exports differ after snapshot round trip")
	}

	// A second snapshot of the restored store is byte-identical per shard.
	dir2 := t.TempDir()
	if _, err := dst.WriteSnapshotTiered(dir2, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < src.NumShards(); i++ {
		a, err := os.ReadFile(shardFile(dir, i, "blk"))
		if err != nil {
			t.Fatal(err)
		}
		b, err := os.ReadFile(shardFile(dir2, i, "blk"))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("shard %d .blk differs across snapshot generations", i)
		}
	}
}

// TestSnapshotFailsWhenSegmentListIsNotWritten: the shard-NNN.segments list
// is what recovery and the segment-cache GC trust, and the caller truncates
// the WAL below the cut once a snapshot succeeds — so a list that could not
// be written (here: every write answers ENOSPC) must fail the snapshot, not
// yield one that silently names fewer segments than it links.
func TestSnapshotFailsWhenSegmentListIsNotWritten(t *testing.T) {
	if _, err := os.Stat("/dev/full"); err != nil {
		t.Skip("needs /dev/full")
	}
	src := buildTestStore(t)
	src.Maintain(TierPolicy{}, true)
	dir := t.TempDir()
	sealedShard := -1
	for i, n := range src.ShardLoads() {
		if n > 0 {
			sealedShard = i
			break
		}
	}
	if sealedShard < 0 {
		t.Fatal("nothing sealed")
	}
	if err := os.Symlink("/dev/full", shardFile(dir, sealedShard, "segments")); err != nil {
		t.Fatal(err)
	}
	if n, err := src.WriteSnapshotTiered(dir, t.TempDir()); err == nil {
		t.Fatalf("snapshot reported success (%d segments) though shard %d's segment list was never written", n, sealedShard)
	}
}
