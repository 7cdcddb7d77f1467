package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/partition"
	"github.com/datacron-project/datacron/internal/rdf"
)

// exportString renders the canonical NT dump (the content-equality probe).
func exportString(t *testing.T, s *Sharded) string {
	t.Helper()
	var b bytes.Buffer
	if err := s.ExportNT(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

func TestSealPreservesContent(t *testing.T) {
	s := buildTestStore(t)
	before := exportString(t, s)
	rangeBefore, _, _ := s.RangeQueryN(geo.NewBBox(20, 35, 28, 40), 0, 1<<62, 0)
	lenBefore := s.Len()

	st := s.Maintain(TierPolicy{}, true) // force-seal every head
	if st.Sealed == 0 || st.SealedTriples == 0 {
		t.Fatalf("force seal did nothing: %+v", st)
	}
	tiers := s.TierStats()
	if tiers.HeadTriples != 0 {
		t.Errorf("head not empty after seal: %d", tiers.HeadTriples)
	}
	if tiers.Segments == 0 || tiers.SealedTriples == 0 {
		t.Errorf("no sealed segments: %+v", tiers)
	}
	if got := exportString(t, s); got != before {
		t.Error("canonical export changed across seal")
	}
	if s.Len() != lenBefore {
		t.Errorf("Len changed across seal: %d vs %d", s.Len(), lenBefore)
	}
	rangeAfter, _, _ := s.RangeQueryN(geo.NewBBox(20, 35, 28, 40), 0, 1<<62, 0)
	if len(rangeAfter) != len(rangeBefore) {
		t.Errorf("range hits changed across seal: %d vs %d", len(rangeAfter), len(rangeBefore))
	}

	// Writes after a seal land in the fresh head and are visible merged.
	s.AddPositionRecord(model.Position{
		EntityID: "237000001", TS: 999_000, Pt: geo.Pt(21, 36), SpeedMS: 1,
	})
	if s.Len() != lenBefore+8 {
		t.Errorf("post-seal write: Len = %d, want %d", s.Len(), lenBefore+8)
	}
}

func TestSealMigratesDimensionResidue(t *testing.T) {
	// A head holding dimension triples (what a snapshot loaded into an
	// unprimed store leaves) must not sand them into a retainable segment:
	// they migrate to the global tier.
	box := geo.NewBBox(20, 35, 28, 40)
	s := NewSharded(partition.NewHash(2), box)
	for i := 0; i < 10; i++ {
		s.AddPositionRecord(model.Position{
			EntityID: "V1", TS: int64(i * 1000), Pt: geo.Pt(21, 36), SpeedMS: float64(i),
		})
	}
	// Force dimension triples into the head the way an unprimed load does.
	for _, sh := range s.shards {
		sh.mu.Lock()
		sh.head.AddBatch(onto.EntityTriples(model.Entity{ID: "V1", Name: "RESIDUE", Type: "CARGO"}))
		sh.mu.Unlock()
	}
	s.Maintain(TierPolicy{}, true)
	// Retention far in the past drops every sealed segment...
	st := s.Maintain(TierPolicy{Retention: time.Millisecond}, false)
	if st.Dropped == 0 {
		t.Fatalf("retention dropped nothing: %+v", st)
	}
	// ...but the entity data survives in the global tier.
	obj := onto.EntityIRI("V1")
	found := false
	for i := 0; i < s.NumShards(); i++ {
		rdf.Find(s.View(i), &obj, &onto.PredName, nil, func(_, _, o rdf.Term) bool {
			found = found || o.Value == "RESIDUE"
			return true
		})
	}
	if !found {
		t.Error("dimension triples were retained away with the segment")
	}
}

func TestRetentionBoundsStore(t *testing.T) {
	box := geo.NewBBox(20, 35, 28, 40)
	s := NewSharded(partition.NewHash(2), box)
	pol := TierPolicy{SealTriples: 200, Retention: 100 * time.Second}
	var lens []int
	for i := 0; i < 5000; i++ {
		s.AddPositionRecord(model.Position{
			EntityID: fmt.Sprintf("V%d", i%7), TS: int64(i) * 1000,
			Pt: geo.Pt(20.5+float64(i%70)*0.1, 35.5+float64(i%40)*0.1), SpeedMS: 3,
		})
		if i%500 == 499 {
			s.Maintain(pol, false)
			lens = append(lens, s.Len())
		}
	}
	tiers := s.TierStats()
	if tiers.SegmentsDropped == 0 || tiers.TriplesDropped == 0 {
		t.Fatalf("retention never dropped: %+v", tiers)
	}
	// The triple count must plateau: the last probes stay within 2x of the
	// first post-warmup probe instead of growing linearly.
	mid, last := lens[len(lens)/2], lens[len(lens)-1]
	if last > mid*2 {
		t.Errorf("no plateau: mid=%d last=%d (probes %v)", mid, last, lens)
	}
	// Old data is gone, fresh data answers.
	old, _, _ := s.RangeQueryN(box, 0, 1_000_000, 0)
	if len(old) != 0 {
		t.Errorf("aged-out anchors still answer: %d", len(old))
	}
	fresh, _, _ := s.RangeQueryN(box, 4_900_000, 5_000_000, 0)
	if len(fresh) == 0 {
		t.Error("fresh anchors lost")
	}
}

func TestSealAfterAgeTrigger(t *testing.T) {
	box := geo.NewBBox(20, 35, 28, 40)
	s := NewSharded(partition.NewHash(1), box)
	s.AddPositionRecord(model.Position{EntityID: "V1", TS: 1000, Pt: geo.Pt(21, 36)})
	if st := s.Maintain(TierPolicy{SealAfter: time.Minute}, false); st.Sealed != 0 {
		t.Fatalf("sealed before the head aged: %+v", st)
	}
	// Advance the stream clock past the age threshold.
	s.AddPositionRecord(model.Position{EntityID: "V1", TS: 70_000, Pt: geo.Pt(21.1, 36)})
	if st := s.Maintain(TierPolicy{SealAfter: time.Minute}, false); st.Sealed != 1 {
		t.Fatalf("age trigger did not seal: %+v", st)
	}
}

func TestTieredSnapshotRoundTripAndReuse(t *testing.T) {
	box := geo.BBox{MinLon: 20, MinLat: 35, MaxLon: 28, MaxLat: 40}
	src := buildTestStore(t)
	src.Maintain(TierPolicy{}, true) // one sealed generation
	for i := 0; i < 50; i++ {        // plus fresh head data
		src.AddPositionRecord(model.Position{
			EntityID: "237000001", TS: int64(300_000 + 1000*i), Pt: geo.Pt(22+float64(i)*0.01, 37),
			SpeedMS: 4, CourseDeg: 10,
		})
	}

	segCache := t.TempDir()
	dir1 := t.TempDir()
	nSegs, err := src.WriteSnapshotTiered(dir1, segCache)
	if err != nil {
		t.Fatal(err)
	}
	if nSegs == 0 {
		t.Fatal("no segments referenced")
	}

	// Restore and compare content, partitioning and tier structure.
	dst := NewSharded(partition.NewHilbert(box, 5, 4), box)
	triples, anchors, err := dst.LoadSnapshot(dir1)
	if err != nil {
		t.Fatal(err)
	}
	if triples == 0 || anchors != 251 {
		t.Fatalf("loaded triples=%d anchors=%d", triples, anchors)
	}
	if got, want := exportString(t, dst), exportString(t, src); got != want {
		t.Error("canonical export differs after tiered round trip")
	}
	if got, want := dst.TierStats().Segments, src.TierStats().Segments; got != want {
		t.Errorf("restored %d segments, want %d", got, want)
	}
	if got, want := dst.ShardLoads(), src.ShardLoads(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("shard loads differ: %v vs %v", got, want)
	}
	r1, _, _ := src.RangeQueryN(box, 0, 1<<62, 0)
	r2, _, _ := dst.RangeQueryN(box, 0, 1<<62, 0)
	if len(r1) != len(r2) {
		t.Errorf("range results differ: %d vs %d", len(r1), len(r2))
	}

	// A new seal in the restored store must get a fresh segment id.
	files1 := map[string]bool{}
	for _, name := range dst.SegmentFiles() {
		files1[name] = true
	}
	dst.Maintain(TierPolicy{}, true)
	for _, name := range dst.SegmentFiles() {
		if name != "" && files1[name] && len(files1) == len(dst.SegmentFiles()) {
			t.Fatal("new seal reused an existing segment id")
		}
	}

	// Second snapshot from the source: segment files are hard-linked, not
	// rewritten — same inode in the cache and both snapshot dirs.
	dir2 := t.TempDir()
	if _, err := src.WriteSnapshotTiered(dir2, segCache); err != nil {
		t.Fatal(err)
	}
	for _, name := range src.SegmentFiles() {
		ci, err := os.Stat(filepath.Join(segCache, name))
		if err != nil {
			t.Fatal(err)
		}
		if n := ci.Sys().(*syscall.Stat_t).Nlink; n < 3 {
			t.Errorf("segment %s link count %d, want >=3 (cache + 2 snapshots)", name, n)
		}
		i1, err1 := os.Stat(filepath.Join(dir1, name))
		i2, err2 := os.Stat(filepath.Join(dir2, name))
		if err1 != nil || err2 != nil {
			t.Fatalf("segment missing from a snapshot dir: %v %v", err1, err2)
		}
		if !os.SameFile(i1, i2) || !os.SameFile(i1, ci) {
			t.Errorf("segment %s rewritten instead of linked", name)
		}
	}
}

// TestDamagedSnapshotIsRefused: every per-shard file of a snapshot is
// required. A lost mutable-tier block, a lost segment list or a cut-short
// segment file fails the load with an error naming the shard and the file —
// never a load that quietly holds less than was written.
func TestDamagedSnapshotIsRefused(t *testing.T) {
	// Four vessels over two shards, each shard with a sealed segment and a
	// head.
	src := NewSharded(partition.NewHash(2), box)
	report := func(i int) {
		src.AddPositionRecord(posAt(fmt.Sprintf("V%d", i%4), 23+float64(i)*0.01, 37.5, int64(1000*i)))
	}
	for i := 0; i < 40; i++ {
		report(i)
	}
	src.Maintain(TierPolicy{}, true)
	for i := 40; i < 48; i++ {
		report(i)
	}
	for _, tc := range []struct {
		name   string
		damage func(dir string) (file string)
	}{
		{"removed block", func(dir string) string {
			return remove(t, shardFile(dir, 1, "blk"))
		}},
		{"removed segment list", func(dir string) string {
			return remove(t, shardFile(dir, 1, "segments"))
		}},
		{"truncated segment file", func(dir string) string {
			list, err := os.ReadFile(shardFile(dir, 1, "segments"))
			names := strings.Fields(string(list))
			if err != nil || len(names) == 0 {
				t.Fatalf("shard 1 links no segment (%v)", err)
			}
			path := filepath.Join(dir, names[0])
			fi, err := os.Stat(path)
			if err == nil {
				err = os.Truncate(path, fi.Size()/2)
			}
			if err != nil {
				t.Fatal(err)
			}
			return names[0]
		}},
	} {
		dir := t.TempDir()
		if _, err := src.WriteSnapshotTiered(dir, t.TempDir()); err != nil {
			t.Fatal(err)
		}
		file := tc.damage(dir)
		_, _, err := NewSharded(partition.NewHash(2), box).LoadSnapshot(dir)
		if err == nil || !strings.Contains(err.Error(), "shard 1:") || !strings.Contains(err.Error(), file) {
			t.Errorf("%s: LoadSnapshot = %v, want an error naming shard 1 and %s", tc.name, err, file)
		}
	}
}

// remove deletes path and returns its base name.
func remove(t *testing.T, path string) string {
	t.Helper()
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	return filepath.Base(path)
}
