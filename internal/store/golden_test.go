package store

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/partition"
)

// updateGolden rewrites testdata/golden from the current writers. Only an
// intentional format change should ever need it.
var updateGolden = flag.Bool("update", false, "rewrite internal/store/testdata/golden from the current writers")

const (
	goldenDir     = "testdata/golden"
	goldenHandoff = "handoff.blocks"
)

// goldenStore is buildTestStore at a tenth of the size (the goldens are
// committed bytes) with every head force-sealed and a short unsealed tail
// behind it, so the serialised state holds sealed segment blocks, a
// non-empty head block and the replicated global tier.
func goldenStore(t testing.TB) *Sharded {
	t.Helper()
	s := emptyGoldenTwin()
	s.AddEntity(goldenEntity)
	pos := func(i int) model.Position {
		return model.Position{
			EntityID: goldenEntity.ID, Domain: model.Maritime,
			TS: int64(10000 * i), Pt: geo.Pt(20.5+float64(i)*0.3, 36.0+float64(i)*0.1),
			SpeedMS: 5.5, CourseDeg: 42,
		}
	}
	for i := 0; i < 20; i++ {
		s.AddPositionRecord(pos(i))
	}
	s.AddEvent(model.Event{Type: "loitering", Entity: goldenEntity.ID, StartTS: 5000, EndTS: 9000,
		Where: geo.Pt(21, 36.2), DetectTS: 9000})
	s.Maintain(TierPolicy{}, true)
	for i := 20; i < 24; i++ {
		s.AddPositionRecord(pos(i))
	}
	s.AddEvent(model.Event{Type: "gap", Entity: goldenEntity.ID, StartTS: 205000, EndTS: 209000,
		Where: geo.Pt(26.7, 38.1), DetectTS: 209000})
	return s
}

var goldenEntity = model.Entity{ID: "237000001", Domain: model.Maritime, Name: "TEST VESSEL", Type: "CARGO"}

// goldenAnchors is the number of anchored fragments goldenStore holds.
const goldenAnchors = 26

// emptyGoldenTwin returns an empty store partitioned like goldenStore.
func emptyGoldenTwin() *Sharded {
	box := geo.BBox{MinLon: 20, MinLat: 35, MaxLon: 28, MaxLat: 40}
	return NewSharded(partition.NewHilbert(box, 5, 4), box)
}

// serialiseAll runs every writer over s: the tiered snapshot directory
// (shard-NNN.blk/.segments plus the linked seg-*.seg files) and the
// handoff stream, keyed by file name.
func serialiseAll(t *testing.T, s *Sharded) map[string][]byte {
	t.Helper()
	dir := t.TempDir()
	if _, err := s.WriteSnapshotTiered(dir, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	out := make(map[string][]byte)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	var hand bytes.Buffer
	if err := s.WriteHandoff(&hand); err != nil {
		t.Fatal(err)
	}
	out[goldenHandoff] = hand.Bytes()
	return out
}

// rangeKeys renders a whole-world range query in a dictionary-independent,
// order-independent form.
func rangeKeys(t *testing.T, s *Sharded) []string {
	t.Helper()
	res, _, _ := s.RangeQueryN(geo.BBox{MinLon: 20, MinLat: 35, MaxLon: 28, MaxLat: 40}, 0, 1<<62, 0)
	keys := make([]string, 0, len(res))
	for _, r := range res {
		term, ok := s.Dict().Decode(r.Node)
		if !ok {
			t.Fatalf("range hit node %d not in dictionary", r.Node)
		}
		keys = append(keys, fmt.Sprintf("%d %v %v %d %s", r.TS, r.Pt.Lon, r.Pt.Lat, r.Shard, term.Value))
	}
	sort.Strings(keys)
	return keys
}

// assertSameStore checks the three content probes the goldens are pinned on.
func assertSameStore(t *testing.T, what string, got, want *Sharded) {
	t.Helper()
	if exportString(t, got) != exportString(t, want) {
		t.Errorf("%s: canonical export differs from the source store", what)
	}
	if g, w := got.ShardLoads(), want.ShardLoads(); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: shard loads = %v, want %v", what, g, w)
	}
	if g, w := rangeKeys(t, got), rangeKeys(t, want); !reflect.DeepEqual(g, w) {
		t.Errorf("%s: range query returned %d hits, want %d (or hits differ)", what, len(g), len(w))
	}
}

// TestGoldenBytes pins the serialised store state byte for byte: the writers
// must produce exactly the recorded DATACRON-SEG v2 bytes, and the readers
// must load those back to the source store.
func TestGoldenBytes(t *testing.T) {
	src := goldenStore(t)
	got := serialiseAll(t, src)

	if *updateGolden {
		if err := os.RemoveAll(goldenDir); err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(goldenDir, 0o755); err != nil {
			t.Fatal(err)
		}
		for name, data := range got {
			if err := os.WriteFile(filepath.Join(goldenDir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}

	ents, err := os.ReadDir(goldenDir)
	if err != nil {
		t.Fatal(err)
	}
	var segFiles, headBlocks int
	for _, e := range ents {
		want, err := os.ReadFile(filepath.Join(goldenDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		data, ok := got[e.Name()]
		if !ok {
			t.Errorf("%s: recorded but no longer written", e.Name())
			continue
		}
		if !bytes.Equal(data, want) {
			t.Errorf("%s: %d bytes written, differ from the %d recorded", e.Name(), len(data), len(want))
		}
		delete(got, e.Name())
		switch filepath.Ext(e.Name()) {
		case ".seg":
			segFiles++
		case ".blk":
			if blk, err := decodeBlock(want); err != nil {
				t.Errorf("%s: %v", e.Name(), err)
			} else if len(blk.anchors) > 0 {
				headBlocks++
			}
		}
	}
	for name := range got {
		t.Errorf("%s: written but not recorded", name)
	}
	if segFiles == 0 || headBlocks == 0 {
		t.Fatalf("goldens cover %d segment files and %d non-empty heads; want both", segFiles, headBlocks)
	}

	// Readers: the snapshot directory loads to the source store, and the
	// handoff stream carries every anchored fragment (the global tier is not
	// shipped, so the target learns the entity itself).
	fromSnap := emptyGoldenTwin()
	if _, _, err := fromSnap.LoadSnapshot(goldenDir); err != nil {
		t.Fatalf("LoadSnapshot: %v", err)
	}
	assertSameStore(t, "LoadSnapshot", fromSnap, src)
	if g, w := fromSnap.TierStats(), src.TierStats(); g.Segments != w.Segments || g.HeadTriples != w.HeadTriples+w.GlobalTriples {
		// An unprimed load leaves the global tier's triples in the head.
		t.Errorf("LoadSnapshot: tiers %+v, want those of %+v", g, w)
	}

	hf, err := os.Open(filepath.Join(goldenDir, goldenHandoff))
	if err != nil {
		t.Fatal(err)
	}
	frags, err := ReadHandoff(hf, func(string) bool { return true })
	hf.Close()
	if err != nil {
		t.Fatalf("ReadHandoff: %v", err)
	}
	fromHandoff := emptyGoldenTwin()
	fromHandoff.AddEntity(goldenEntity)
	if installed, skipped := fromHandoff.InstallHandoff(frags); installed != goldenAnchors || skipped != 0 {
		t.Errorf("InstallHandoff = (%d, %d), want (%d, 0)", installed, skipped, goldenAnchors)
	}
	assertSameStore(t, "ReadHandoff", fromHandoff, src)
}
