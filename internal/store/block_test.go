package store

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"sort"
	"strings"
	"testing"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/onto"
	"github.com/datacron-project/datacron/internal/partition"
	"github.com/datacron-project/datacron/internal/rdf"
)

// decodedBlock is a block as readBlock delivered it, term-level.
type decodedBlock struct {
	id      uint64
	triples []onto.TripleT
	anchors []stagedAnchor
}

// decodeBlock reads the first block of data; io.EOF means there is none.
func decodeBlock(data []byte) (blk decodedBlock, err error) {
	blk.id, err = newBlockReader(bytes.NewReader(data)).readBlock(
		func(s, p, o rdf.Term) { blk.triples = append(blk.triples, onto.TripleT{S: s, P: p, O: o}) },
		func(ts int64, pt geo.Point, iri string) {
			blk.anchors = append(blk.anchors, stagedAnchor{pt: pt, ts: ts, node: rdf.NewIRI(iri)})
		})
	return blk, err
}

// encode writes the block back through writeBlock over a fresh dictionary.
func (blk decodedBlock) encode() ([]byte, error) {
	dict := rdf.NewDictionary()
	g := rdf.NewStore(dict)
	for _, t := range blk.triples {
		g.Add(t.S, t.P, t.O)
	}
	entries := make([]anchor, len(blk.anchors))
	for i, a := range blk.anchors {
		entries[i] = anchor{pt: a.pt, ts: a.ts, node: dict.Encode(a.node)}
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := writeBlock(bw, blk.id, g, entries, nil, dict); err != nil {
		return nil, err
	}
	if err := bw.Flush(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// canonical renders the block's content in a form equal blocks share: the
// sorted set of N-Triples lines and the anchors in order (formatted, so a
// NaN coordinate equals itself).
func (blk decodedBlock) canonical() (triples, anchors []string) {
	seen := make(map[string]bool)
	for _, t := range blk.triples {
		line := fmt.Sprintf("%s %s %s .", t.S, t.P, t.O)
		if !seen[line] {
			seen[line] = true
			triples = append(triples, line)
		}
	}
	sort.Strings(triples)
	for _, a := range blk.anchors {
		anchors = append(anchors, fmt.Sprintf("%d %v %v %v %s", a.ts, a.pt.Lon, a.pt.Lat, a.pt.Alt, a.node.Value))
	}
	return triples, anchors
}

// realBlocks returns blocks the product writers produced: a sealed segment
// file, a head block (id 0) and a zero-anchor residue block — the head of a
// shard that holds dimension triples but no anchored fragment. They come
// from a store of three reports: the fuzzer minimises every input that adds
// coverage byte by byte, and stalls for its whole budget on a large seed.
func realBlocks(t testing.TB) (segFile, head, residue []byte) {
	t.Helper()
	s := NewSharded(partition.NewHash(1), box)
	s.AddPositionRecord(posAt("V1", 23.5, 37.5, 1000))
	s.AddPositionRecord(posAt("V1", 23.6, 37.5, 2000))
	s.Maintain(TierPolicy{}, true)
	s.AddPositionRecord(posAt("V1", 23.7, 37.5, 3000))
	dir := t.TempDir()
	if _, err := s.WriteSnapshotTiered(dir, t.TempDir()); err != nil {
		t.Fatal(err)
	}
	segFile, err := os.ReadFile(filepath.Join(dir, s.SegmentFiles()[0]))
	if err != nil {
		t.Fatal(err)
	}

	for _, sh := range s.shards {
		if len(sh.idx.entries) == 0 {
			continue
		}
		var buf bytes.Buffer
		bw := bufio.NewWriter(&buf)
		if err := writeBlock(bw, 0, sh.head, sh.idx.entries, nil, s.dict); err != nil {
			t.Fatal(err)
		}
		bw.Flush()
		head = buf.Bytes()
	}
	if head == nil {
		t.Fatal("no non-empty head")
	}

	// A snapshot loaded into an unprimed store leaves the replicated
	// dimension triples in every head, anchors or not.
	unprimed := emptyGoldenTwin()
	if _, _, err := unprimed.LoadSnapshot(goldenDir); err != nil {
		t.Fatal(err)
	}
	for _, sh := range unprimed.shards {
		if sh.head.Len() > 0 && len(sh.idx.entries) == 0 {
			var buf bytes.Buffer
			bw := bufio.NewWriter(&buf)
			if err := writeBlock(bw, 0, sh.head, nil, nil, unprimed.dict); err != nil {
				t.Fatalf("zero-anchor block: %v", err)
			}
			bw.Flush()
			residue = buf.Bytes()
		}
	}
	if residue == nil {
		t.Fatal("no residue-only head in the unprimed load")
	}
	return segFile, head, residue
}

// TestHandoffShipsResidueOnlyHead: a head holding triples but no anchor
// (what a snapshot load into an unprimed store leaves behind) used to fail
// the whole handoff, because its empty bounding box is ±Inf and the block
// header is JSON.
func TestHandoffShipsResidueOnlyHead(t *testing.T) {
	s := emptyGoldenTwin()
	if _, _, err := s.LoadSnapshot(goldenDir); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := s.WriteHandoff(&buf); err != nil {
		t.Fatalf("WriteHandoff: %v", err)
	}
	frags, err := ReadHandoff(&buf, func(string) bool { return true })
	if err != nil {
		t.Fatalf("ReadHandoff: %v", err)
	}
	if len(frags) != goldenAnchors {
		t.Errorf("handoff carried %d fragments, want %d", len(frags), goldenAnchors)
	}
}

// TestCorruptBlockIsAnErrorNotAPanic feeds damaged blocks through both
// entry points that take bytes from outside the process — the segment-file
// loader and the handoff reader — and expects an error that names the line.
func TestCorruptBlockIsAnErrorNotAPanic(t *testing.T) {
	segFile, _, _ := realBlocks(t)
	lines := strings.SplitAfter(strings.TrimSuffix(string(segFile), "\n"), "\n")
	lines[len(lines)-1] += "\n"
	n := len(lines)
	lineOf := func(prefix string) int { // 1-based
		for i, l := range lines {
			if strings.HasPrefix(l, prefix) {
				return i + 1
			}
		}
		t.Fatalf("no %q line in the segment file", prefix)
		return 0
	}
	replaceLine := func(prefix, with string) string {
		out := append([]string(nil), lines...)
		out[lineOf(prefix)-1] = with + "\n"
		return strings.Join(out, "")
	}
	anchorsLine := lineOf("ANCHORS ")
	cases := []struct {
		name, data string
		wantLine   int // within the damaged block
	}{
		{"negative triple count", replaceLine("TRIPLES ", "TRIPLES -1"), 3},
		// The declared count allocates nothing; the reader just runs into
		// the framing line where a triple should be.
		{"absurd triple count", replaceLine("TRIPLES ", "TRIPLES 9999999999999"), anchorsLine},
		{"negative anchor count", replaceLine("ANCHORS ", "ANCHORS -7"), anchorsLine},
		{"truncated mid-triples", strings.Join(lines[:10], ""), 10},
		{"truncated mid-anchors", strings.Join(lines[:n-2], ""), n - 2},
		{"bad anchor line", strings.Join(lines[:n-1], "") + "12 not-a-lon 3 4 http://x/n\n", n},
		{"bad triple line", replaceLine("<", "<http://x/s> <http://x/p> ."), 4},
		{"bad meta", replaceLine("META ", "META {not json"), 2},
		{"wrong magic", replaceLine(blockMagic, "DATACRON-SEG v9"), 1},
	}
	lineRE := regexp.MustCompile(`line (\d+):`)
	for _, tc := range cases {
		check := func(entry string, err error, wantLine int) {
			t.Helper()
			if err == nil {
				t.Errorf("%s via %s: accepted", tc.name, entry)
			} else if m := lineRE.FindStringSubmatch(err.Error()); m == nil || m[1] != fmt.Sprint(wantLine) {
				t.Errorf("%s via %s: error %q, want one naming line %d", tc.name, entry, err, wantLine)
			}
		}
		path := filepath.Join(t.TempDir(), "seg-bad.seg")
		if err := os.WriteFile(path, []byte(tc.data), 0o644); err != nil {
			t.Fatal(err)
		}
		s := emptyGoldenTwin()
		_, err := readSegmentFile(path, s.dict, s.shards[0].idx.grid)
		check("readSegmentFile", err, tc.wantLine)

		// In a handoff stream the damaged block follows a good one.
		_, err = ReadHandoff(strings.NewReader(string(segFile)+tc.data), func(string) bool { return true })
		check("ReadHandoff", err, n+tc.wantLine)
	}
}

// FuzzReadBlock covers every byte of store state that arrives from outside
// the process — segment files from disk, handoff streams from a peer —
// because both go through readBlock: it must never panic, and whatever it
// accepts must survive writeBlock → readBlock unchanged.
func FuzzReadBlock(f *testing.F) {
	segFile, head, residue := realBlocks(f)
	f.Add(segFile)
	f.Add(head)
	f.Add(residue)
	f.Add([]byte(blockMagic + "\nMETA {}\nTRIPLES 0\nANCHORS 0\n"))
	// Two spellings of one literal: must not re-encode as "TRIPLES 2" over
	// one deduplicated line.
	f.Add([]byte(blockMagic + "\nMETA {}\nTRIPLES 2\n<a> <b> \"x\" .\n" +
		"<a> <b> \"x\"^^<" + rdf.XSDString + "> .\nANCHORS 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := decodeBlock(data)
		if err != nil {
			return
		}
		again, err := blk.encode()
		if err != nil {
			t.Fatalf("accepted block does not re-encode: %v", err)
		}
		blk2, err := decodeBlock(again)
		if err != nil {
			t.Fatalf("re-encoded block does not read back: %v\n%s", err, again)
		}
		t1, a1 := blk.canonical()
		t2, a2 := blk2.canonical()
		if blk2.id != blk.id || !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(a1, a2) {
			t.Fatalf("block changed across a write/read round trip:\nid %d → %d\ntriples %q → %q\nanchors %q → %q",
				blk.id, blk2.id, t1, t2, a1, a2)
		}
	})
}

// TestRealBlocksRoundTrip runs the fuzz property over the seed blocks and
// pins what each seed is, so the corpus keeps covering all three shapes.
func TestRealBlocksRoundTrip(t *testing.T) {
	segFile, head, residue := realBlocks(t)
	for _, tc := range []struct {
		name             string
		data             []byte
		sealed, anchored bool
	}{
		{"segment file", segFile, true, true},
		{"head block", head, false, true},
		{"residue block", residue, false, false},
	} {
		blk, err := decodeBlock(tc.data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (blk.id != 0) != tc.sealed || (len(blk.anchors) > 0) != tc.anchored || len(blk.triples) == 0 {
			t.Errorf("%s: id=%d triples=%d anchors=%d", tc.name, blk.id, len(blk.triples), len(blk.anchors))
		}
		again, err := blk.encode()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		// Segment files carry the predicate histogram; wire blocks do not,
		// and for those the re-encoding is byte-identical.
		if !tc.sealed && !bytes.Equal(again, tc.data) {
			t.Errorf("%s: re-encoded bytes differ", tc.name)
		}
	}
}
