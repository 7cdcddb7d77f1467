package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"runtime"
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
	var terms []rdf.Term
	blk.id, err = newBlockReader(bytes.NewReader(data)).readBlock(blockSink{
		term: func(t rdf.Term) { terms = append(terms, t) },
		triple: func(s, p, o uint32) {
			blk.triples = append(blk.triples, onto.TripleT{S: terms[s], P: terms[p], O: terms[o]})
		},
		anchor: func(ts int64, pt geo.Point, node uint32) {
			blk.anchors = append(blk.anchors, stagedAnchor{pt: pt, ts: ts, node: terms[node]})
		},
	})
	return blk, err
}

// encode writes the block back through writeBlock over a fresh dictionary,
// a sealed segment's with the predicate histogram its file carries.
func (blk decodedBlock) encode() ([]byte, error) {
	dict := rdf.NewDictionary()
	g := rdf.NewHead(dict)
	if err := g.AddBatch(blk.triples); err != nil {
		return nil, err
	}
	entries := make([]anchor, len(blk.anchors))
	for i, a := range blk.anchors {
		node, err := dict.Encode(a.node)
		if err != nil {
			return nil, err
		}
		entries[i] = anchor{pt: a.pt, ts: a.ts, node: node}
	}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := newBlockWriter(dict).writeBlock(bw, blk.id, g, entries, blk.id != 0); err != nil {
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

// blockBytes writes one block through the product writer.
func blockBytes(t testing.TB, dict *rdf.Dictionary, id uint64, g rdf.Graph, entries []anchor) []byte {
	t.Helper()
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := newBlockWriter(dict).writeBlock(bw, id, g, entries, false); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	return buf.Bytes()
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
		if len(sh.idx.entries) > 0 {
			head = blockBytes(t, s.dict, 0, sh.head, sh.idx.entries)
		}
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
			residue = blockBytes(t, unprimed.dict, 0, sh.head, nil)
		}
	}
	if residue == nil {
		t.Fatal("no residue-only head in the unprimed load")
	}
	return segFile, head, residue
}

// v1Block is a block as builds up to PR 19 wrote it: what the sniffing
// reader must keep reading. (testdata/golden-v1 holds whole files of them.)
const v1Block = "DATACRON-SEG v1\n" +
	`META {"id":7,"triples":3,"anchors":1,"minTS":1000,"maxTS":1000,"minLon":23.5,"minLat":37.5,"maxLon":23.5,"maxLat":37.5}` + "\n" +
	"TRIPLES 3\n" +
	"<http://x/n1> <http://x/lon> \"23.5\"^^<" + rdf.XSDDouble + "> .\n" +
	"<http://x/n1> <http://x/name> \"a \\\"b\\\"\"@en .\n" +
	"_:b0 <http://x/of> <http://x/n1> .\n" +
	"ANCHORS 1\n" +
	"1000 23.5 37.5 0 http://x/n1\n"

// TestHandoffShipsResidueOnlyHead: a head holding triples but no anchor
// (what a snapshot load into an unprimed store leaves behind) must travel:
// it once failed the whole handoff, over its empty bounding box.
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

// fieldOffset returns where the named field of a block's header record
// lies, from the layout table the codec itself is driven by.
func fieldOffset(t *testing.T, name string) int {
	t.Helper()
	off := len(blockMagic)
	for _, f := range blockLayout.header.fields {
		if f.name == name {
			return off
		}
		off += fieldWidth[f.kind]
	}
	t.Fatalf("no header field %q", name)
	return 0
}

// readBoth feeds data through both entry points that take store bytes from
// outside the process — the segment loader and, behind a good block, the
// handoff reader — and returns their errors.
func readBoth(good, data []byte) (segErr, streamErr error) {
	_, segErr = readSegment(bytes.NewReader(data), rdf.NewDictionary(), geo.NewGrid(box, 64, 64))
	_, streamErr = ReadHandoff(io.MultiReader(bytes.NewReader(good), bytes.NewReader(data)), func(string) bool { return true })
	return segErr, streamErr
}

// TestCorruptBlockIsAnErrorNotAPanic damages a real block in every way a
// disk or a peer can: cut short anywhere, any one bit flipped, counts that
// promise more than the input holds. Every damage is an error that names
// where the input went wrong; none is a panic, and none makes the reader
// allocate what a count declares.
func TestCorruptBlockIsAnErrorNotAPanic(t *testing.T) {
	segFile, _, _ := realBlocks(t)
	offsetRE := regexp.MustCompile(`offset \d+:`)
	check := func(what string, data []byte, want error) {
		t.Helper()
		fileErr, streamErr := readBoth(segFile, data)
		for entry, err := range map[string]error{"readSegment": fileErr, "ReadHandoff": streamErr} {
			switch {
			case err == nil:
				t.Errorf("%s via %s: accepted", what, entry)
			case !offsetRE.MatchString(err.Error()):
				t.Errorf("%s via %s: error %q names no offset", what, entry, err)
			case want != nil && !errors.Is(err, want):
				t.Errorf("%s via %s: error %q, want %q", what, entry, err, want)
			}
		}
	}

	for n := 1; n < len(segFile); n++ {
		check(fmt.Sprintf("cut to %d bytes", n), segFile[:n], nil)
	}
	for bit := 0; bit < 8*len(segFile); bit++ {
		data := append([]byte(nil), segFile...)
		data[bit/8] ^= 1 << (bit % 8)
		check(fmt.Sprintf("bit %d flipped", bit), data, nil)
	}
	// A flip that leaves the structure readable — here in the last anchor's
	// coordinates and in the checksum itself — is caught by the checksum.
	trailer := len(segFile) - blockLayout.trailer.width
	for _, at := range []int{trailer - blockLayout.anchor.width + 9, trailer} {
		data := append([]byte(nil), segFile...)
		data[at] ^= 0x10
		check(fmt.Sprintf("payload byte %d damaged", at), data, errBlockChecksum)
	}

	for _, name := range []string{"terms", "triples", "anchors", "preds"} {
		data := append([]byte(nil), segFile...)
		binary.LittleEndian.PutUint32(data[fieldOffset(t, name):], 0xffffffff)
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		check("absurd "+name+" count", data, nil)
		runtime.ReadMemStats(&after)
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 4<<20 {
			t.Errorf("absurd %s count: reading a %d-byte block allocated %d bytes", name, len(data), grew)
		}
	}
	// A string may declare any length; the reader takes what arrives.
	data := append([]byte(nil), segFile[:fieldOffset(t, "id")+blockLayout.header.width]...)
	data = append(data, byte(rdf.IRI), 0xff, 0xff, 0xff, 0x01) // a 4 MiB − 1 value, then nothing
	check("absurd string length", data, nil)
	data[len(data)-1] = 0x7f // beyond the bound
	check("string over the bound", data, nil)
}

// TestCorruptV1BlockIsAnError keeps the text reader's own damage cases for
// as long as it is read: an error that names the line.
func TestCorruptV1BlockIsAnError(t *testing.T) {
	lines := strings.SplitAfter(v1Block, "\n")
	lines = lines[:len(lines)-1]
	replaceLine := func(prefix, with string) string {
		out := append([]string(nil), lines...)
		for i, l := range out {
			if strings.HasPrefix(l, prefix) {
				out[i] = with + "\n"
				return strings.Join(out, "")
			}
		}
		t.Fatalf("no %q line", prefix)
		return ""
	}
	lineRE := regexp.MustCompile(`line (\d+):`)
	for _, tc := range []struct {
		name, data string
		wantLine   int
	}{
		{"negative triple count", replaceLine("TRIPLES ", "TRIPLES -1"), 3},
		{"absurd triple count", replaceLine("TRIPLES ", "TRIPLES 9999999999999"), 7},
		{"negative anchor count", replaceLine("ANCHORS ", "ANCHORS -7"), 7},
		{"truncated mid-triples", strings.Join(lines[:5], ""), 5},
		{"truncated before anchors", strings.Join(lines[:7], ""), 7},
		{"bad anchor line", strings.Join(lines[:7], "") + "12 not-a-lon 3 4 http://x/n\n", 8},
		{"bad triple line", replaceLine("_:b0", "<http://x/s> <http://x/p> ."), 6},
		{"bad meta", replaceLine("META ", "META {not json"), 2},
	} {
		fileErr, streamErr := readBoth([]byte(v1Block), []byte(tc.data))
		for entry, got := range map[string]struct {
			err  error
			line int
		}{"readSegment": {fileErr, tc.wantLine}, "ReadHandoff": {streamErr, len(lines) + tc.wantLine}} {
			if got.err == nil {
				t.Errorf("%s via %s: accepted", tc.name, entry)
			} else if m := lineRE.FindStringSubmatch(got.err.Error()); m == nil || m[1] != fmt.Sprint(got.line) {
				t.Errorf("%s via %s: error %q, want one naming line %d", tc.name, entry, got.err, got.line)
			}
		}
	}
	if _, err := decodeBlock([]byte("DATACRON-SEG v9\nMETA {}\n")); err == nil || !strings.Contains(err.Error(), "not a block") {
		t.Errorf("unknown magic: %v", err)
	}
}

// checkRoundTrip is the property every accepted block has, whichever
// version it was read as: it re-encodes, the re-encoding reads back to the
// same content, and re-encoding that changes no byte — the written form is
// canonical.
func checkRoundTrip(t *testing.T, blk decodedBlock) []byte {
	t.Helper()
	again, err := blk.encode()
	if err != nil {
		t.Fatalf("accepted block does not re-encode: %v", err)
	}
	blk2, err := decodeBlock(again)
	if err != nil {
		t.Fatalf("re-encoded block does not read back: %v\n%q", err, again)
	}
	t1, a1 := blk.canonical()
	t2, a2 := blk2.canonical()
	if blk2.id != blk.id || !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(a1, a2) {
		t.Fatalf("block changed across a write/read round trip:\nid %d → %d\ntriples %q → %q\nanchors %q → %q",
			blk.id, blk2.id, t1, t2, a1, a2)
	}
	third, err := blk2.encode()
	if err != nil || !bytes.Equal(third, again) {
		t.Fatalf("re-encoding a written block changed its bytes (err %v):\n%q\n%q", err, again, third)
	}
	return again
}

// FuzzReadBlock covers every byte of store state that arrives from outside
// the process — segment files and snapshot blocks from disk, handoff streams
// from a peer, in the binary format and in the text one still read — because
// all of it goes through readBlock: it must never panic, and whatever it
// accepts must have the round-trip property.
func FuzzReadBlock(f *testing.F) {
	segFile, head, residue := realBlocks(f)
	f.Add(segFile)
	f.Add(head)
	f.Add(residue)
	f.Add([]byte(v1Block))
	f.Add([]byte(blockMagicV1 + "META {}\nTRIPLES 0\nANCHORS 0\n"))
	// Two spellings of one literal are one term, and so one triple, of the
	// block written back.
	f.Add([]byte(blockMagicV1 + "META {}\nTRIPLES 2\n<a> <b> \"x\" .\n" +
		"<a> <b> \"x\"^^<" + rdf.XSDString + "> .\nANCHORS 0\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := decodeBlock(data)
		if err != nil {
			return
		}
		checkRoundTrip(t, blk)
	})
}

// TestRealBlocksRoundTrip runs the fuzz property over the seed blocks and
// pins what each seed is, so the corpus keeps covering all shapes of both
// versions.
func TestRealBlocksRoundTrip(t *testing.T) {
	segFile, head, residue := realBlocks(t)
	v1Seg, err := os.ReadFile(filepath.Join(goldenV1Dir, "seg-0000000000000001.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name             string
		data             []byte
		v1               bool
		sealed, anchored bool
	}{
		{"segment file", segFile, false, true, true},
		{"head block", head, false, false, true},
		{"residue block", residue, false, false, false},
		{"v1 block", []byte(v1Block), true, true, true},
		{"v1 segment file", v1Seg, true, true, true},
	} {
		if got := strings.HasPrefix(string(tc.data), blockMagicV1); got != tc.v1 || (!got && !strings.HasPrefix(string(tc.data), blockMagic)) {
			t.Errorf("%s: starts %q", tc.name, tc.data[:len(blockMagic)])
		}
		blk, err := decodeBlock(tc.data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (blk.id != 0) != tc.sealed || (len(blk.anchors) > 0) != tc.anchored || len(blk.triples) == 0 {
			t.Errorf("%s: id=%d triples=%d anchors=%d", tc.name, blk.id, len(blk.triples), len(blk.anchors))
		}
		again := checkRoundTrip(t, blk)
		if !tc.v1 && !bytes.Equal(again, tc.data) {
			t.Errorf("%s: re-encoded bytes differ from the product writer's", tc.name)
		}
		if tc.v1 && len(again) >= len(tc.data) {
			t.Errorf("%s: %d bytes of text became %d bytes of v2", tc.name, len(tc.data), len(again))
		}
	}
}

// TestBlockIsCanonical: equal tiers serialise to equal bytes whatever order
// their triples were inserted in and whatever else their dictionary holds.
func TestBlockIsCanonical(t *testing.T) {
	blk, err := decodeBlock([]byte(v1Block))
	if err != nil {
		t.Fatal(err)
	}
	want, err := blk.encode()
	if err != nil {
		t.Fatal(err)
	}
	dict := rdf.NewDictionary()
	for i := 0; i < 50; i++ {
		dict.Encode(rdf.NewIRI(fmt.Sprintf("http://x/unrelated/%d", i)))
	}
	g := rdf.NewHead(dict)
	for i := len(blk.triples) - 1; i >= 0; i-- {
		g.AddBatch(blk.triples[i : i+1])
	}
	// A second dictionary entry with the same rendering must not show.
	lon := blk.triples[0]
	g.AddBatch([]rdf.TermTriple{
		{S: lon.S, P: lon.P, O: rdf.Term{Kind: rdf.Literal, Value: lon.O.Value, Datatype: lon.O.Datatype, Lang: ""}},
		{S: rdf.NewIRI("http://x/n1"), P: rdf.NewIRI("http://x/name"), O: rdf.Term{Kind: rdf.Literal, Value: `a "b"`, Lang: "en", Datatype: rdf.XSDString}},
	})
	node, _ := dict.Encode(blk.anchors[0].node)
	entries := []anchor{{pt: blk.anchors[0].pt, ts: blk.anchors[0].ts, node: node}}
	var buf bytes.Buffer
	bw := bufio.NewWriter(&buf)
	if err := newBlockWriter(dict).writeBlock(bw, blk.id, g, entries, true); err != nil {
		t.Fatal(err)
	}
	bw.Flush()
	if !bytes.Equal(buf.Bytes(), want) {
		t.Errorf("same tier, other insertion order and dictionary: bytes differ\n%q\n%q", buf.Bytes(), want)
	}
}
