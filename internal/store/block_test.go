package store

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
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

// smallBlock is a sealed segment's content at term level: three triples —
// a typed literal, a literal with a language and an escaped quote, a blank
// subject — and one anchor.
var smallBlock = decodedBlock{
	id: 7,
	triples: []onto.TripleT{
		{S: rdf.NewIRI("http://x/n1"), P: rdf.NewIRI("http://x/lon"), O: rdf.NewTyped("23.5", rdf.XSDDouble)},
		{S: rdf.NewIRI("http://x/n1"), P: rdf.NewIRI("http://x/name"), O: rdf.Term{Kind: rdf.Literal, Value: `a "b"`, Lang: "en"}},
		{S: rdf.NewBlank("b0"), P: rdf.NewIRI("http://x/of"), O: rdf.NewIRI("http://x/n1")},
	},
	anchors: []stagedAnchor{{pt: geo.Point{Lon: 23.5, Lat: 37.5}, ts: 1000, node: rdf.NewIRI("http://x/n1")}},
}

// v1Block is smallBlock as the text format of earlier builds spelled it:
// input that no reader accepts any more.
var v1Block = strings.Replace(blockMagic, "v2", "v1", 1) +
	`META {"id":7,"triples":3,"anchors":1,"minTS":1000,"maxTS":1000,"minLon":23.5,"minLat":37.5,"maxLon":23.5,"maxLat":37.5}` + "\n" +
	"TRIPLES 3\n" +
	"<http://x/n1> <http://x/lon> \"23.5\"^^<" + rdf.XSDDouble + "> .\n" +
	"<http://x/n1> <http://x/name> \"a \\\"b\\\"\"@en .\n" +
	"_:b0 <http://x/of> <http://x/n1> .\n" +
	"ANCHORS 1\n" +
	"1000 23.5 37.5 0 http://x/n1\n"

// handBlock assembles an anchorless block record by record from a term
// table and index triples, checked by nothing on the way: it can hold what
// the writer never produces.
func handBlock(terms []rdf.Term, triples [][3]uint64) []byte {
	b := appendRecord([]byte(blockMagic), blockLayout.header,
		[]uint64{0, uint64(len(terms)), uint64(len(triples)), 0, 0, 0, 0, 0, 0, 0, 0})
	for _, t := range terms {
		b = appendRecord(b, blockLayout.term, []uint64{uint64(t.Kind)}, t.Value, t.Datatype, t.Lang)
	}
	for _, tr := range triples {
		b = appendRecord(b, blockLayout.triple, tr[:])
	}
	return appendRecord(b, blockLayout.trailer, []uint64{uint64(crc32.Checksum(b, castagnoli))})
}

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

// TestCorruptV1BlockIsAnError: the text blocks of earlier builds are not
// read any more. A whole one, the first line of a segment file of them and a
// block of an unknown version are each refused by both entry points as not a
// block, at the offset the input starts at.
func TestCorruptV1BlockIsAnError(t *testing.T) {
	for name, data := range map[string]string{
		"v1 block":                    v1Block,
		"v1 segment file's magic":     v1Block[:len(blockMagic)],
		"block of an unknown version": "DATACRON-SEG v9\nMETA {}\n",
	} {
		fileErr, streamErr := readBoth(nil, []byte(data))
		for entry, err := range map[string]error{"readSegment": fileErr, "ReadHandoff": streamErr} {
			if err == nil || !strings.Contains(err.Error(), "offset 0: not a block") {
				t.Errorf("%s via %s: %v, want an error saying offset 0 is not a block", name, entry, err)
			}
		}
	}
}

// checkRoundTrip is the property every accepted block has: it re-encodes,
// the re-encoding reads back to the same content, and re-encoding that
// changes no byte — the written form is canonical.
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
// from a peer — because all of it goes through readBlock, in the one format
// it reads: it must never panic, and whatever it accepts must have the
// round-trip property.
func FuzzReadBlock(f *testing.F) {
	segFile, head, residue := realBlocks(f)
	f.Add(segFile)
	f.Add(head)
	f.Add(residue)
	small, err := smallBlock.encode()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(small)
	f.Add(handBlock(nil, nil))
	// Two entries of one term in the table are one term, and so one triple,
	// of the block written back.
	f.Add(handBlock([]rdf.Term{rdf.NewIRI("a"), rdf.NewIRI("b"), rdf.NewLiteral("x"), rdf.NewLiteral("x")},
		[][3]uint64{{0, 1, 2}, {0, 1, 3}}))
	f.Fuzz(func(t *testing.T, data []byte) {
		blk, err := decodeBlock(data)
		if err != nil {
			return
		}
		checkRoundTrip(t, blk)
	})
}

// TestRealBlocksRoundTrip runs the fuzz property over the seed blocks the
// product writers made and pins what each seed is, so the corpus keeps
// covering all their shapes.
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
		if !bytes.HasPrefix(tc.data, []byte(blockMagic)) {
			t.Errorf("%s: starts %q", tc.name, tc.data[:len(blockMagic)])
		}
		blk, err := decodeBlock(tc.data)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if (blk.id != 0) != tc.sealed || (len(blk.anchors) > 0) != tc.anchored || len(blk.triples) == 0 {
			t.Errorf("%s: id=%d triples=%d anchors=%d", tc.name, blk.id, len(blk.triples), len(blk.anchors))
		}
		if again := checkRoundTrip(t, blk); !bytes.Equal(again, tc.data) {
			t.Errorf("%s: re-encoded bytes differ from the product writer's", tc.name)
		}
	}
}

// TestBlockIsCanonical: equal tiers serialise to equal bytes whatever order
// their triples were inserted in and whatever else their dictionary holds.
func TestBlockIsCanonical(t *testing.T) {
	blk := smallBlock
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
