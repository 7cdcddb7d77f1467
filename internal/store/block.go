package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"strings"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/rdf"
)

// The block is the unit of serialised store state, and this file is its
// only definition. One block carries one tier of one shard — a graph plus
// the slice of the spatiotemporal index anchored in it:
//
//	DATACRON-SEG v1
//	META <json>
//	TRIPLES <n>   followed by n canonical N-Triples lines
//	ANCHORS <m>   followed by m anchor lines "<ts> <lon> <lat> <alt> <node IRI>"
//
// A sealed segment file (seg-*.seg) is one block; a cluster handoff stream
// is a sequence of blocks; a snapshot's shard-NNN.nt / shard-NNN.anchors
// pair is the mutable tiers' two bodies without the framing. Everything is
// dictionary-independent text: readers re-encode terms into their own
// dictionary. Floats use strconv 'g'/-1 formatting, which round-trips
// exactly, and the N-Triples writer sorts lines, so equal tiers serialise
// to equal bytes regardless of insertion order.
//
// Replacing the text layout with a binary one (ROADMAP item 3c) means
// replacing the bodies of the functions below and nothing else.

const (
	blockMagic = "DATACRON-SEG v1"
	// maxLineBytes bounds one line of any store file or handoff stream.
	maxLineBytes = 4 << 20
	// untilEOF, as a body's line count, reads the rest of the input: the
	// unframed .nt and .anchors files end where the file does.
	untilEOF = -1
)

// blockMeta is the JSON header of a block. Only ID is read back; the rest
// is written for offline inspection of the self-describing file — loaders
// recompute statistics from the anchors and triples actually present.
type blockMeta struct {
	ID      uint64  `json:"id"`
	Triples int     `json:"triples"`
	Anchors int     `json:"anchors"`
	MinTS   int64   `json:"minTS"`
	MaxTS   int64   `json:"maxTS"`
	MinLon  float64 `json:"minLon"`
	MinLat  float64 `json:"minLat"`
	MaxLon  float64 `json:"maxLon"`
	MaxLat  float64 `json:"maxLat"`
	// Preds is the predicate histogram keyed by predicate IRI (segment
	// files only).
	Preds map[string]int `json:"preds,omitempty"`
}

// writeBlock writes one block for graph g and its anchors. id is the sealed
// segment's id, 0 for a mutable head in transit; preds (may be nil) is the
// predicate histogram a segment file records.
func writeBlock(bw *bufio.Writer, id uint64, g rdf.Graph, entries []anchor, preds map[rdf.ID]int, dict *rdf.Dictionary) error {
	minTS, maxTS, box := anchorStats(entries)
	if len(entries) == 0 {
		box = geo.BBox{} // the empty box is ±Inf, which JSON cannot carry
	}
	meta := blockMeta{
		ID: id, Triples: g.Len(), Anchors: len(entries),
		MinTS: minTS, MaxTS: maxTS,
		MinLon: box.MinLon, MinLat: box.MinLat,
		MaxLon: box.MaxLon, MaxLat: box.MaxLat,
	}
	if len(preds) > 0 {
		meta.Preds = make(map[string]int, len(preds))
		for p, n := range preds {
			if term, ok := dict.Decode(p); ok {
				meta.Preds[term.Value] = n
			}
		}
	}
	mj, err := json.Marshal(meta)
	if err != nil {
		return err
	}
	fmt.Fprintf(bw, "%s\nMETA %s\nTRIPLES %d\n", blockMagic, mj, g.Len())
	if err := rdf.WriteNTriples(bw, g); err != nil {
		return err
	}
	fmt.Fprintf(bw, "ANCHORS %d\n", len(entries))
	return writeAnchors(bw, entries, dict)
}

// writeAnchors appends one anchor line per entry to bw. Write errors stick
// to bw and surface at its Flush.
func writeAnchors(bw *bufio.Writer, entries []anchor, dict *rdf.Dictionary) error {
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, e := range entries {
		term, ok := dict.Decode(e.node)
		if !ok {
			return fmt.Errorf("anchor node id %d not in dictionary", e.node)
		}
		fmt.Fprintf(bw, "%d %s %s %s %s\n", e.ts, g(e.pt.Lon), g(e.pt.Lat), g(e.pt.Alt), term.Value)
	}
	return nil
}

// parseAnchorLine parses one "<ts> <lon> <lat> <alt> <node IRI>" line.
func parseAnchorLine(line string) (ts int64, pt geo.Point, iri string, err error) {
	parts := strings.SplitN(line, " ", 5)
	if len(parts) != 5 {
		return 0, geo.Point{}, "", fmt.Errorf("malformed anchor %q", line)
	}
	if ts, err = strconv.ParseInt(parts[0], 10, 64); err != nil {
		return 0, geo.Point{}, "", err
	}
	var coord [3]float64
	for j := 0; j < 3; j++ {
		if coord[j], err = strconv.ParseFloat(parts[j+1], 64); err != nil {
			return 0, geo.Point{}, "", err
		}
	}
	if strings.HasSuffix(parts[4], "\r") {
		// Lines are split the way bufio.ScanLines does, which eats one CR
		// before the newline: such a node would not read back as written.
		return 0, geo.Point{}, "", fmt.Errorf("anchor node %q ends in a carriage return", parts[4])
	}
	return ts, geo.Point{Lon: coord[0], Lat: coord[1], Alt: coord[2]}, parts[4], nil
}

// blockReader reads blocks, or unframed block bodies, off one input. It
// counts lines so that every error names where the input went wrong —
// the bytes come from disk or from a cluster peer, and are not trusted:
// nothing is allocated from a count the input declares.
type blockReader struct {
	sc   *bufio.Scanner
	line int // 1-based number of the line next returned last, 0 before the first
}

func newBlockReader(r io.Reader) *blockReader {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), maxLineBytes)
	return &blockReader{sc: sc}
}

// next returns the next line, io.EOF (bare) where the input ends cleanly.
func (br *blockReader) next() (string, error) {
	if !br.sc.Scan() {
		if err := br.sc.Err(); err != nil {
			return "", br.errorf("%w", err)
		}
		return "", io.EOF
	}
	br.line++
	return br.sc.Text(), nil
}

func (br *blockReader) errorf(format string, args ...any) error {
	return fmt.Errorf("line %d: "+format, append([]any{br.line}, args...)...)
}

// field reads the next line, which must start with prefix, and returns the
// rest of it.
func (br *blockReader) field(prefix string) (string, error) {
	line, err := br.next()
	if err == io.EOF {
		err = br.errorf("truncated block: missing %q", prefix)
	}
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(line, prefix) {
		return "", br.errorf("expected %q, got %q", prefix, line)
	}
	return strings.TrimSpace(line[len(prefix):]), nil
}

// count reads a "<prefix><n>" framing line.
func (br *blockReader) count(prefix string) (int, error) {
	s, err := br.field(prefix)
	if err != nil {
		return 0, err
	}
	n, err := strconv.Atoi(s)
	if err != nil || n < 0 {
		return 0, br.errorf("bad %scount %q", strings.ToLower(prefix), s)
	}
	return n, nil
}

// readBlock reads one block, feeding its triples and then its anchors to
// the callbacks in input order. It returns io.EOF (bare) when the input ends
// cleanly before a block starts.
func (br *blockReader) readBlock(triple func(s, p, o rdf.Term), anchor func(ts int64, pt geo.Point, iri string)) (id uint64, err error) {
	line, err := br.next()
	if err != nil {
		return 0, err
	}
	if line != blockMagic {
		return 0, br.errorf("expected block header %q, got %q", blockMagic, line)
	}
	mj, err := br.field("META ")
	if err != nil {
		return 0, err
	}
	var meta blockMeta
	if err := json.Unmarshal([]byte(mj), &meta); err != nil {
		return 0, br.errorf("block meta: %w", err)
	}
	n, err := br.count("TRIPLES ")
	if err != nil {
		return 0, err
	}
	if err := br.readTriples(n, triple); err != nil {
		return 0, err
	}
	if n, err = br.count("ANCHORS "); err != nil {
		return 0, err
	}
	return meta.ID, br.readAnchors(n, anchor)
}

// readTriples feeds the next n N-Triples lines to fn.
func (br *blockReader) readTriples(n int, fn func(s, p, o rdf.Term)) error {
	return br.body(n, "triple", func(line string) error {
		s, p, o, err := rdf.ParseTripleLine(line)
		if err == nil {
			fn(s, p, o)
		}
		return err
	})
}

// readAnchors feeds the next n anchor lines to fn.
func (br *blockReader) readAnchors(n int, fn func(ts int64, pt geo.Point, iri string)) error {
	return br.body(n, "anchor", func(line string) error {
		ts, pt, iri, err := parseAnchorLine(line)
		if err == nil {
			fn(ts, pt, iri)
		}
		return err
	})
}

// body parses the next n lines, or with n == untilEOF every remaining one,
// skipping the blank and '#' comment lines an unframed file may carry.
func (br *blockReader) body(n int, what string, parse func(line string) error) error {
	for k := 0; k != n; k++ {
		line, err := br.next()
		if err == io.EOF && n == untilEOF {
			return nil
		}
		if err == io.EOF {
			err = br.errorf("truncated block: %d of %d %ss", k, n, what)
		}
		if err != nil {
			return err
		}
		if n == untilEOF {
			if t := strings.TrimSpace(line); t == "" || t[0] == '#' {
				continue
			}
		}
		if err := parse(line); err != nil {
			return br.errorf("%s: %w", what, err)
		}
	}
	return nil
}
