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

// The reader of "DATACRON-SEG v1", the text block builds up to PR 19 wrote.
// Nothing writes it any more; it is reached only through the magic of a v1
// block (readBlock) and the file names of a format-2 snapshot directory
// (loadShardV1), and is the only path for that input. ROADMAP item 3 dates
// its removal.
//
//	DATACRON-SEG v1
//	META <json>
//	TRIPLES <n>   followed by n N-Triples lines
//	ANCHORS <m>   followed by m anchor lines "<ts> <lon> <lat> <alt> <node IRI>"
//
// A format-2 snapshot's shard-NNN.nt / shard-NNN.anchors pair is the mutable
// tiers' two bodies without the framing, each ending where its file does.

const (
	blockMagicV1 = "DATACRON-SEG v1\n"
	// untilEOF, as a body's line count, reads the rest of the input.
	untilEOF = -1
)

// v1Terms numbers the terms of a text block in order of first appearance,
// announcing each to the sink once: text repeats a term wherever it is used.
type v1Terms struct {
	sink  blockSink
	index map[rdf.Term]uint32
}

func newV1Terms(sink blockSink) *v1Terms {
	return &v1Terms{sink: sink, index: make(map[rdf.Term]uint32)}
}

func (vt *v1Terms) of(t rdf.Term) uint32 {
	i, ok := vt.index[t]
	if !ok {
		i = uint32(len(vt.index))
		vt.index[t] = i
		vt.sink.term(t)
	}
	return i
}

// nextLine returns the next line without its end-of-line marker ("\n" or
// "\r\n"), io.EOF (bare) where the input ends cleanly.
func (br *blockReader) nextLine() (string, error) {
	br.buf = br.buf[:0]
	br.line++
	for more := true; more; {
		chunk, err := br.r.ReadSlice('\n')
		br.buf = append(br.buf, chunk...)
		br.off += int64(len(chunk))
		switch {
		case err == nil, err == io.EOF && len(br.buf) > 0:
			more = false
		case err == io.EOF:
			br.line--
			return "", io.EOF
		case err != bufio.ErrBufferFull:
			return "", br.lineErrorf("%w", err)
		case len(br.buf) > maxTermBytes:
			return "", br.lineErrorf("line longer than %d bytes", maxTermBytes)
		}
	}
	line := strings.TrimSuffix(string(br.buf), "\n")
	return strings.TrimSuffix(line, "\r"), nil
}

func (br *blockReader) lineErrorf(format string, args ...any) error {
	return fmt.Errorf("line %d: "+format, append([]any{br.line}, args...)...)
}

// field reads the next line, which must start with prefix, and returns the
// rest of it.
func (br *blockReader) field(prefix string) (string, error) {
	line, err := br.nextLine()
	if err == io.EOF {
		err = br.lineErrorf("truncated block: missing %q", prefix)
	}
	if err != nil {
		return "", err
	}
	if !strings.HasPrefix(line, prefix) {
		return "", br.lineErrorf("expected %q, got %q", prefix, line)
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
		return 0, br.lineErrorf("bad %scount %q", strings.ToLower(prefix), s)
	}
	return n, nil
}

// readBlockV1 reads one text block whose magic line is next.
func (br *blockReader) readBlockV1(sink blockSink) (id uint64, err error) {
	if _, err := br.nextLine(); err != nil {
		return 0, err
	}
	mj, err := br.field("META ")
	if err != nil {
		return 0, err
	}
	var meta struct {
		ID uint64 `json:"id"`
	}
	if err := json.Unmarshal([]byte(mj), &meta); err != nil {
		return 0, br.lineErrorf("block meta: %w", err)
	}
	vt := newV1Terms(sink)
	n, err := br.count("TRIPLES ")
	if err != nil {
		return 0, err
	}
	if err := br.readTriplesV1(n, vt); err != nil {
		return 0, err
	}
	if n, err = br.count("ANCHORS "); err != nil {
		return 0, err
	}
	return meta.ID, br.readAnchorsV1(n, vt)
}

// readTriplesV1 feeds the next n N-Triples lines to the sink.
func (br *blockReader) readTriplesV1(n int, vt *v1Terms) error {
	return br.body(n, "triple", func(line string) error {
		s, p, o, err := rdf.ParseTripleLine(line)
		if err == nil {
			vt.sink.triple(vt.of(s), vt.of(p), vt.of(o))
		}
		return err
	})
}

// readAnchorsV1 feeds the next n anchor lines to the sink.
func (br *blockReader) readAnchorsV1(n int, vt *v1Terms) error {
	return br.body(n, "anchor", func(line string) error {
		ts, pt, iri, err := parseAnchorLine(line)
		if err == nil {
			vt.sink.anchor(ts, pt, vt.of(rdf.NewIRI(iri)))
		}
		return err
	})
}

// body parses the next n lines, or with n == untilEOF every remaining one,
// skipping the blank and '#' comment lines an unframed file may carry.
func (br *blockReader) body(n int, what string, parse func(line string) error) error {
	for k := 0; k != n; k++ {
		line, err := br.nextLine()
		if err == io.EOF && n == untilEOF {
			return nil
		}
		if err == io.EOF {
			err = br.lineErrorf("truncated block: %d of %d %ss", k, n, what)
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
			return br.lineErrorf("%s: %w", what, err)
		}
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
	return ts, geo.Point{Lon: coord[0], Lat: coord[1], Alt: coord[2]}, parts[4], nil
}
