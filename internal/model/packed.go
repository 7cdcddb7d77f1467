package model

import (
	"bytes"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/bits"
	"slices"
)

// The packed form of a position sequence: what operator state (history
// rings, stream-fed trajectories) is snapshotted as. A sequence is cut into
// runs of consecutive positions that share an entity and a domain:
//
//	run   := uvarint(len(entity)) entity  domain:u8  mask:u8  uvarint(count)  point × count
//	point := varint(TS − previous TS; the first against 0)
//	         one 8-byte little-endian IEEE 754 pattern per column in mask
//	         status:u8
//
// mask bit i keeps column i of packedColumns; a column whose every value in
// the run is +0 (a vessel's Alt and VertRateMS) is left out. Floats travel as
// their bits and timestamps as wrapping differences, so a round trip is exact
// for NaN payloads, −0, ±Inf and any int64 — recovery must rebuild the state
// the crashed process held, not one near it. ≈ 35 bytes a maritime point
// against ≈ 200 as a JSON object.

// packedColumns is the number of float columns of a point, and columns /
// setColumns their order: the mask-bit order.
const packedColumns = 6

func (p *Position) columns() [packedColumns]float64 {
	return [...]float64{p.Pt.Lon, p.Pt.Lat, p.Pt.Alt, p.SpeedMS, p.CourseDeg, p.VertRateMS}
}

func (p *Position) setColumns(c [packedColumns]float64) {
	p.Pt.Lon, p.Pt.Lat, p.Pt.Alt, p.SpeedMS, p.CourseDeg, p.VertRateMS = c[0], c[1], c[2], c[3], c[4], c[5]
}

// AppendPositions appends the packed form of pts to dst.
func AppendPositions(dst []byte, pts []Position) []byte {
	for len(pts) > 0 {
		n := 1
		for n < len(pts) && pts[n].EntityID == pts[0].EntityID && pts[n].Domain == pts[0].Domain {
			n++
		}
		dst = appendRun(dst, pts[:n])
		pts = pts[n:]
	}
	return dst
}

func appendRun(dst []byte, run []Position) []byte {
	var mask uint8
	for i := range run {
		for c, v := range run[i].columns() {
			if math.Float64bits(v) != 0 {
				mask |= 1 << c
			}
		}
	}
	dst = binary.AppendUvarint(dst, uint64(len(run[0].EntityID)))
	dst = append(dst, run[0].EntityID...)
	dst = append(dst, uint8(run[0].Domain), mask)
	dst = binary.AppendUvarint(dst, uint64(len(run)))
	var prev int64
	for i := range run {
		p := &run[i]
		dst = binary.AppendVarint(dst, p.TS-prev)
		prev = p.TS
		for c, v := range p.columns() {
			if mask&(1<<c) != 0 {
				dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(v))
			}
		}
		dst = append(dst, uint8(p.Status))
	}
	return dst
}

var errPackedTruncated = errors.New("model: packed positions: truncated")

// DecodePositions is the inverse of AppendPositions. The bytes may come from
// a snapshot on disk: a damaged input is an error, and nothing is allocated
// from a count the input declares before the input is seen to be long enough
// to hold it. The points of a run share one EntityID string.
func DecodePositions(data []byte) ([]Position, error) {
	return AppendDecodedPositions(nil, data)
}

// AppendDecodedPositions is DecodePositions appending to out, so a caller
// that converts sequence after sequence decodes them all through one
// buffer.
func AppendDecodedPositions(out []Position, data []byte) ([]Position, error) {
	for len(data) > 0 {
		idLen, n := binary.Uvarint(data)
		if n <= 0 || idLen > uint64(len(data)-n) {
			return nil, errPackedTruncated
		}
		entity := string(data[n : n+int(idLen)])
		data = data[n+int(idLen):]
		if len(data) < 2 {
			return nil, errPackedTruncated
		}
		domain, mask := Domain(data[0]), data[1]
		if mask>>packedColumns != 0 {
			return nil, fmt.Errorf("model: packed positions: unknown column mask %#x", mask)
		}
		count, n := binary.Uvarint(data[2:])
		if n <= 0 {
			return nil, errPackedTruncated
		}
		data = data[2+n:]
		// After its timestamp, of at least one byte, a point is its columns
		// and a status.
		tail := 8*bits.OnesCount8(mask) + 1
		if count == 0 || count > uint64(len(data)/(1+tail)) {
			return nil, errPackedTruncated
		}
		out = slices.Grow(out, int(count))
		var prev int64
		for ; count > 0; count-- {
			dt, n := binary.Varint(data)
			if n <= 0 || len(data)-n < tail {
				return nil, errPackedTruncated
			}
			data = data[n:]
			prev += dt
			p := Position{EntityID: entity, Domain: domain, TS: prev}
			var cols [packedColumns]float64
			for c := range cols {
				if mask&(1<<c) != 0 {
					cols[c] = math.Float64frombits(binary.LittleEndian.Uint64(data))
					data = data[8:]
				}
			}
			p.setColumns(cols)
			p.Status = NavStatus(data[0])
			data = data[1:]
			out = append(out, p)
		}
	}
	return out, nil
}

// PackedPositions is a position sequence in packed form, the type operator
// state carries positions as in a snapshot's state.json: encoding/json writes
// it as one base64 string.
type PackedPositions []byte

// PackPositions packs pts.
func PackPositions(pts []Position) PackedPositions {
	return AppendPositions(make([]byte, 0, 40*len(pts)), pts)
}

// UnmarshalJSON reads the base64 string a PackedPositions marshals to; null
// reads as no positions, and any other JSON value is an error.
func (pp *PackedPositions) UnmarshalJSON(data []byte) error {
	switch {
	case string(data) == "null":
		*pp = nil
		return nil
	case len(data) == 0 || data[0] != '"':
		return fmt.Errorf("model: packed positions: not a base64 string: %.20s", data)
	case bytes.IndexByte(data, '\\') >= 0:
		return json.Unmarshal(data, (*[]byte)(pp))
	}
	// data is a valid JSON string without an escape — all that encoding/json
	// writes base64 as — so it decodes in place; handing it back to
	// encoding/json would scan its megabytes a second time.
	raw, err := base64.StdEncoding.AppendDecode(nil, data[1:len(data)-1])
	if err != nil {
		return fmt.Errorf("model: packed positions: %w", err)
	}
	*pp = raw
	return nil
}
