package ais

import (
	"strconv"
	"strings"
)

// routeFields is the prefix of an AIVDM line that routing decisions need,
// scanned without allocation.
type routeFields struct {
	total   string // field 1, raw text
	seq     string // field 3
	channel string // field 4
	payload string // field 5
}

// splitRoute scans the comma-separated fields routing needs. ok is false
// when the line is not recognisably AIVDM.
func splitRoute(line string) (routeFields, bool) {
	var f routeFields
	line = trimCRLF(line)
	if len(line) < 2 || (line[0] != '!' && line[0] != '$') {
		return f, false
	}
	rest := line[1:]
	// Fields: AIVDM,total,num,seq,chan,payload,fill*CS
	for i := 0; i < 5; i++ {
		c := strings.IndexByte(rest, ',')
		if c < 0 {
			return f, false
		}
		field := rest[:c]
		rest = rest[c+1:]
		switch i {
		case 0:
			if field != "AIVDM" && field != "AIVDO" {
				return f, false
			}
		case 1:
			f.total = field
		case 3:
			f.seq = field
		case 4:
			f.channel = field
		}
	}
	// Field 5 runs to the next comma (or line end on truncated input, like
	// the SplitN scan this replaces).
	if c := strings.IndexByte(rest, ','); c >= 0 {
		f.payload = rest[:c]
	} else {
		f.payload = rest
	}
	return f, true
}

// RoutingKey extracts a cheap per-entity routing key from one AIVDM line
// without full decode or checksum verification: the 30-bit MMSI unpacked
// from the first payload characters for single-sentence messages, or a
// (sequence id, channel) key for fragments of multi-sentence messages so
// that every fragment of one message reaches the same assembler. The
// parallel ingest front-end hashes this key to pick a worker, which keeps
// all reports of one entity on one worker (per-entity decoder and
// compressor state stays single-writer) while different entities spread
// across workers.
//
// The total field is canonicalised through an integer parse that reads
// exactly what ParseSentence's strconv.Atoi reads, so a non-canonical
// single-sentence total like "01" routes by MMSI exactly like the "1" it
// decodes as — not as a fragment key that could land the report on a
// worker that never assembles it.
//
// ok is false when the line is not recognisably AIVDM; such lines can be
// routed anywhere (they will be counted as bad lines downstream).
func RoutingKey(line string) (key string, ok bool) {
	b, ok := AppendRoutingKey(nil, line)
	return string(b), ok
}

// AppendRoutingKey appends the routing key of line to dst — the one
// extractor; RoutingKey is its string form. It does not allocate when dst
// has room, so ingest and the cluster coordinator route through a scratch
// buffer. dst is returned unchanged when ok is false.
func AppendRoutingKey(dst []byte, line string) (out []byte, ok bool) {
	f, ok := splitRoute(line)
	if !ok {
		return dst, false
	}
	total, ok := atoi(f.total)
	if !ok {
		return dst, false
	}
	if total != 1 {
		// Multi-sentence: group fragments by sequence id + channel.
		return appendFragmentKey(dst, f.seq, f.channel), true
	}
	mmsi, ok := payloadMMSI(f.payload)
	if !ok {
		return dst, false
	}
	return strconv.AppendUint(dst, uint64(mmsi), 10), true
}

// FragmentKey is the routing key of a multi-sentence fragment group, for
// callers that hold a parsed Sentence rather than the raw line (snapshot
// restore partitioning in internal/core).
func FragmentKey(seq, channel string) string {
	return string(appendFragmentKey(nil, seq, channel))
}

// appendFragmentKey canonicalises the sequence id through integer parsing,
// so non-canonical field text like a zero-padded "05" and the "5" a parsed
// Sentence renders yield one key.
func appendFragmentKey(dst []byte, seq, channel string) []byte {
	dst = append(dst, "seq:"...)
	if n, ok := atoi(seq); ok {
		dst = strconv.AppendInt(dst, int64(n), 10)
	} else {
		dst = append(dst, seq...)
	}
	dst = append(dst, ':')
	return append(dst, channel...)
}

// atoi reads s as strconv.Atoi does — an optional sign, then decimal digits
// that fit an int — but answers a malformed field with false instead of an
// allocated *NumError, so routing a bad line costs what routing a good one
// does.
func atoi(s string) (n int, ok bool) {
	neg := false
	if s != "" && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		s = s[1:]
	}
	if s == "" {
		return 0, false
	}
	const limit = 1 << (strconv.IntSize - 1) // magnitude of the most negative int
	var u uint64
	for i := 0; i < len(s); i++ {
		d := s[i] - '0'
		if d > 9 || u > limit/10 {
			return 0, false
		}
		u = u*10 + uint64(d)
	}
	if neg {
		return int(-int64(u)), u <= limit
	}
	return int(u), u < limit
}

// payloadMMSI unpacks the MMSI (bits 8..37) from the first seven armored
// payload characters of any AIS message — every message type carries
// (type:6, repeat:2, mmsi:30) first.
func payloadMMSI(payload string) (uint32, bool) {
	if len(payload) < 7 {
		return 0, false
	}
	var bits uint64
	for i := 0; i < 7; i++ {
		v, err := dearmorChar(payload[i])
		if err != nil {
			return 0, false
		}
		bits = bits<<6 | uint64(v)
	}
	// 42 bits collected; MMSI occupies bits 8..37 from the top.
	return uint32(bits >> 4 & 0x3FFFFFFF), true
}
