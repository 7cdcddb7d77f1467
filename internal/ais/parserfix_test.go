package ais

import (
	"strconv"
	"strings"
	"testing"
)

// reframe rewrites the total/num/seq fields of a valid AIVDM line with the
// given raw text and recomputes the checksum, producing wire-legal but
// non-canonical field spellings like a zero-padded total "01".
func reframe(t *testing.T, line, total, num, seq string) string {
	t.Helper()
	star := strings.LastIndexByte(line, '*')
	fields := strings.Split(line[1:star], ",")
	if len(fields) != 7 {
		t.Fatalf("reframe: %d fields in %q", len(fields), line)
	}
	fields[1], fields[2], fields[3] = total, num, seq
	body := strings.Join(fields, ",")
	return string(line[0]) + body + "*" + Checksum(body)
}

func posLine(t *testing.T, mmsi uint32) string {
	t.Helper()
	m := PositionReport{MsgType: TypePositionA, MMSI: mmsi, Lon: 24.1, Lat: 37.9, SOG: 12.3, COG: 90, Second: 30}
	payload, fill, err := m.Encode()
	if err != nil {
		t.Fatal(err)
	}
	return ToSentences(payload, fill, 0, "A")[0]
}

// fullParseKey derives the routing key the slow way — through the full
// sentence parse that the owning worker will eventually run — so the tests
// below can assert RoutingKey's cheap scan always agrees with it.
func fullParseKey(t *testing.T, line string) string {
	t.Helper()
	s, err := ParseSentence(line)
	if err != nil {
		t.Fatalf("full parse of %q: %v", line, err)
	}
	if s.Total != 1 {
		seq := ""
		if s.SeqID >= 0 {
			seq = strconv.Itoa(s.SeqID)
		}
		return FragmentKey(seq, s.Channel)
	}
	mmsi, ok := payloadMMSI(s.Payload)
	if !ok {
		t.Fatalf("no MMSI in %q", line)
	}
	return strconv.FormatUint(uint64(mmsi), 10)
}

// A single-sentence message with a non-canonical total field like "01" must
// route by MMSI — the same key the full parse derives — not as a fragment
// of a multi-sentence message, which would land it on a worker that never
// assembles it.
func TestRoutingKeyCanonicalisesTotal(t *testing.T) {
	base := posLine(t, 237000123)
	for _, tc := range []struct{ total, num string }{
		{"1", "1"},   // canonical
		{"01", "01"}, // zero-padded
		{"001", "1"}, // longer padding
	} {
		line := reframe(t, base, tc.total, tc.num, "")
		key, ok := RoutingKey(line)
		if !ok {
			t.Fatalf("RoutingKey(%q) not ok", line)
		}
		if want := fullParseKey(t, line); key != want {
			t.Errorf("total=%q: RoutingKey = %q, full parse derives %q", tc.total, key, want)
		}
		if key != "237000123" {
			t.Errorf("total=%q: key = %q, want MMSI key", tc.total, key)
		}
	}
}

// Fragments with zero-padded totals and sequence ids must still derive the
// same fragment key both ways.
func TestRoutingKeyFragmentsCanonical(t *testing.T) {
	sv := StaticVoyage{MMSI: 237000123, Name: "TEST VESSEL"}
	payload, fill, err := sv.Encode()
	if err != nil {
		t.Fatal(err)
	}
	lines := ToSentences(payload, fill, 5, "B")
	if len(lines) != 2 {
		t.Fatalf("need a 2-sentence message, got %d", len(lines))
	}
	variants := []string{
		lines[0],
		reframe(t, lines[0], "02", "01", "5"),
		reframe(t, lines[0], "2", "1", "05"),
	}
	keys := map[string]bool{}
	for _, line := range variants {
		key, ok := RoutingKey(line)
		if !ok {
			t.Fatalf("RoutingKey(%q) not ok", line)
		}
		if want := fullParseKey(t, line); key != want {
			t.Errorf("RoutingKey(%q) = %q, full parse derives %q", line, key, want)
		}
		keys[key] = true
	}
	if len(keys) != 1 {
		t.Errorf("canonical and padded fragments routed to %d keys: %v", len(keys), keys)
	}
}

// Trailing bytes after the two checksum hex digits are a framing error:
// they previously slipped through because only line[star+1:star+3] was
// compared.
func TestParseSentenceTrailingGarbage(t *testing.T) {
	valid := "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C"
	if _, err := ParseSentence(valid); err != nil {
		t.Fatalf("control line rejected: %v", err)
	}
	for _, suffix := range []string{"junk", "0", " ", "*5C"} {
		if _, err := ParseSentence(valid + suffix); err == nil {
			t.Errorf("trailing %q after checksum must be rejected", suffix)
		}
	}
	// CR/LF framing is not garbage; lowercase checksum digits stay accepted.
	lowerCS := valid[:len(valid)-2] + strings.ToLower(valid[len(valid)-2:])
	for _, line := range []string{valid + "\r\n", valid + "\n", lowerCS} {
		if _, err := ParseSentence(line); err != nil {
			t.Errorf("ParseSentence(%q) = %v, want ok", line, err)
		}
	}
}

// The hot parse path must not allocate for well-formed single-sentence
// lines.
func TestParseSentenceAllocFree(t *testing.T) {
	line := posLine(t, 237000123)
	if avg := testing.AllocsPerRun(200, func() {
		if _, err := ParseSentence(line); err != nil {
			t.Fatal(err)
		}
	}); avg != 0 {
		t.Errorf("ParseSentence allocates %v times per line", avg)
	}
}
