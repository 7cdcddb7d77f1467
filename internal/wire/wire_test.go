package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"strings"
	"testing"
)

type rec struct {
	ts   int64
	line string
}

func buildFrame(t *testing.T, recs []rec) []byte {
	t.Helper()
	var e Encoder
	for _, r := range recs {
		e.Add(r.ts, r.line)
	}
	if e.Count() != len(recs) {
		t.Fatalf("Count = %d, want %d", e.Count(), len(recs))
	}
	return e.AppendFrame(nil)
}

func drain(t *testing.T, d *Decoder) []rec {
	t.Helper()
	var out []rec
	for {
		ts, line, ok := d.NextText()
		if !ok {
			break
		}
		out = append(out, rec{ts, line})
	}
	return out
}

func TestRoundTrip(t *testing.T) {
	cases := [][]rec{
		nil, // empty frame
		{{1700000000000, "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C"}},
		{
			{1700000000000, "first"},
			{1700000000250, "second"},
			{1700000000100, "timestamps may go backwards"}, // negative delta
			{1700000000100, ""},                            // empty line, zero delta
			{-5, "negative absolute timestamp"},
		},
	}
	for ci, recs := range cases {
		frame := buildFrame(t, recs)
		var d Decoder
		consumed, err := d.ResetText(frame)
		if err != nil {
			t.Fatalf("case %d: ResetText: %v", ci, err)
		}
		if consumed != len(frame) {
			t.Fatalf("case %d: consumed %d of %d bytes", ci, consumed, len(frame))
		}
		if d.Count() != len(recs) {
			t.Fatalf("case %d: Count = %d, want %d", ci, d.Count(), len(recs))
		}
		got := drain(t, &d)
		if d.Err() != nil {
			t.Fatalf("case %d: Err = %v", ci, d.Err())
		}
		if len(got) != len(recs) {
			t.Fatalf("case %d: %d records, want %d", ci, len(got), len(recs))
		}
		for i := range recs {
			if got[i] != recs[i] {
				t.Errorf("case %d record %d: got %+v want %+v", ci, i, got[i], recs[i])
			}
		}
	}
}

func TestRoundTripText(t *testing.T) {
	recs := []rec{
		{1700000000000, "alpha"},
		{1700000000500, "beta"},
		{1700000000750, "gamma"},
	}
	frame := buildFrame(t, recs)
	var d Decoder
	if _, err := d.ResetText(frame); err != nil {
		t.Fatal(err)
	}
	// The text views must survive the source buffer being clobbered.
	var got []rec
	for {
		ts, line, ok := d.NextText()
		if !ok {
			break
		}
		got = append(got, rec{ts, line})
	}
	for i := range frame {
		frame[i] = 0xAA
	}
	if d.Err() != nil {
		t.Fatal(d.Err())
	}
	for i := range recs {
		if got[i] != recs[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], recs[i])
		}
	}
}

// A body may carry several frames back to back; ResetText's consumed
// return walks them.
func TestMultiFrameBody(t *testing.T) {
	var body []byte
	var all []rec
	var e Encoder
	for f := 0; f < 3; f++ {
		e.Reset()
		for i := 0; i < 4; i++ {
			r := rec{int64(1000*f + i), strings.Repeat("x", f+i)}
			e.Add(r.ts, r.line)
			all = append(all, r)
		}
		body = e.AppendFrame(body)
	}
	var got []rec
	var d Decoder
	for off := 0; off < len(body); {
		n, err := d.ResetText(body[off:])
		if err != nil {
			t.Fatalf("frame at %d: %v", off, err)
		}
		got = append(got, drain(t, &d)...)
		if d.Err() != nil {
			t.Fatalf("frame at %d: %v", off, d.Err())
		}
		off += n
	}
	if len(got) != len(all) {
		t.Fatalf("%d records, want %d", len(got), len(all))
	}
	for i := range all {
		if got[i] != all[i] {
			t.Errorf("record %d: got %+v want %+v", i, got[i], all[i])
		}
	}
}

func TestHeaderErrors(t *testing.T) {
	good := buildFrame(t, []rec{{123, "hello"}, {456, "world"}})
	corrupt := func(mut func(b []byte) []byte) []byte {
		b := append([]byte(nil), good...)
		return mut(b)
	}
	cases := []struct {
		name string
		buf  []byte
		want error
	}{
		{"empty", nil, ErrTruncated},
		{"short header", good[:5], ErrTruncated},
		{"cut mid payload", good[:len(good)-3], ErrTruncated},
		{"bad magic", corrupt(func(b []byte) []byte { b[0] = 'X'; return b }), ErrMagic},
		{"bad version", corrupt(func(b []byte) []byte { b[4] = 9; return b }), ErrVersion},
		{"bad flags", corrupt(func(b []byte) []byte { b[5] = 1; return b }), ErrFlags},
		{"flipped payload byte", corrupt(func(b []byte) []byte { b[len(b)-1] ^= 0x40; return b }), ErrChecksum},
		{"flipped checksum byte", corrupt(func(b []byte) []byte { b[9] ^= 0x40; return b }), ErrChecksum},
		// Count raised to an impossible value for the payload length: the
		// count byte at offset 6 (uvarint "2") claims 10 records, but the
		// 14-byte records section can hold at most 7.
		{"impossible count", corrupt(func(b []byte) []byte { b[6] = 10; return b }), ErrCount},
	}
	for _, tc := range cases {
		var d Decoder
		consumed, err := d.ResetText(tc.buf)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: ResetText err = %v, want %v", tc.name, err, tc.want)
		}
		if consumed != 0 {
			t.Errorf("%s: consumed = %d, want 0", tc.name, consumed)
		}
		if _, _, ok := d.NextText(); ok {
			t.Errorf("%s: NextText ok after failed ResetText", tc.name)
		}
		if !errors.Is(d.Err(), tc.want) {
			t.Errorf("%s: Err = %v, want %v", tc.name, d.Err(), tc.want)
		}
	}
}

// CRC-valid frames with structurally broken record sections must fail at
// the offending record, not reject the whole frame: earlier records count
// toward the resume offset.
func TestRecordErrors(t *testing.T) {
	// frameFromRaw builds a frame whose records section is the raw bytes
	// given — CRC and payload length are consistent, so only record-level
	// validation can object.
	frameFromRaw := func(count int, raw []byte) []byte {
		var e Encoder
		e.recs = raw
		e.count = count
		return e.AppendFrame(nil)
	}
	var overlong []byte
	for i := 0; i < 10; i++ {
		overlong = append(overlong, 0x80) // unterminated varint
	}
	goodRec := func(ts int64, line string) []byte {
		var e Encoder
		e.Add(ts, line)
		return append([]byte(nil), e.recs...)
	}
	cases := []struct {
		name    string
		count   int
		raw     []byte
		wantOK  int // records surfaced before the failure
		wantErr bool
	}{
		{"delta varint overrun", 1, overlong, 0, true},
		{"line past section", 1, []byte{0x00, 0x7F, 'x'}, 0, true},
		{"second record broken", 2, append(goodRec(5, "ok"), 0x00, 0x7F, 'x'), 1, true},
		{"trailing bytes after last", 1, append(goodRec(5, "ok"), 0x00), 0, true},
		{"oversize line length", 1, []byte{0x00, 0xFF, 0xFF, 0xFF, 0x7F}, 0, true},
	}
	for _, tc := range cases {
		frame := frameFromRaw(tc.count, tc.raw)
		var d Decoder
		if _, err := d.ResetText(frame); err != nil {
			t.Errorf("%s: ResetText rejected CRC-valid frame: %v", tc.name, err)
			continue
		}
		got := 0
		for {
			if _, _, ok := d.NextText(); !ok {
				break
			}
			got++
		}
		if got != tc.wantOK {
			t.Errorf("%s: %d records surfaced, want %d", tc.name, got, tc.wantOK)
		}
		if tc.wantErr != (d.Err() != nil) || (tc.wantErr && !errors.Is(d.Err(), ErrRecord)) {
			t.Errorf("%s: Err = %v, want ErrRecord", tc.name, d.Err())
		}
	}
}

// Fuzz-ish: the decoder must never panic or mis-slice on random mutations
// of a valid frame.
func TestDecoderRandomCorruption(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	recs := make([]rec, 50)
	for i := range recs {
		recs[i] = rec{rng.Int63n(1 << 40), strings.Repeat("a", rng.Intn(40))}
	}
	good := buildFrame(t, recs)
	for trial := 0; trial < 2000; trial++ {
		b := append([]byte(nil), good...)
		for k := 0; k <= rng.Intn(3); k++ {
			b[rng.Intn(len(b))] ^= byte(1 << rng.Intn(8))
		}
		if rng.Intn(4) == 0 {
			b = b[:rng.Intn(len(b)+1)]
		}
		var d Decoder
		if _, err := d.ResetText(b); err != nil {
			continue
		}
		for {
			_, line, ok := d.NextText()
			if !ok {
				break
			}
			_ = line
		}
	}
}

// Decoding allocates exactly once per frame (the records copy), regardless
// of record count — the property the ingest hot path depends on (S3).
func TestDecodeAllocsPerFrame(t *testing.T) {
	recs := make([]rec, 256)
	for i := range recs {
		recs[i] = rec{int64(1700000000000 + i*100), "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C"}
	}
	frame := buildFrame(t, recs)
	var d Decoder
	if avg := testing.AllocsPerRun(100, func() {
		if _, err := d.ResetText(frame); err != nil {
			t.Fatal(err)
		}
		n := 0
		for {
			_, _, ok := d.NextText()
			if !ok {
				break
			}
			n++
		}
		if n != len(recs) || d.Err() != nil {
			t.Fatalf("drained %d records, err %v", n, d.Err())
		}
	}); avg > 1 {
		t.Errorf("decode allocates %v times per frame, want <= 1", avg)
	}
}

func TestEncoderReset(t *testing.T) {
	var e Encoder
	e.Add(100, "one")
	first := e.AppendFrame(nil)
	e.Reset()
	e.Add(100, "one")
	second := e.AppendFrame(nil)
	if !bytes.Equal(first, second) {
		t.Errorf("frames differ after Encoder.Reset:\n% x\n% x", first, second)
	}
}

func TestEachFrameText(t *testing.T) {
	// Three back-to-back frames, including an empty one mid-stream.
	var e Encoder
	e.Add(1000, "alpha")
	e.Add(1500, "beta")
	body := e.AppendFrame(nil)
	e.Reset()
	body = e.AppendFrame(body) // zero records
	e.Reset()
	e.Add(9000, "gamma")
	body = e.AppendFrame(body)

	type rec struct {
		ts   int64
		line string
	}
	var got []rec
	frames, badOff, err := EachFrameText(body, func(ts int64, line string) error {
		got = append(got, rec{ts, line})
		return nil
	})
	if err != nil || badOff != 0 {
		t.Fatalf("EachFrameText: frames=%d badOff=%d err=%v", frames, badOff, err)
	}
	if frames != 3 {
		t.Fatalf("frames = %d, want 3", frames)
	}
	want := []rec{{1000, "alpha"}, {1500, "beta"}, {9000, "gamma"}}
	if len(got) != len(want) {
		t.Fatalf("records = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %v, want %v", i, got[i], want[i])
		}
	}

	// A corrupt second frame: the first frame's records are delivered, the
	// error carries the offending frame's offset.
	e.Reset()
	e.Add(1, "ok")
	clean := e.AppendFrame(nil)
	corrupt := append(append([]byte{}, clean...), "JUNK-NOT-A-FRAME"...)
	got = nil
	frames, badOff, err = EachFrameText(corrupt, func(ts int64, line string) error {
		got = append(got, rec{ts, line})
		return nil
	})
	if !errors.Is(err, ErrMagic) {
		t.Fatalf("corrupt tail error = %v, want ErrMagic", err)
	}
	if frames != 1 || badOff != len(clean) {
		t.Fatalf("frames=%d badOff=%d, want 1 and %d", frames, badOff, len(clean))
	}
	if len(got) != 1 || got[0].line != "ok" {
		t.Fatalf("valid prefix not delivered: %v", got)
	}

	// fn can abort the walk.
	sentinel := errors.New("stop")
	_, _, err = EachFrameText(clean, func(int64, string) error { return sentinel })
	if !errors.Is(err, sentinel) {
		t.Fatalf("fn error = %v, want sentinel", err)
	}
}
