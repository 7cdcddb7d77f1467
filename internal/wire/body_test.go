package wire

import (
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
)

// collect walks body with EachRecord at receive time 777.
func collect(body []byte, contentType string) (recs []rec, frames int, err error) {
	frames, err = EachRecord(body, contentType, 777, func(ts int64, line string) {
		recs = append(recs, rec{ts, line})
	})
	return recs, frames, err
}

// Text and binary renderings of the same records must walk identically:
// blank records surfaced in place, bare lines stamped with the receive
// time, explicit timestamps (0 included, in text) kept, CRLF stripped.
func TestEachRecordFormatsAgree(t *testing.T) {
	want := []rec{
		{1700000000000, "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C"},
		{777, ""},
		{777, "bare line"},
		{1700000000100, "crlf line"},
		{777, "MSG,3,1,1,ABC123 bare with spaces"},
		{-5, "negative timestamp"},
		{777, ""},
		{777, "last line, no newline"},
	}
	text := "1700000000000 !AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C\n" +
		"\n" +
		"bare line\n" +
		"1700000000100 crlf line\r\n" +
		"MSG,3,1,1,ABC123 bare with spaces\n" +
		"-5 negative timestamp\n" +
		"\r\n" +
		"last line, no newline"
	// Two frames; bare lines travel as timestamp 0.
	var e Encoder
	var body []byte
	for i, r := range want {
		if i == 3 {
			body = e.AppendFrame(body)
			e.Reset()
		}
		ts := r.ts
		if ts == 777 {
			ts = 0
		}
		e.Add(ts, r.line)
	}
	body = e.AppendFrame(body)

	for _, tc := range []struct {
		name, contentType string
		body              []byte
		frames            int
	}{
		{"text", "text/plain", []byte(text), 0},
		{"binary", ContentType, body, 2},
	} {
		got, frames, err := collect(tc.body, tc.contentType)
		if err != nil || frames != tc.frames {
			t.Errorf("%s: frames=%d err=%v, want %d frames", tc.name, frames, err, tc.frames)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: %d records, want %d: %v", tc.name, len(got), len(want), got)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s record %d: got %+v want %+v", tc.name, i, got[i], want[i])
			}
		}
	}

	// An explicit text timestamp of 0 is a timestamp, not a bare line.
	if got, _, _ := collect([]byte("0 epoch\n"), ""); len(got) != 1 || got[0] != (rec{0, "epoch"}) {
		t.Errorf("\"0 epoch\" walked as %v", got)
	}
	// A trailing newline ends the last record; it does not add a blank one.
	if got, _, _ := collect([]byte("a\n"), ""); len(got) != 1 {
		t.Errorf("\"a\\n\" walked as %d records", len(got))
	}
}

// A fault stops the walk with the records before it delivered, in both
// formats.
func TestEachRecordFaultKeepsPrefix(t *testing.T) {
	long := strings.Repeat("x", MaxLineBytes+1)
	var e Encoder
	e.Add(1, "ok")
	e.Add(2, long)
	e.Add(3, "unreachable")
	overlongFrame := e.AppendFrame(nil)
	e.Reset()
	e.Add(1, "ok")
	junkTail := append(e.AppendFrame(nil), "JUNK-NOT-A-FRAME"...)

	for _, tc := range []struct {
		name, contentType string
		body              []byte
		want              error
	}{
		{"text over-long line", "", []byte("1 ok\n2 " + long + "\n3 unreachable\n"), ErrRecord},
		{"binary over-long line", ContentType, overlongFrame, ErrRecord},
		{"binary bad second frame", ContentType, junkTail, ErrMagic},
	} {
		got, _, err := collect(tc.body, tc.contentType)
		if !errors.Is(err, tc.want) {
			t.Errorf("%s: err = %v, want %v", tc.name, err, tc.want)
		}
		if len(got) != 1 || got[0] != (rec{1, "ok"}) {
			t.Errorf("%s: prefix = %v, want the one good record", tc.name, got)
		}
	}
	// A line of exactly MaxLineBytes passes in both formats.
	if _, _, err := collect([]byte("9 "+long[1:]), ""); err != nil {
		t.Errorf("text line of MaxLineBytes: %v", err)
	}
	e.Reset()
	e.Add(9, long[1:])
	if _, _, err := collect(e.AppendFrame(nil), ContentType); err != nil {
		t.Errorf("binary line of MaxLineBytes: %v", err)
	}
}

// FuzzEachRecord walks fuzzed bodies as text and as binary frames. The walk
// never panics; the records it delivers, before an error or without one,
// are lines of the body in body order (text: exactly one per line); and a
// body of frames the Encoder built from records — the fuzzed bytes' NUL
// separated pieces, stamped from ts — walks back to exactly those records.
func FuzzEachRecord(f *testing.F) {
	var e Encoder
	e.Add(1700000000000, "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C")
	e.Add(0, "bare")
	frame := e.AppendFrame(nil)
	f.Add([]byte("1700000000000 !AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C\nbare line\r\n\n-5 x"), false, int64(0))
	f.Add(frame, true, int64(1700000000000))
	f.Add(append(frame, "JUNK-NOT-A-FRAME"...), true, int64(-3))
	f.Add(append(frame[:len(frame)-1:len(frame)-1], frame...), true, int64(1)<<62)
	f.Add([]byte("a\x00\x00bc\x00\n"), false, int64(-1))
	f.Fuzz(func(t *testing.T, body []byte, binary bool, ts int64) {
		contentType := "text/plain"
		if binary {
			contentType = ContentType
		}
		got, _, err := collect(body, contentType)
		rest := string(body)
		for i, r := range got {
			at := strings.Index(rest, r.line)
			if at < 0 {
				t.Fatalf("record %d %q is not in the body after the records before it (walk error %v)", i, r.line, err)
			}
			rest = rest[at+len(r.line):]
		}
		if !binary && err == nil {
			lines := strings.Count(string(body), "\n")
			if len(body) > 0 && body[len(body)-1] != '\n' {
				lines++
			}
			if len(got) != lines {
				t.Fatalf("%d records from a text body of %d lines", len(got), lines)
			}
		}

		var want []rec
		var framed []byte
		e.Reset()
		for i, line := range strings.Split(string(body), "\x00") {
			stamp := ts * int64(i+1) // may wrap: the delta coding must wrap back
			e.Add(stamp, line)
			if stamp == 0 {
				stamp = 777 // a bare record, stamped at receive time
			}
			want = append(want, rec{stamp, line})
			if len(line)%3 == 0 { // end a frame here
				framed = e.AppendFrame(framed)
				e.Reset()
			}
		}
		framed = e.AppendFrame(framed)
		if got, _, err := collect(framed, ContentType); err != nil || !slices.Equal(got, want) {
			t.Fatalf("encoded records walked back as %v, %v; want %v", got, err, want)
		}
	})
}

// endless is an infinite stream of newlines.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '\n'
	}
	return len(p), nil
}

func TestReadBody(t *testing.T) {
	read := func(body io.Reader, dst []byte) ([]byte, int, error) {
		return ReadBody(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/ingest", body), dst)
	}
	// The body lands in dst's capacity.
	dst := make([]byte, 3, 64)
	got, status, err := read(strings.NewReader("hello\nworld\n"), dst)
	if err != nil || status != 0 || string(got) != "hello\nworld\n" || &got[0] != &dst[0] {
		t.Errorf("ReadBody = %q, %d, %v (reused dst: %v)", got, status, err, &got[0] == &dst[0])
	}
	// Exactly MaxBodyBytes passes; one byte more is 413.
	if got, _, err := read(io.LimitReader(endless{}, MaxBodyBytes), nil); err != nil || len(got) != MaxBodyBytes {
		t.Errorf("body of MaxBodyBytes: %d bytes, %v", len(got), err)
	}
	if _, status, err := read(io.LimitReader(endless{}, MaxBodyBytes+1), nil); err == nil || status != http.StatusRequestEntityTooLarge {
		t.Errorf("body over MaxBodyBytes: status %d, err %v; want 413", status, err)
	}
	// Any other read failure is the client's: 400.
	if _, status, err := read(io.MultiReader(strings.NewReader("partial"), errReader{}), nil); err == nil || status != http.StatusBadRequest {
		t.Errorf("failing body: status %d, err %v; want 400", status, err)
	}
}

type errReader struct{}

func (errReader) Read([]byte) (int, error) { return 0, errors.New("connection reset") }
