package wire

import (
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
)

// ReadBody reads the whole POST /ingest body of r into dst's capacity
// (growing it only when full, so a pooled dst makes steady-state requests
// allocation-free) through http.MaxBytesReader. On failure status is the
// HTTP status to answer with: 413 when the body exceeds MaxBodyBytes, 400
// for any other read error. Nothing of a failed body may be ingested — a
// cut-off body ends mid-line.
func ReadBody(w http.ResponseWriter, r *http.Request, dst []byte) (body []byte, status int, err error) {
	rd := http.MaxBytesReader(w, r.Body, MaxBodyBytes)
	body = dst[:0]
	for {
		if len(body) == cap(body) {
			body = append(body, 0)[:len(body)]
		}
		n, err := rd.Read(body[len(body):cap(body)])
		body = body[:len(body)+n]
		if err == io.EOF {
			return body, 0, nil
		}
		if err != nil {
			status = http.StatusBadRequest
			var tooBig *http.MaxBytesError
			if errors.As(err, &tooBig) {
				status = http.StatusRequestEntityTooLarge
			}
			return body, status, fmt.Errorf("read body: %w", err)
		}
	}
}

// EachRecord walks a fully-read POST /ingest body in record order, calling
// fn once per record with a retainable line. contentType selects the
// format: ContentType is back-to-back binary frames (EachFrameText);
// anything else is newline-separated text, each line either
// "<unix-ms> <wire line>" (the datacron-gen file format) or a bare wire
// line, with one trailing CR stripped. A record without a timestamp — a
// bare text line, a frame record with timestamp 0 — is stamped now, the
// request's receive time. Blank records are surfaced (line == "") so that a
// caller counting calls holds exact body offsets.
//
// On a structural fault — bad frame header, CRC mismatch, malformed record,
// a line over MaxLineBytes — the walk stops and returns the error; every
// record before the fault has been delivered (the keep-the-valid-prefix
// contract). frames is the number of cleanly decoded binary frames.
func EachRecord(body []byte, contentType string, now int64, fn func(ts int64, line string)) (frames int, err error) {
	if contentType != ContentType {
		return 0, eachLine(string(body), now, fn)
	}
	frames, off, err := EachFrameText(body, func(ts int64, line string) error {
		if ts == 0 {
			ts = now
		}
		fn(ts, line)
		return nil
	})
	if err != nil {
		err = fmt.Errorf("frame at byte %d: %w", off, err)
	}
	return frames, err
}

// eachLine is EachFrameText's text twin: it walks newline-separated records
// (every line aliases text), stamping bare lines now.
func eachLine(text string, now int64, fn func(ts int64, line string)) error {
	for n := 0; len(text) > 0; n++ {
		var line string
		line, text, _ = strings.Cut(text, "\n")
		line = strings.TrimSuffix(line, "\r")
		ts := now
		if sp := strings.IndexByte(line, ' '); sp > 0 {
			if v, err := strconv.ParseInt(line[:sp], 10, 64); err == nil {
				ts, line = v, line[sp+1:]
			}
		}
		if len(line) > MaxLineBytes {
			return fmt.Errorf("%w: line %d is %d bytes", ErrRecord, n, len(line))
		}
		fn(ts, line)
	}
	return nil
}
