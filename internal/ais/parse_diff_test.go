package ais

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"
)

// refParseSentence is a frozen copy of the pre-ParseSentenceInto sentence
// parser; the differential tests pin the scratch-reusing form to it, error
// text included.
func refParseSentence(line string) (Sentence, error) {
	var s Sentence
	line = trimCRLF(line)
	if len(line) < 2 || (line[0] != '!' && line[0] != '$') {
		return s, fmt.Errorf("ais: not an NMEA sentence: %.20q", line)
	}
	star := strings.LastIndexByte(line, '*')
	if star < 0 || star+3 > len(line) {
		return s, fmt.Errorf("ais: missing checksum: %.40q", line)
	}
	if star+3 != len(line) {
		return s, fmt.Errorf("ais: trailing bytes after checksum: %.40q", line)
	}
	body := line[1:star]
	hi, ok1 := hexVal(line[star+1])
	lo, ok2 := hexVal(line[star+2])
	want := hi<<4 | lo
	if got := xorChecksum(body); !ok1 || !ok2 || got != want {
		return s, fmt.Errorf("ais: checksum mismatch: got %02X want %s", got, line[star+1:star+3])
	}
	if c := strings.Count(body, ",") + 1; c != 7 {
		return s, fmt.Errorf("ais: expected 7 fields, got %d", c)
	}
	var fields [7]string
	for i, start := 0, 0; i < 7; i++ {
		end := start + strings.IndexByte(body[start:], ',')
		if i == 6 {
			end = len(body)
		}
		fields[i] = body[start:end]
		start = end + 1
	}
	if fields[0] != "AIVDM" && fields[0] != "AIVDO" {
		return s, fmt.Errorf("ais: unsupported talker %q", fields[0])
	}
	var err error
	if s.Total, err = strconv.Atoi(fields[1]); err != nil {
		return s, fmt.Errorf("ais: bad total: %w", err)
	}
	if s.Num, err = strconv.Atoi(fields[2]); err != nil {
		return s, fmt.Errorf("ais: bad sentence number: %w", err)
	}
	if fields[3] == "" {
		s.SeqID = -1
	} else if s.SeqID, err = strconv.Atoi(fields[3]); err != nil {
		return s, fmt.Errorf("ais: bad sequence id: %w", err)
	}
	s.Channel = fields[4]
	s.Payload = fields[5]
	if s.FillBits, err = strconv.Atoi(fields[6]); err != nil {
		return s, fmt.Errorf("ais: bad fill bits: %w", err)
	}
	if s.Total < 1 || s.Num < 1 || s.Num > s.Total {
		return s, fmt.Errorf("ais: inconsistent fragmentation %d/%d", s.Num, s.Total)
	}
	return s, nil
}

// refUint extracts an n-bit big-endian field starting at bit pos straight
// from the armored payload — the pre-scratch-buffer extraction algorithm.
func refUint(payload string, pos, n int) uint64 {
	var v uint64
	for rem := n; rem > 0; {
		c := uint64(dearmorTab[payload[pos/6]])
		off := pos % 6
		take := 6 - off
		if take > rem {
			take = rem
		}
		v = v<<uint(take) | c>>uint(6-off-take)&(1<<uint(take)-1)
		pos += take
		rem -= take
	}
	return v
}

// checkSentence runs the scratch form and the reference parser on one line
// and fails on any divergence, error text included.
func checkSentence(t *testing.T, scratch *Sentence, line string) {
	t.Helper()
	want, wantErr := refParseSentence(line)
	gotErr := ParseSentenceInto(line, scratch)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("error divergence on %q:\n reference: %v\n ParseSentenceInto: %v", line, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("error text divergence on %q:\n reference: %v\n ParseSentenceInto: %v", line, wantErr, gotErr)
		}
		return
	}
	if *scratch != want {
		t.Fatalf("sentence divergence on %q:\n reference: %+v\n ParseSentenceInto: %+v", line, want, *scratch)
	}
}

// randomSentence is a round-tripped sentence, truncated, corrupted in one
// byte or given a CRLF now and then.
func randomSentence(rng *rand.Rand) string {
	n := rng.Intn(30) + 1
	payload := make([]byte, n)
	for j := range payload {
		payload[j] = armorChar(byte(rng.Intn(64)))
	}
	s := Sentence{
		Total: rng.Intn(3) + 1, Num: rng.Intn(3) + 1, SeqID: rng.Intn(11) - 1,
		Channel: []string{"A", "B", ""}[rng.Intn(3)],
		Payload: string(payload), FillBits: rng.Intn(8) - 1,
	}
	line := FormatSentence(s)
	switch rng.Intn(5) {
	case 0:
		line = line[:rng.Intn(len(line)+1)]
	case 1:
		b := []byte(line)
		b[rng.Intn(len(b))] = byte(rng.Intn(128))
		line = string(b)
	case 2:
		line += "\r\n"
	}
	return line
}

// TestParseSentenceIntoDifferential drives the scratch form and the
// reference parser over round-tripped sentences plus random mutations.
func TestParseSentenceIntoDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	var scratch Sentence
	for i := 0; i < 5000; i++ {
		checkSentence(t, &scratch, randomSentence(rng))
	}
}

// FuzzParseSentenceInto holds the scratch form to the reference parser on
// fuzzed lines, seeded from the differential's generator.
func FuzzParseSentenceInto(f *testing.F) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 32; i++ {
		f.Add(randomSentence(rng))
	}
	var scratch Sentence
	f.Fuzz(func(t *testing.T, line string) { checkSentence(t, &scratch, line) })
}

// TestBitReaderScratchDifferential pins the unpack-once reader against the
// reference per-read extraction over random payloads and read sequences,
// including truncation errors and scratch reuse across Resets.
func TestBitReaderScratchDifferential(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var r BitReader // reused across iterations to exercise scratch reuse
	for i := 0; i < 5000; i++ {
		n := rng.Intn(40) + 1
		payload := make([]byte, n)
		for j := range payload {
			payload[j] = armorChar(byte(rng.Intn(64)))
		}
		fill := rng.Intn(6)
		if err := r.Reset(string(payload), fill); err != nil {
			t.Fatalf("Reset(%q, %d): %v", payload, fill, err)
		}
		nbits := n*6 - fill
		pos := 0
		for r.Err() == nil && r.Remaining() > 0 {
			w := rng.Intn(32) + 1
			got := r.Uint(w)
			if pos+w > nbits {
				if r.Err() == nil {
					t.Fatalf("read past end (pos %d width %d of %d bits) did not error", pos, w, nbits)
				}
				break
			}
			if want := refUint(string(payload), pos, w); got != want {
				t.Fatalf("payload %q pos %d width %d: got %d want %d", payload, pos, w, got, want)
			}
			pos += w
		}
	}
}

// TestBitReaderResetErrorKeepsState verifies a failed Reset leaves the
// reader fully intact — position, bounds, and the already-unpacked scratch
// values — so in-progress reads continue against the old payload.
func TestBitReaderResetErrorKeepsState(t *testing.T) {
	var r BitReader
	if err := r.Reset("57", 0); err != nil {
		t.Fatal(err)
	}
	first := r.Uint(6)
	if err := r.Reset("66", 9); err == nil {
		t.Fatal("invalid fill bits accepted")
	}
	if err := r.Reset("8\x01", 0); err == nil {
		t.Fatal("invalid payload character accepted")
	}
	if got := r.Remaining(); got != 6 {
		t.Fatalf("Remaining after failed Resets = %d, want 6", got)
	}
	if first != refUint("57", 0, 6) {
		t.Fatalf("pre-reset read corrupted: %d", first)
	}
	if got, want := r.Uint(6), refUint("57", 6, 6); got != want {
		t.Fatalf("post-failed-Reset read = %d, want %d (old payload)", got, want)
	}
}
