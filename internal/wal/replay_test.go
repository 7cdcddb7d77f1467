package wal

import (
	"bytes"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// FuzzScan: Scan is what recovery trusts with a log that a crash or a
// damaged disk left behind. The input is the bytes of one segment file after
// a valid header. Whatever they are, Scan must neither panic nor fail; the
// records it delivers must be numbered on from the header's first LSN and,
// appended to a fresh log, rebuild exactly the file's accepted prefix; what
// it reports dropped must be the rest of the file; and Open must agree —
// refuse where Scan stopped at corruption, and otherwise resume after Scan's
// last record with the file cut to the prefix.
func FuzzScan(f *testing.F) {
	dir := f.TempDir()
	l, err := Open(dir, Options{NoSync: true})
	if err != nil {
		f.Fatal(err)
	}
	for i, line := range []string{"!AIVDM,1,1,,A,13u?etPv2;0n:dDPwUM1U1Cb069D,0*24", "", "x"} {
		if _, err := l.Append(int64(1490076560000+i), line); err != nil {
			f.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		f.Fatal(err)
	}
	written, err := os.ReadFile(filepath.Join(dir, segmentName(1)))
	if err != nil {
		f.Fatal(err)
	}
	header, body := written[:headerSize], written[headerSize:]
	f.Add(body)
	f.Add(body[:len(body)-5]) // a torn tail
	flipped := slices.Clone(body)
	flipped[4] ^= 0x01 // the first record's CRC
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, body []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, segmentName(1))
		file := append(slices.Clone(header), body...)
		if err := os.WriteFile(path, file, 0o644); err != nil {
			t.Fatal(err)
		}
		var recs []Record
		stats, err := Scan(dir, 1, func(r Record) error {
			recs = append(recs, r)
			return nil
		})
		if err != nil {
			t.Fatalf("Scan: %v", err)
		}

		fresh := t.TempDir()
		l, err := Open(fresh, Options{NoSync: true})
		if err != nil {
			t.Fatal(err)
		}
		for i, r := range recs {
			if r.LSN != uint64(1+i) {
				t.Fatalf("record %d carries LSN %d", i, r.LSN)
			}
			if _, err := l.Append(r.TS, r.Line); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		prefix, err := os.ReadFile(filepath.Join(fresh, segmentName(1)))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(file, prefix) {
			t.Fatalf("the %d delivered records rebuild %d bytes that do not start the file", len(recs), len(prefix))
		}
		if dropped := stats.TruncatedBytes + stats.SkippedBytes; dropped != int64(len(file)-len(prefix)) {
			t.Fatalf("Scan reports %d bytes dropped, the file has %d beyond its accepted prefix (%+v)", dropped, len(file)-len(prefix), stats)
		}

		l, err = Open(dir, Options{NoSync: true})
		if stats.CorruptStopped {
			if err == nil {
				l.Close()
				t.Fatal("Open appends to a segment Scan stopped at corruption in")
			}
			return
		}
		if err != nil {
			t.Fatalf("Open refused a segment Scan read to the end of: %v", err)
		}
		appended := l.Appended()
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if appended != stats.LastLSN {
			t.Fatalf("Open resumes after LSN %d, Scan's last record is %d", appended, stats.LastLSN)
		}
		fi, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if fi.Size() != int64(len(prefix)) {
			t.Fatalf("Open left the segment at %d bytes, want its %d-byte accepted prefix", fi.Size(), len(prefix))
		}
	})
}
