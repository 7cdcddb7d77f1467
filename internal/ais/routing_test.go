package ais

import (
	"math/rand"
	"strconv"
	"testing"
)

func TestRoutingKeyPositionReport(t *testing.T) {
	for _, mmsi := range []uint32{1, 123456789, 999999999, 237000123} {
		m := PositionReport{MsgType: TypePositionA, MMSI: mmsi, Lon: 24.1, Lat: 37.9, SOG: 12.3, COG: 90, Second: 30}
		payload, fill, err := m.Encode()
		if err != nil {
			t.Fatal(err)
		}
		lines := ToSentences(payload, fill, 0, "A")
		if len(lines) != 1 {
			t.Fatalf("position report split into %d sentences", len(lines))
		}
		key, ok := RoutingKey(lines[0])
		if !ok {
			t.Fatalf("no routing key for %q", lines[0])
		}
		if want := strconv.FormatUint(uint64(mmsi), 10); key != want {
			t.Errorf("RoutingKey = %q, want %q", key, want)
		}
	}
}

func TestRoutingKeyMultiSentence(t *testing.T) {
	sv := StaticVoyage{MMSI: 237000123, Name: "TEST VESSEL", Callsign: "SV1234", Destination: "PIRAEUS"}
	payload, fill, err := sv.Encode()
	if err != nil {
		t.Fatal(err)
	}
	lines := ToSentences(payload, fill, 7, "B")
	if len(lines) < 2 {
		t.Fatalf("static voyage fit in %d sentence(s); need a multi-sentence case", len(lines))
	}
	keys := map[string]bool{}
	for _, line := range lines {
		key, ok := RoutingKey(line)
		if !ok {
			t.Fatalf("no routing key for fragment %q", line)
		}
		keys[key] = true
	}
	if len(keys) != 1 {
		t.Errorf("fragments of one message routed to %d keys: %v", len(keys), keys)
	}
}

func TestRoutingKeyGarbage(t *testing.T) {
	for _, line := range []string{"", "not ais", "!AIVDM,1,1", "!AIVDM,1,1,,A,xx,0*00"} {
		if key, ok := RoutingKey(line); ok {
			t.Errorf("RoutingKey(%q) = %q, want not-ok", line, key)
		}
	}
}

// atoi must agree with strconv.Atoi on every field text — the routing key
// bytes it canonicalises are a format — while never allocating.
func TestAtoiMatchesStrconv(t *testing.T) {
	cases := []string{
		"", "0", "1", "2", "9", "05", "10", "99", "007", "+3", "-3", "-0", "+", "-", "x", "xx", "1x", "x1", " 1", "1 ",
		"1_0", "0x10", "1e3", "１", "9223372036854775807", "9223372036854775808", "-9223372036854775808",
		"-9223372036854775809", "18446744073709551616", "000000000000000000000000012", "99999999999999999999",
	}
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 20_000; i++ {
		b := make([]byte, rng.Intn(22))
		for j := range b {
			b[j] = "0123456789+-_x "[rng.Intn(11+rng.Intn(5))]
		}
		cases = append(cases, string(b))
	}
	for _, s := range cases {
		want, err := strconv.Atoi(s)
		got, ok := atoi(s)
		if ok != (err == nil) || (ok && got != want) {
			t.Errorf("atoi(%q) = %d, %v; strconv.Atoi = %d, %v", s, got, ok, want, err)
		}
	}
}

// Routing must cost a malformed line no more than a well-formed one: a feed
// of garbage is exactly when the ingest path cannot afford to allocate.
func TestAppendRoutingKeyMalformedDoesNotAllocate(t *testing.T) {
	buf := make([]byte, 0, 64)
	for _, line := range []string{
		"!AIVDM,,1,,A,13R1Efh01s1fDS0Ect83Q00t0000,0*72",                                // empty total
		"!AIVDM,x,1,,A,13R1Efh01s1fDS0Ect83Q00t0000,0*00",                               // non-numeric total
		"!AIVDM,1x,1,,A,13R1Efh01s1fDS0Ect83Q00t0000,0*00",                              // digits then junk
		"!AIVDM,2,2,,B,000000000000000,2*17",                                            // empty seq
		"!AIVDM,2,1,xx,B,53R1Efh000000000001@E=B1HE=<Dh00000000000000040Ht0000000,0*5A", // non-numeric seq
		"!AIVDM,99999999999999999999,1,,A,13R1Efh01s1fDS0Ect83Q00t0000,0*00",            // total out of range
	} {
		if avg := testing.AllocsPerRun(100, func() { buf, _ = AppendRoutingKey(buf[:0], line) }); avg != 0 {
			t.Errorf("AppendRoutingKey(%q) allocates %v times", line, avg)
		}
	}
}
