package ais

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestChecksum(t *testing.T) {
	// Known-good sentence from the AIVDM spec examples.
	body := "AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0"
	if got := Checksum(body); got != "5C" {
		t.Errorf("Checksum = %s, want 5C", got)
	}
}

func TestParseKnownSentence(t *testing.T) {
	line := "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*5C"
	s, err := ParseSentence(line)
	if err != nil {
		t.Fatal(err)
	}
	if s.Total != 1 || s.Num != 1 || s.Channel != "B" || s.FillBits != 0 {
		t.Errorf("parsed fields wrong: %+v", s)
	}
	dec, err := DecodeLine(line)
	if err != nil {
		t.Fatal(err)
	}
	pos, ok := dec.(PositionReport)
	if !ok {
		t.Fatalf("decoded %T, want PositionReport", dec)
	}
	// Reference decode of this well-known test vector: MMSI 477553000.
	if pos.MMSI != 477553000 {
		t.Errorf("MMSI = %d, want 477553000", pos.MMSI)
	}
	if pos.MsgType != 1 {
		t.Errorf("MsgType = %d", pos.MsgType)
	}
	if pos.NavStatus != 5 { // moored
		t.Errorf("NavStatus = %d, want 5", pos.NavStatus)
	}
}

func TestParseSentenceErrors(t *testing.T) {
	tests := []struct {
		name string
		line string
	}{
		{"empty", ""},
		{"no bang", "AIVDM,1,1,,B,177KQJ,0*00"},
		{"no checksum", "!AIVDM,1,1,,B,177KQJ,0"},
		{"bad checksum", "!AIVDM,1,1,,B,177KQJ5000G?tO`K>RA1wUbN0TKH,0*00"},
		{"wrong fields", "!AIVDM,1,1,,B,0*16"},
		{"bad talker", "!GPGGA,1,1,,B,177KQJ,0*2E"},
		{"bad frag", "!AIVDM,1,2,,B,177KQJ,0*19"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseSentence(tc.line); err == nil {
				t.Errorf("expected error for %q", tc.line)
			}
		})
	}
}

func TestPositionRoundTripClassA(t *testing.T) {
	orig := PositionReport{
		MsgType: 1, MMSI: 237891000, NavStatus: 0,
		Lon: 23.6425, Lat: 37.9411, SOG: 14.2, COG: 187.3, Heading: 186, Second: 42,
	}
	payload, fill, err := orig.Encode()
	if err != nil {
		t.Fatal(err)
	}
	lines := ToSentences(payload, fill, 0, "A")
	if len(lines) != 1 {
		t.Fatalf("expected single sentence, got %d", len(lines))
	}
	dec, err := DecodeLine(lines[0])
	if err != nil {
		t.Fatal(err)
	}
	got := dec.(PositionReport)
	if got.MMSI != orig.MMSI || got.NavStatus != orig.NavStatus || got.Second != orig.Second {
		t.Errorf("fields changed: %+v vs %+v", got, orig)
	}
	if math.Abs(got.Lon-orig.Lon) > 1.0/600000 || math.Abs(got.Lat-orig.Lat) > 1.0/600000 {
		t.Errorf("coords drift: (%f,%f) vs (%f,%f)", got.Lon, got.Lat, orig.Lon, orig.Lat)
	}
	if math.Abs(got.SOG-orig.SOG) > 0.05+1e-9 {
		t.Errorf("SOG drift: %f vs %f", got.SOG, orig.SOG)
	}
	if math.Abs(got.COG-orig.COG) > 0.05+1e-9 {
		t.Errorf("COG drift: %f vs %f", got.COG, orig.COG)
	}
}

func TestPositionRoundTripClassB(t *testing.T) {
	orig := PositionReport{
		MsgType: 18, MMSI: 211234560,
		Lon: -5.5, Lat: 36.1, SOG: 6.4, COG: 92.0, Heading: 90, Second: 7,
	}
	payload, fill, err := orig.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeLine(ToSentences(payload, fill, 0, "B")[0])
	if err != nil {
		t.Fatal(err)
	}
	got := dec.(PositionReport)
	if got.MsgType != 18 || got.MMSI != orig.MMSI {
		t.Errorf("identity fields: %+v", got)
	}
	if math.Abs(got.Lon-orig.Lon) > 1.0/600000 || math.Abs(got.Lat-orig.Lat) > 1.0/600000 {
		t.Errorf("coords drift")
	}
}

func TestPositionRoundTripQuick(t *testing.T) {
	f := func(mmsiSeed uint32, lonSeed, latSeed, sogSeed, cogSeed int16, sec uint8) bool {
		orig := PositionReport{
			MsgType: 1,
			MMSI:    mmsiSeed % 1000000000,
			Lon:     float64(lonSeed) / 200, // ±163.8
			Lat:     float64(latSeed) / 400, // ±81.9
			SOG:     math.Abs(float64(sogSeed)) / 500,
			COG:     math.Mod(math.Abs(float64(cogSeed)), 360),
			Heading: float64(sec % 60),
			Second:  int(sec % 60),
		}
		payload, fill, err := orig.Encode()
		if err != nil {
			return false
		}
		dec, err := DecodeLine(ToSentences(payload, fill, 0, "A")[0])
		if err != nil {
			return false
		}
		got := dec.(PositionReport)
		return got.MMSI == orig.MMSI &&
			math.Abs(got.Lon-orig.Lon) <= 1.0/600000 &&
			math.Abs(got.Lat-orig.Lat) <= 1.0/600000 &&
			math.Abs(got.SOG-orig.SOG) <= 0.05+1e-9 &&
			math.Abs(got.COG-orig.COG) <= 0.05+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestUnavailableFields(t *testing.T) {
	orig := PositionReport{MsgType: 1, MMSI: 1, Lon: 0, Lat: 0, SOG: math.NaN(), COG: math.NaN(), Heading: math.NaN(), Second: 60}
	payload, fill, err := orig.Encode()
	if err != nil {
		t.Fatal(err)
	}
	dec, err := DecodeLine(ToSentences(payload, fill, 0, "A")[0])
	if err != nil {
		t.Fatal(err)
	}
	got := dec.(PositionReport)
	if !math.IsNaN(got.SOG) || !math.IsNaN(got.COG) || !math.IsNaN(got.Heading) {
		t.Errorf("unavailable sentinels not preserved: %+v", got)
	}
	if got.Second != 60 {
		t.Errorf("Second = %d, want 60", got.Second)
	}
}

func TestEncodeValidation(t *testing.T) {
	if _, _, err := (PositionReport{MsgType: 9}).Encode(); err == nil {
		t.Error("unsupported type must error")
	}
	if _, _, err := (PositionReport{MsgType: 1, Lon: 999}).Encode(); err == nil {
		t.Error("out-of-range lon must error")
	}
}

func TestStaticVoyageRoundTrip(t *testing.T) {
	orig := StaticVoyage{
		MMSI: 237891000, IMO: 9074729, Callsign: "SVABC", Name: "BLUE STAR PAROS",
		ShipType: 70, LengthM: 126, Draught: 5.6, Destination: "PIRAEUS",
	}
	payload, fill, err := orig.Encode()
	if err != nil {
		t.Fatal(err)
	}
	lines := ToSentences(payload, fill, 3, "A")
	if len(lines) != 2 {
		t.Fatalf("type 5 should span 2 sentences, got %d", len(lines))
	}
	asm := NewAssembler()
	r1, err := asm.Push(lines[0])
	if err != nil {
		t.Fatal(err)
	}
	if r1 != nil {
		t.Fatal("first fragment should not complete the message")
	}
	r2, err := asm.Push(lines[1])
	if err != nil {
		t.Fatal(err)
	}
	if r2 == nil {
		t.Fatal("second fragment should complete the message")
	}
	dec, err := Decode(r2)
	if err != nil {
		t.Fatal(err)
	}
	got := dec.(StaticVoyage)
	if got.MMSI != orig.MMSI || got.IMO != orig.IMO {
		t.Errorf("ids: %+v", got)
	}
	if got.Name != orig.Name {
		t.Errorf("Name = %q, want %q", got.Name, orig.Name)
	}
	if got.Callsign != orig.Callsign {
		t.Errorf("Callsign = %q, want %q", got.Callsign, orig.Callsign)
	}
	if got.Destination != orig.Destination {
		t.Errorf("Destination = %q", got.Destination)
	}
	if got.ShipType != orig.ShipType || got.LengthM != orig.LengthM {
		t.Errorf("type/length: %+v", got)
	}
	if math.Abs(got.Draught-orig.Draught) > 0.05 {
		t.Errorf("Draught = %f", got.Draught)
	}
}

func TestAssemblerOutOfOrder(t *testing.T) {
	sv := StaticVoyage{MMSI: 1, Name: "X"}
	payload, fill, _ := sv.Encode()
	lines := ToSentences(payload, fill, 0, "A")
	asm := NewAssembler()
	if _, err := asm.Push(lines[1]); err == nil {
		t.Error("fragment 2 before 1 should error")
	}
	// After the error the assembler recovers on a fresh message.
	if _, err := asm.Push(lines[0]); err != nil {
		t.Fatal(err)
	}
	r, err := asm.Push(lines[1])
	if err != nil || r == nil {
		t.Fatalf("recovery failed: %v", err)
	}
}

func TestSixBitTextEdgeCases(t *testing.T) {
	var b BitBuffer
	b.AppendString("lowercase", 9) // must upper-case
	b.AppendString("TILDE~", 6)    // '~' not in alphabet → '?'
	payload, fill := b.Armor()
	r, err := NewBitReader(payload, fill)
	if err != nil {
		t.Fatal(err)
	}
	if got := r.String(9); got != "LOWERCASE" {
		t.Errorf("got %q", got)
	}
	if got := r.String(6); got != "TILDE?" {
		t.Errorf("got %q", got)
	}
}

func TestBitReaderTruncation(t *testing.T) {
	var b BitBuffer
	b.AppendUint(5, 6)
	payload, fill := b.Armor()
	r, _ := NewBitReader(payload, fill)
	r.Uint(6)
	r.Uint(10) // beyond end
	if r.Err() == nil {
		t.Error("reading past end must set Err")
	}
	if r.Uint(1) != 0 {
		t.Error("reads after error must return 0")
	}
}

func TestNewBitReaderErrors(t *testing.T) {
	if _, err := NewBitReader("\x01", 0); err == nil {
		t.Error("invalid payload char must error")
	}
	if _, err := NewBitReader("0", 7); err == nil {
		t.Error("invalid fill bits must error")
	}
}

func TestArmorDearmorQuick(t *testing.T) {
	f := func(vals []byte) bool {
		var b BitBuffer
		for _, v := range vals {
			b.AppendUint(uint64(v%64), 6)
		}
		payload, fill := b.Armor()
		if fill != 0 {
			return false // whole six-bit groups → no fill
		}
		r, err := NewBitReader(payload, fill)
		if err != nil {
			return false
		}
		for _, v := range vals {
			if r.Uint(6) != uint64(v%64) {
				return false
			}
		}
		return r.Err() == nil && r.Remaining() == 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestToSentencesSplitsLongPayloads(t *testing.T) {
	long := strings.Repeat("0", 130)
	lines := ToSentences(long, 2, 5, "B")
	if len(lines) != 3 {
		t.Fatalf("got %d sentences", len(lines))
	}
	var total int
	for i, l := range lines {
		s, err := ParseSentence(l)
		if err != nil {
			t.Fatalf("sentence %d: %v", i, err)
		}
		if s.Total != 3 || s.Num != i+1 || s.SeqID != 5 {
			t.Errorf("sentence %d header: %+v", i, s)
		}
		if i < len(lines)-1 && s.FillBits != 0 {
			t.Error("fill bits only on last fragment")
		}
		total += len(s.Payload)
	}
	if total != 130 {
		t.Errorf("payload chars = %d", total)
	}
}

func TestDecodeUnsupportedType(t *testing.T) {
	var b BitBuffer
	b.AppendUint(9, 6) // type 9: SAR aircraft, unsupported
	b.AppendUint(0, 60)
	payload, fill := b.Armor()
	r, _ := NewBitReader(payload, fill)
	if _, err := Decode(r); err == nil {
		t.Error("unsupported type must error")
	}
}

func TestDecodeLineRejectsFragments(t *testing.T) {
	sv := StaticVoyage{MMSI: 1}
	payload, fill, _ := sv.Encode()
	lines := ToSentences(payload, fill, 0, "A")
	if _, err := DecodeLine(lines[0]); err == nil {
		t.Error("DecodeLine must reject fragments")
	}
}

func BenchmarkAISDecodePosition(b *testing.B) {
	msg := PositionReport{MsgType: 1, MMSI: 237000001, Lon: 23.5, Lat: 37.5, SOG: 12, COG: 90, Heading: 90, Second: 30}
	payload, fill, err := msg.Encode()
	if err != nil {
		b.Fatal(err)
	}
	line := ToSentences(payload, fill, 0, "A")[0]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeLine(line); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAISEncodePosition(b *testing.B) {
	msg := PositionReport{MsgType: 1, MMSI: 237000001, Lon: 23.5, Lat: 37.5, SOG: 12, COG: 90, Heading: 90, Second: 30}
	for i := 0; i < b.N; i++ {
		if _, _, err := msg.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}
