package adsb

import (
	"fmt"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"testing"
	"time"
)

// referenceParse is a frozen copy of the pre-vectorisation Parse
// (strings.Split + unconditional time.Parse). The differential test below
// pins ParseInto to it bit for bit, error text included.
func referenceParse(line string) (Message, error) {
	var m Message
	line = strings.TrimRight(line, "\r\n")
	fields := strings.Split(line, ",")
	if len(fields) < 22 {
		return m, fmt.Errorf("adsb: expected 22 fields, got %d", len(fields))
	}
	if fields[0] != "MSG" {
		return m, fmt.Errorf("adsb: unsupported record %q", fields[0])
	}
	tt, err := strconv.Atoi(fields[1])
	if err != nil {
		return m, fmt.Errorf("adsb: bad transmission type: %w", err)
	}
	m.Type = MsgType(tt)
	switch m.Type {
	case MsgIdent, MsgPosition, MsgVelocity:
	default:
		return m, fmt.Errorf("adsb: unsupported transmission type %d", tt)
	}
	m.HexIdent = strings.ToUpper(fields[4])
	if m.HexIdent == "" {
		return m, fmt.Errorf("adsb: missing hex ident")
	}
	m.Generated, err = time.Parse(sbsDateFormat+" "+sbsTimeFormat, fields[6]+" "+fields[7])
	if err != nil {
		return m, fmt.Errorf("adsb: bad timestamp: %w", err)
	}
	m.Generated = m.Generated.UTC()
	parseF := func(s string) (float64, error) {
		if s == "" {
			return math.NaN(), nil
		}
		return strconv.ParseFloat(s, 64)
	}
	m.Callsign = strings.TrimSpace(fields[10])
	if m.AltitudeFt, err = parseF(fields[11]); err != nil {
		return m, fmt.Errorf("adsb: bad altitude: %w", err)
	}
	if m.SpeedKn, err = parseF(fields[12]); err != nil {
		return m, fmt.Errorf("adsb: bad speed: %w", err)
	}
	if m.TrackDeg, err = parseF(fields[13]); err != nil {
		return m, fmt.Errorf("adsb: bad track: %w", err)
	}
	if m.Lat, err = parseF(fields[14]); err != nil {
		return m, fmt.Errorf("adsb: bad lat: %w", err)
	}
	if m.Lon, err = parseF(fields[15]); err != nil {
		return m, fmt.Errorf("adsb: bad lon: %w", err)
	}
	if m.VertRateFpm, err = parseF(fields[16]); err != nil {
		return m, fmt.Errorf("adsb: bad vertical rate: %w", err)
	}
	m.OnGround = fields[21] == "-1" || fields[21] == "1"
	if m.Type == MsgPosition {
		if math.IsNaN(m.Lat) || math.IsNaN(m.Lon) {
			return m, fmt.Errorf("adsb: MSG,3 without coordinates")
		}
		if m.Lat < -90 || m.Lat > 90 || m.Lon < -180 || m.Lon > 180 {
			return m, fmt.Errorf("adsb: coordinates out of range (%f,%f)", m.Lat, m.Lon)
		}
	}
	return m, nil
}

// messagesEqual compares messages treating NaN == NaN (absent fields).
func messagesEqual(a, b Message) bool {
	feq := func(x, y float64) bool {
		return x == y || (math.IsNaN(x) && math.IsNaN(y))
	}
	return a.Type == b.Type && a.HexIdent == b.HexIdent &&
		a.Generated.Equal(b.Generated) && a.Callsign == b.Callsign &&
		feq(a.AltitudeFt, b.AltitudeFt) && feq(a.Lat, b.Lat) && feq(a.Lon, b.Lon) &&
		feq(a.SpeedKn, b.SpeedKn) && feq(a.TrackDeg, b.TrackDeg) &&
		feq(a.VertRateFpm, b.VertRateFpm) && a.OnGround == b.OnGround
}

// diffCheck runs both parsers on one line and fails on any divergence.
func diffCheck(t *testing.T, line string) {
	t.Helper()
	want, wantErr := referenceParse(line)
	var got Message
	gotErr := ParseInto(line, &got)
	if (wantErr == nil) != (gotErr == nil) {
		t.Fatalf("error divergence on %q:\n reference: %v\n ParseInto: %v", line, wantErr, gotErr)
	}
	if wantErr != nil {
		if wantErr.Error() != gotErr.Error() {
			t.Fatalf("error text divergence on %q:\n reference: %v\n ParseInto: %v", line, wantErr, gotErr)
		}
		return
	}
	if !messagesEqual(want, got) {
		t.Fatalf("message divergence on %q:\n reference: %+v\n ParseInto: %+v", line, want, got)
	}
}

// TestParseIntoDifferentialCurated pins the tricky hand-picked cases: the
// time.Parse leniencies the fast path must fall back on, field-count edges,
// and malformed variants of every field.
func TestParseIntoDifferentialCurated(t *testing.T) {
	base := Format(Message{Type: MsgPosition, HexIdent: "ABC123",
		Generated:  time.Date(2026, 2, 28, 9, 4, 5, 250e6, time.UTC),
		AltitudeFt: 35000, Lat: 37.5, Lon: 23.5})
	cases := []string{
		base,
		base + "\r\n",
		base + ",extra,fields",
		"",
		"MSG",
		"MSG,3,1,1,abc123,1,2026/02/28,09:04:05.250,2026/02/28,09:04:05.250,,35000,,,37.5,23.5,,,0,0,0,0",
		// time.Parse leniencies: 1-digit hour is accepted, so the strict
		// fast path must defer rather than reject.
		"MSG,1,1,1,ABC123,1,2026/02/28,9:04:05.250,2026/02/28,9:04:05.250,KLM33,,,,,,,,0,0,0,0",
		// Leap day valid and invalid.
		"MSG,1,1,1,ABC123,1,2024/02/29,09:04:05.250,2024/02/29,09:04:05.250,KLM33,,,,,,,,0,0,0,0",
		"MSG,1,1,1,ABC123,1,2026/02/29,09:04:05.250,2026/02/29,09:04:05.250,KLM33,,,,,,,,0,0,0,0",
		"MSG,1,1,1,ABC123,1,2026/13/01,09:04:05.250,2026/13/01,09:04:05.250,KLM33,,,,,,,,0,0,0,0",
		"MSG,1,1,1,ABC123,1,2026/00/10,24:00:00.000,2026/00/10,24:00:00.000,KLM33,,,,,,,,0,0,0,0",
		"MSG,1,1,1,ABC123,1,2026/02/28,09:04:60.000,2026/02/28,09:04:60.000,KLM33,,,,,,,,0,0,0,0",
		"MSG,1,1,1,ABC123,1,not-a-date,09:04:05.250,x,y,KLM33,,,,,,,,0,0,0,0",
		"MSG,9,1,1,ABC123,1,2026/02/28,09:04:05.250,2026/02/28,09:04:05.250,,,,,,,,,0,0,0,0",
		"MSG,x,1,1,ABC123,1,2026/02/28,09:04:05.250,2026/02/28,09:04:05.250,,,,,,,,,0,0,0,0",
		"FOO,3,1,1,ABC123,1,2026/02/28,09:04:05.250,2026/02/28,09:04:05.250,,,,,,,,,0,0,0,0",
		"MSG,3,1,1,,1,2026/02/28,09:04:05.250,2026/02/28,09:04:05.250,,,,,,,,,0,0,0,0",
		"MSG,3,1,1,ABC123,1,2026/02/28,09:04:05.250,2026/02/28,09:04:05.250,,35000,,,,,,,0,0,0,0",
		"MSG,3,1,1,ABC123,1,2026/02/28,09:04:05.250,2026/02/28,09:04:05.250,,35000,,,95.0,23.5,,,0,0,0,0",
		"MSG,3,1,1,ABC123,1,2026/02/28,09:04:05.250,2026/02/28,09:04:05.250,,bad,,,37.5,23.5,,,0,0,0,0",
		"MSG,4,1,1,ABC123,1,2026/02/28,09:04:05.250,2026/02/28,09:04:05.250,,,450.0,bad,,,64,,0,0,0,0",
		"MSG,4,1,1,ABC123,1,2026/02/28,09:04:05.250,2026/02/28,09:04:05.250,,,450.0,182.3,,,bad,,0,0,0,-1",
	}
	for _, line := range cases {
		diffCheck(t, line)
	}
}

// randomLine is a formatted SBS message — any type, sometimes out of range —
// truncated, corrupted in one byte, short of a field or given extra ones
// now and then.
func randomLine(rng *rand.Rand) string {
	types := []MsgType{MsgIdent, MsgPosition, MsgVelocity, MsgType(7)}
	m := Message{
		Type:     types[rng.Intn(len(types))],
		HexIdent: fmt.Sprintf("%06X", rng.Intn(1<<24)),
		Generated: time.Date(2000+rng.Intn(40), time.Month(1+rng.Intn(12)),
			1+rng.Intn(28), rng.Intn(24), rng.Intn(60), rng.Intn(60),
			rng.Intn(1000)*1e6, time.UTC),
		Callsign:    "FL" + strconv.Itoa(rng.Intn(1000)),
		AltitudeFt:  float64(rng.Intn(45000)),
		Lat:         rng.Float64()*200 - 100, // sometimes out of range
		Lon:         rng.Float64()*400 - 200,
		SpeedKn:     rng.Float64() * 600,
		TrackDeg:    rng.Float64() * 360,
		VertRateFpm: float64(rng.Intn(8000) - 4000),
		OnGround:    rng.Intn(4) == 0,
	}
	line := Format(m)
	switch rng.Intn(6) {
	case 0: // truncate anywhere
		line = line[:rng.Intn(len(line)+1)]
	case 1: // corrupt one byte
		b := []byte(line)
		b[rng.Intn(len(b))] = byte(rng.Intn(128))
		line = string(b)
	case 2: // drop a field
		f := strings.Split(line, ",")
		k := rng.Intn(len(f))
		line = strings.Join(append(f[:k], f[k+1:]...), ",")
	case 3: // append extra fields
		line += strings.Repeat(",9", rng.Intn(4)+1)
	}
	return line
}

// TestParseIntoDifferentialRandom drives both parsers over randomly
// generated and randomly mutated SBS lines.
func TestParseIntoDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 5000; i++ {
		diffCheck(t, randomLine(rng))
	}
}

// FuzzParseInto holds ParseInto to the reference parser on fuzzed lines,
// seeded from the differential's generator.
func FuzzParseInto(f *testing.F) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 32; i++ {
		f.Add(randomLine(rng))
	}
	f.Fuzz(diffCheck)
}
