package model

import (
	"encoding/json"
	"math"
	"math/rand"
	"testing"

	"github.com/datacron-project/datacron/internal/geo"
)

// sameBits reports whether two position sequences are equal field for field,
// floats by bit pattern: NaN equals itself and −0 differs from +0.
func sameBits(a, b []Position) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		p, q := a[i], b[i]
		if p.EntityID != q.EntityID || p.Domain != q.Domain || p.TS != q.TS || p.Status != q.Status {
			return false
		}
		pc, qc := p.columns(), q.columns()
		for c := range pc {
			if math.Float64bits(pc[c]) != math.Float64bits(qc[c]) {
				return false
			}
		}
	}
	return true
}

// awkward are the float values a lossy codec gets wrong.
var awkward = []float64{
	0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000abc), // a NaN with a payload
	math.SmallestNonzeroFloat64, math.MaxFloat64, 1e-310,
}

// randomPositions draws a sequence of runs: a few entities in either domain,
// some with all-zero columns, timestamps that step, stall, go back and sit at
// the ends of the int64 range.
func randomPositions(r *rand.Rand) []Position {
	var out []Position
	for runs := r.Intn(5); runs > 0; runs-- {
		id := []string{"", "237000001", "4CA1B2", "ünïcode"}[r.Intn(4)]
		domain := Domain(r.Intn(3))
		zeroAlt, zeroVert := r.Intn(2) == 0, r.Intn(2) == 0
		ts := []int64{0, 1490076560000, math.MinInt64, math.MaxInt64 - 5}[r.Intn(4)]
		f := func() float64 {
			if r.Intn(4) == 0 {
				return awkward[r.Intn(len(awkward))]
			}
			return r.NormFloat64() * 100
		}
		for n := 1 + r.Intn(40); n > 0; n-- {
			p := Position{
				EntityID: id, Domain: domain, TS: ts,
				Pt: geo.Point{Lon: f(), Lat: f()}, SpeedMS: f(), CourseDeg: f(),
				Status: NavStatus(r.Intn(256)),
			}
			if !zeroAlt {
				p.Pt.Alt = f()
			}
			if !zeroVert {
				p.VertRateMS = f()
			}
			out = append(out, p)
			ts += []int64{1000, 0, -7, 1, math.MaxInt64}[r.Intn(5)] // wraps, and must
		}
	}
	return out
}

func TestPackedPositionsRoundTrip(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		pts := randomPositions(r)
		packed := AppendPositions(nil, pts)
		got, err := DecodePositions(packed)
		if err != nil {
			t.Fatalf("sequence %d: %v", i, err)
		}
		if !sameBits(got, pts) {
			t.Fatalf("sequence %d changed across a round trip:\n%+v\n%+v", i, pts, got)
		}
		if len(pts) == 0 && len(packed) != 0 {
			t.Fatalf("an empty sequence packed to %d bytes", len(packed))
		}
		// Through state.json.
		data, err := json.Marshal(PackedPositions(packed))
		if err != nil {
			t.Fatal(err)
		}
		var back PackedPositions
		if err := json.Unmarshal(data, &back); err != nil || string(back) != string(packed) {
			t.Fatalf("sequence %d: JSON round trip: %v", i, err)
		}
	}
}

// TestPackedPositionsShareTheEntityAndStaySmall bounds a packed point's
// bytes and a decode's allocations: the slice and the one entity string.
func TestPackedPositionsShareTheEntityAndStaySmall(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates on its own account")
	}
	var pts []Position
	for i := 0; i < 1000; i++ {
		pts = append(pts, Position{
			EntityID: "237000001", Domain: Maritime, TS: 1490076560000 + int64(i)*1000,
			Pt: geo.Pt(24.4+float64(i)*1e-4, 36.6), SpeedMS: 6.2, CourseDeg: 271.5, Status: StatusUnderway,
		})
	}
	packed := AppendPositions(nil, pts)
	if perPoint := float64(len(packed)) / float64(len(pts)); perPoint > 45 {
		t.Errorf("a maritime point packs to %.1f bytes, want at most 45", perPoint)
	}
	var got []Position
	allocs := testing.AllocsPerRun(10, func() { got, _ = DecodePositions(packed) })
	if allocs > 2 { // the slice and the one entity string
		t.Errorf("decoding one run of %d points made %.0f allocations", len(pts), allocs)
	}
	if !sameBits(got, pts) {
		t.Error("round trip changed the run")
	}
}

// TestPackedPositionsReadOldState: the packed fields of state.json are read
// as packed base64 only. The two shapes they had before positions were
// packed — a history as an array of Position objects, a KNN trajectory as a
// Trajectory object — are errors, not positions.
func TestPackedPositionsReadOldState(t *testing.T) {
	pts := []Position{
		{EntityID: "237000001", Domain: Maritime, TS: 1000, Pt: geo.Pt(24.4179, 36.66264833333334), SpeedMS: 0.4629996, CourseDeg: 300.4, Status: StatusAnchored},
		{EntityID: "237000001", Domain: Maritime, TS: 11000, Pt: geo.Pt(24.418, 36.6627), SpeedMS: 0.1, CourseDeg: 12},
	}
	var packed PackedPositions
	if err := json.Unmarshal(mustJSON(t, PackPositions(pts)), &packed); err != nil {
		t.Fatal(err)
	}
	if got, err := DecodePositions(packed); err != nil || !sameBits(got, pts) {
		t.Errorf("packed: read back %+v (%v)", got, err)
	}
	asArray, _ := json.MarshalIndent(pts, "", " ")
	asTrajectory, _ := json.Marshal(&Trajectory{EntityID: "237000001", Domain: Maritime, Points: pts})
	for name, data := range map[string][]byte{"array": asArray, "trajectory": asTrajectory} {
		var pp PackedPositions
		if err := json.Unmarshal(data, &pp); err == nil {
			t.Errorf("%s: accepted as %d packed bytes", name, len(pp))
		}
	}
	var pp PackedPositions
	if err := json.Unmarshal([]byte("null"), &pp); err != nil || len(pp) != 0 {
		t.Errorf("null: %v, %d bytes", err, len(pp))
	}
	if err := json.Unmarshal([]byte(`"not base64!"`), &pp); err == nil {
		t.Error("a string that is not base64 was accepted")
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	data, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// FuzzDecodePositions: packed positions are read from a snapshot on disk.
// Whatever the bytes, decoding must not panic and must not allocate beyond a
// small multiple of the input; what it accepts must survive a round trip.
func FuzzDecodePositions(f *testing.F) {
	r := rand.New(rand.NewSource(2))
	for i := 0; i < 8; i++ {
		f.Add(AppendPositions(nil, randomPositions(r)))
	}
	f.Add([]byte{0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0x0f}) // a count far beyond the input
	f.Fuzz(func(t *testing.T, data []byte) {
		pts, err := DecodePositions(data)
		if err != nil {
			return
		}
		if len(pts) > len(data)/2 {
			t.Fatalf("%d bytes decoded to %d points", len(data), len(pts))
		}
		again, err := DecodePositions(AppendPositions(nil, pts))
		if err != nil || !sameBits(again, pts) {
			t.Fatalf("accepted input does not survive a round trip (%v):\n%+v\n%+v", err, pts, again)
		}
	})
}
