package cer

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"reflect"
	"testing"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
)

// throughJSON is the trip a SuiteState makes through a snapshot file.
func throughJSON(t *testing.T, st SuiteState) SuiteState {
	t.Helper()
	data, err := json.Marshal(st)
	if err != nil {
		t.Fatal(err)
	}
	var back SuiteState
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	return back
}

// TestSuiteStateAcrossCut is the kill -9 path of the durable daemon: a suite
// restored from the state exported at a cut must continue exactly as the
// suite that never stopped, cell membership rebuilt.
func TestSuiteStateAcrossCut(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, s := range maritimeStreams() {
		t.Run(s.name, func(t *testing.T) {
			whole := NewMaritimeSuiteConfig(s.box, s.areas, s.cfg)
			want := make([][]model.Event, len(s.positions))
			for i, p := range s.positions {
				want[i] = append([]model.Event(nil), whole.Process(p)...)
			}
			for _, cut := range []int{rng.Intn(len(s.positions)), rng.Intn(len(s.positions))} {
				before := NewMaritimeSuiteConfig(s.box, s.areas, s.cfg)
				for _, p := range s.positions[:cut] {
					before.Process(p)
				}
				after := NewMaritimeSuiteConfig(s.box, s.areas, s.cfg)
				after.RestoreState(throughJSON(t, before.ExportState()))
				if !reflect.DeepEqual(after.ExportState(), before.ExportState()) {
					t.Fatalf("cut %d: restored suite exports a different state", cut)
				}
				for i := cut; i < len(s.positions); i++ {
					sameEvents(t, fmt.Sprintf("cut %d, report %d", cut, i), want[i], after.Process(s.positions[i]))
				}
			}
		})
	}
}

// TestSuiteStateWithPrev restores a SuiteState recorded at PR 15, at report
// 4146 of the scripted world, two rendezvous runs open, its pairer carrying
// the since-deleted "prev" map. The field is ignored, the rest restores, and
// the tail detects what an uninterrupted run detects.
func TestSuiteStateWithPrev(t *testing.T) {
	data, err := os.ReadFile("testdata/suite_state_pr15.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"prev":{"`)) {
		t.Fatal("fixture carries no prev map")
	}
	var old struct {
		Cut   int        `json:"cut"`
		State SuiteState `json:"state"`
	}
	if err := json.Unmarshal(data, &old); err != nil {
		t.Fatal(err)
	}
	s := scriptedStream()
	whole := NewMaritimeSuiteConfig(s.box, s.areas, s.cfg)
	for _, p := range s.positions[:old.Cut] {
		whole.Process(p)
	}
	// Today's suite reaches the same state at the cut, minus prev, so a
	// snapshot only got smaller.
	if !reflect.DeepEqual(whole.ExportState(), old.State) {
		t.Fatal("state at the cut differs from the recorded one beyond the dropped prev map")
	}
	if now, _ := json.Marshal(whole.ExportState()); len(now) >= len(data) {
		t.Fatalf("state is %d bytes, the recorded one %d", len(now), len(data))
	}

	restored := NewMaritimeSuiteConfig(s.box, s.areas, s.cfg)
	restored.RestoreState(old.State)
	fired := 0
	for i := old.Cut; i < len(s.positions); i++ {
		want := whole.Process(s.positions[i])
		fired += len(want)
		sameEvents(t, fmt.Sprintf("report %d", i), want, restored.Process(s.positions[i]))
	}
	if fired == 0 {
		t.Fatal("no detection after the cut: the fixture tests nothing")
	}
}

// TestAreaEntryOrderIsStable: a report that enters two areas at once must
// emit its two events in one order in every process, whatever order the
// areas map is walked in.
func TestAreaEntryOrderIsStable(t *testing.T) {
	box := geo.NewBBox(22, 34, 30, 42)
	areas := map[string]*geo.Polygon{}
	for _, name := range []string{"ZONE-D", "ZONE-A", "ZONE-C", "ZONE-B", "ZONE-E", "PORT-X"} {
		areas[name] = geo.Circle(geo.Pt(24.5, 37), 2000, 12)
	}
	var first []string
	for i := 0; i < 20; i++ {
		suite := NewMaritimeSuite(box, areas)
		suite.Process(model.Position{EntityID: "V", TS: 0, Pt: geo.Pt(24.6, 37), SpeedMS: 5})
		var order []string
		for _, ev := range suite.Process(model.Position{EntityID: "V", TS: 10_000, Pt: geo.Pt(24.5, 37), SpeedMS: 5}) {
			if ev.Type != "areaEntry" {
				t.Fatalf("unexpected event %+v", ev)
			}
			order = append(order, ev.Area)
		}
		if i == 0 {
			first = order
			if want := []string{"ZONE-A", "ZONE-B", "ZONE-C", "ZONE-D", "ZONE-E"}; !reflect.DeepEqual(order, want) {
				t.Fatalf("entry order %v, want %v", order, want)
			}
		} else if !reflect.DeepEqual(order, first) {
			t.Fatalf("suite %d emitted %v, suite 0 %v", i, order, first)
		}
	}
}
