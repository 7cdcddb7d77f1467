package onto

import (
	"bytes"
	"testing"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/rdf"
)

func samplePos() model.Position {
	return model.Position{
		EntityID: "237000001", Domain: model.Maritime, TS: 1489104000000,
		Pt: geo.Pt(23.6, 37.9), SpeedMS: 7.2, CourseDeg: 183.5, Status: model.StatusUnderway,
	}
}

func TestPositionRoundTrip(t *testing.T) {
	st := rdf.NewHead(nil)
	p := samplePos()
	st.AddBatch(PositionTriples(p))
	node := NodeIRI(p.EntityID, p.TS)
	got, ok := PositionFromStore(st, node)
	if !ok {
		t.Fatal("PositionFromStore failed")
	}
	if got.EntityID != p.EntityID || got.TS != p.TS {
		t.Errorf("identity: %+v", got)
	}
	if got.Pt.Lon != p.Pt.Lon || got.Pt.Lat != p.Pt.Lat {
		t.Errorf("coords: %+v", got.Pt)
	}
	if got.SpeedMS != p.SpeedMS || got.CourseDeg != p.CourseDeg {
		t.Errorf("kinematics: %+v", got)
	}
}

func TestPositionTriplesAviationHasAltitude(t *testing.T) {
	p := samplePos()
	p.Domain = model.Aviation
	p.Pt.Alt = 10000
	triples := PositionTriples(p)
	hasAlt := false
	for _, tr := range triples {
		if tr.P == PredAlt {
			hasAlt = true
		}
	}
	if !hasAlt {
		t.Error("aviation node missing altitude")
	}
	// Round trip restores domain and altitude.
	st := rdf.NewHead(nil)
	st.AddBatch(triples)
	got, ok := PositionFromStore(st, NodeIRI(p.EntityID, p.TS))
	if !ok || got.Domain != model.Aviation || got.Pt.Alt != 10000 {
		t.Errorf("round trip: %+v ok=%v", got, ok)
	}
}

func TestPositionFromStoreIncomplete(t *testing.T) {
	st := rdf.NewHead(nil)
	node := NodeIRI("x", 1)
	st.AddBatch([]TripleT{{S: node, P: PredLon, O: rdf.NewDouble(23)}})
	if _, ok := PositionFromStore(st, node); ok {
		t.Error("incomplete node should not reconstruct")
	}
}

func TestEntityTriples(t *testing.T) {
	e := model.Entity{
		ID: "237000001", Domain: model.Maritime, Name: "BLUE STAR", Callsign: "SV1",
		Type: "CARGO", LengthM: 120, Dest: "PIRAEUS",
	}
	st := rdf.NewHead(nil)
	st.AddBatch(EntityTriples(e))
	obj := EntityIRI(e.ID)
	// Must be typed as Vessel with all attributes present.
	typeCount := 0
	rdf.Find(st, &obj, &PredType, &ClassVessel, func(_, _, _ rdf.Term) bool { typeCount++; return true })
	if typeCount != 1 {
		t.Error("missing vessel type triple")
	}
	if st.Len() != 6 {
		t.Errorf("triples = %d, want 6", st.Len())
	}
	// Aviation entity typed as Aircraft, sparse fields skipped.
	a := model.Entity{ID: "4891B6", Domain: model.Aviation, Name: "AEE101"}
	st2 := rdf.NewHead(nil)
	st2.AddBatch(EntityTriples(a))
	obj2 := EntityIRI(a.ID)
	n := 0
	rdf.Find(st2, &obj2, &PredType, &ClassAircraft, func(_, _, _ rdf.Term) bool { n++; return true })
	if n != 1 {
		t.Error("missing aircraft type triple")
	}
	if st2.Len() != 2 {
		t.Errorf("sparse entity triples = %d, want 2", st2.Len())
	}
}

func TestEventTriples(t *testing.T) {
	ev := model.Event{
		Type: "rendezvous", Entity: "A", Other: "B",
		StartTS: 100, EndTS: 200, Area: "ZONE-1",
	}
	st := rdf.NewHead(nil)
	st.AddBatch(EventTriples(ev))
	node := EventIRI(ev.Type, ev.Entity, ev.StartTS)
	involved := 0
	rdf.Find(st, &node, &PredInvolves, nil, func(_, _, _ rdf.Term) bool { involved++; return true })
	if involved != 2 {
		t.Errorf("involves = %d, want 2", involved)
	}
	inArea := 0
	rdf.Find(st, &node, &PredInArea, nil, func(_, _, o rdf.Term) bool {
		inArea++
		if o != AreaIRI("ZONE-1") {
			t.Errorf("area = %v", o)
		}
		return true
	})
	if inArea != 1 {
		t.Error("missing area triple")
	}
}

func TestAreaTriples(t *testing.T) {
	poly := geo.Rect(geo.NewBBox(24, 36, 25, 37))
	st := rdf.NewHead(nil)
	st.AddBatch(AreaTriples("FISHING-ZONE-1", poly))
	node := AreaIRI("FISHING-ZONE-1")
	var minLon, maxLat float64
	lonP := rdf.NewIRI(NS + "minLon")
	latP := rdf.NewIRI(NS + "maxLat")
	rdf.Find(st, &node, &lonP, nil, func(_, _, o rdf.Term) bool { minLon, _ = o.Float(); return true })
	rdf.Find(st, &node, &latP, nil, func(_, _, o rdf.Term) bool { maxLat, _ = o.Float(); return true })
	if minLon != 24 || maxLat != 37 {
		t.Errorf("bbox triples wrong: %f %f", minLon, maxLat)
	}
}

func TestIRIGenerationStable(t *testing.T) {
	if NodeIRI("a", 5) != NodeIRI("a", 5) {
		t.Error("NodeIRI not deterministic")
	}
	if NodeIRI("a", 5) == NodeIRI("a", 6) {
		t.Error("NodeIRI collision across timestamps")
	}
	if EventIRI("x", "a", 5) == EventIRI("y", "a", 5) {
		t.Error("EventIRI collision across types")
	}
}

func TestSerializationRoundTripThroughNTriples(t *testing.T) {
	// Transformation output must survive the store's N-Triples round trip.
	st := rdf.NewHead(nil)
	p := samplePos()
	st.AddBatch(PositionTriples(p))
	st.AddBatch(EntityTriples(model.Entity{ID: p.EntityID, Name: "X"}))
	var buf bytes.Buffer
	if err := rdf.WriteNTriples(&buf, st); err != nil {
		t.Fatal(err)
	}
	st2 := rdf.NewHead(nil)
	if _, err := rdf.ReadNTriples(&buf, st2); err != nil {
		t.Fatal(err)
	}
	got, ok := PositionFromStore(st2, NodeIRI(p.EntityID, p.TS))
	if !ok || got.Pt.Lon != p.Pt.Lon {
		t.Errorf("round trip through N-Triples: %+v ok=%v", got, ok)
	}
}
