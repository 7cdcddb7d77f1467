// Package onto is the data-transformation layer of the datAcron
// architecture: it converts surveillance records, entities, events and
// contextual data into the common RDF representation ("convert data from
// disparate data sources ... to a common representation", §2) and back.
// The vocabulary follows the structure of the published datAcron ontology:
// moving objects have semantic trajectories made of semantic nodes, each
// with geometry, time and movement properties.
package onto

import (
	"strconv"
	"strings"

	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/rdf"
)

// NS is the vocabulary namespace.
const NS = "http://www.datacron-project.eu/datAcron#"

// res is the namespace for generated resources (instances).
const res = "http://www.datacron-project.eu/resource/"

// Vocabulary class IRIs.
var (
	ClassVessel   = rdf.NewIRI(NS + "Vessel")
	ClassAircraft = rdf.NewIRI(NS + "Aircraft")
	ClassNode     = rdf.NewIRI(NS + "SemanticNode") // one position report
	ClassEvent    = rdf.NewIRI(NS + "Event")
	ClassArea     = rdf.NewIRI(NS + "Area")
)

// Vocabulary predicate IRIs.
var (
	PredType      = rdf.NewIRI(rdf.RDFType)
	PredOfObject  = rdf.NewIRI(NS + "ofMovingObject")
	PredLon       = rdf.NewIRI(NS + "longitude")
	PredLat       = rdf.NewIRI(NS + "latitude")
	PredAlt       = rdf.NewIRI(NS + "altitude")
	PredTime      = rdf.NewIRI(NS + "timestamp") // xsd:long Unix millis
	PredSpeed     = rdf.NewIRI(NS + "speed")     // m/s
	PredHeading   = rdf.NewIRI(NS + "heading")   // degrees
	PredStatus    = rdf.NewIRI(NS + "navStatus")
	PredName      = rdf.NewIRI(NS + "name")
	PredCallsign  = rdf.NewIRI(NS + "callsign")
	PredShipType  = rdf.NewIRI(NS + "vehicleType")
	PredLength    = rdf.NewIRI(NS + "length")
	PredDest      = rdf.NewIRI(NS + "destination")
	PredEventType = rdf.NewIRI(NS + "eventType")
	PredStart     = rdf.NewIRI(NS + "start") // xsd:long Unix millis
	PredEnd       = rdf.NewIRI(NS + "end")
	PredInvolves  = rdf.NewIRI(NS + "involves")
	PredInArea    = rdf.NewIRI(NS + "inArea")
	PredSameAs    = rdf.NewIRI("http://www.w3.org/2002/07/owl#sameAs")
)

// EntityIRI returns the resource IRI for a moving entity id.
func EntityIRI(id string) rdf.Term { return rdf.NewIRI(res + "obj/" + id) }

// NodeIRI returns the resource IRI for one position report (semantic node).
func NodeIRI(entityID string, ts int64) rdf.Term {
	return rdf.NewIRI(res + "node/" + entityID + "/" + strconv.FormatInt(ts, 10))
}

// EventIRI returns the resource IRI for a detected or scripted event.
func EventIRI(typ, entityID string, ts int64) rdf.Term {
	return rdf.NewIRI(res + "event/" + typ + "/" + entityID + "/" + strconv.FormatInt(ts, 10))
}

// AreaIRI returns the resource IRI of a named area.
func AreaIRI(name string) rdf.Term { return rdf.NewIRI(res + "area/" + name) }

// AnchorEntityID extracts the owning entity id from the IRI of an
// entity-anchored resource — position nodes (NodeIRI) and events
// (EventIRI). ok is false for anchors that belong to no entity (areas)
// and for IRIs outside the resource namespace; those stay on whichever
// cluster node created them.
func AnchorEntityID(iri string) (string, bool) {
	rest, found := strings.CutPrefix(iri, res)
	if !found {
		return "", false
	}
	switch {
	case strings.HasPrefix(rest, "node/"):
		// node/<entity>/<ts>
		rest = rest[len("node/"):]
		if i := strings.IndexByte(rest, '/'); i > 0 {
			return rest[:i], true
		}
	case strings.HasPrefix(rest, "event/"):
		// event/<type>/<entity>/<ts>
		rest = rest[len("event/"):]
		if i := strings.IndexByte(rest, '/'); i >= 0 {
			rest = rest[i+1:]
			if j := strings.IndexByte(rest, '/'); j > 0 {
				return rest[:j], true
			}
		}
	}
	return "", false
}

// PositionTriples converts one position report to triples rooted at its
// semantic node.
func PositionTriples(p model.Position) []TripleT {
	return AppendPositionTriples(nil, p)
}

// AppendPositionTriples appends one position report's triples to dst — the
// allocation-free form batched ingest uses to fill per-worker triple
// buffers.
func AppendPositionTriples(dst []TripleT, p model.Position) []TripleT {
	node := NodeIRI(p.EntityID, p.TS)
	dst = append(dst,
		TripleT{S: node, P: PredType, O: ClassNode},
		TripleT{S: node, P: PredOfObject, O: EntityIRI(p.EntityID)},
		TripleT{S: node, P: PredLon, O: rdf.NewDouble(p.Pt.Lon)},
		TripleT{S: node, P: PredLat, O: rdf.NewDouble(p.Pt.Lat)},
		TripleT{S: node, P: PredTime, O: rdf.NewLong(p.TS)},
		TripleT{S: node, P: PredSpeed, O: rdf.NewDouble(p.SpeedMS)},
		TripleT{S: node, P: PredHeading, O: rdf.NewDouble(p.CourseDeg)},
		TripleT{S: node, P: PredStatus, O: rdf.NewLiteral(p.Status.String())},
	)
	if p.Domain == model.Aviation {
		dst = append(dst, TripleT{S: node, P: PredAlt, O: rdf.NewDouble(p.Pt.Alt)})
	}
	return dst
}

// EntityTriples converts static entity data to triples.
func EntityTriples(e model.Entity) []TripleT {
	obj := EntityIRI(e.ID)
	cls := ClassVessel
	if e.Domain == model.Aviation {
		cls = ClassAircraft
	}
	out := []TripleT{
		{S: obj, P: PredType, O: cls},
		{S: obj, P: PredName, O: rdf.NewLiteral(e.Name)},
	}
	if e.Callsign != "" {
		out = append(out, TripleT{S: obj, P: PredCallsign, O: rdf.NewLiteral(e.Callsign)})
	}
	if e.Type != "" {
		out = append(out, TripleT{S: obj, P: PredShipType, O: rdf.NewLiteral(e.Type)})
	}
	if e.LengthM > 0 {
		out = append(out, TripleT{S: obj, P: PredLength, O: rdf.NewDouble(e.LengthM)})
	}
	if e.Dest != "" {
		out = append(out, TripleT{S: obj, P: PredDest, O: rdf.NewLiteral(e.Dest)})
	}
	return out
}

// EventTriples converts an event to triples.
func EventTriples(ev model.Event) []TripleT {
	node := EventIRI(ev.Type, ev.Entity, ev.StartTS)
	out := []TripleT{
		{S: node, P: PredType, O: ClassEvent},
		{S: node, P: PredEventType, O: rdf.NewLiteral(ev.Type)},
		{S: node, P: PredInvolves, O: EntityIRI(ev.Entity)},
		{S: node, P: PredStart, O: rdf.NewLong(ev.StartTS)},
		{S: node, P: PredEnd, O: rdf.NewLong(ev.EndTS)},
	}
	if ev.Other != "" {
		out = append(out, TripleT{S: node, P: PredInvolves, O: EntityIRI(ev.Other)})
	}
	if ev.Area != "" {
		out = append(out, TripleT{S: node, P: PredInArea, O: AreaIRI(ev.Area)})
	}
	return out
}

// TripleT is a term-level triple, the unit the transformation layer emits.
// It is an alias of rdf.TermTriple so triple buffers can flow into
// rdf.Head.AddBatch without a copy.
type TripleT = rdf.TermTriple

// PositionFromStore reconstructs the position report rooted at the given
// semantic node, the inverse of PositionTriples. ok is false when the node
// is incomplete.
func PositionFromStore(g rdf.Graph, node rdf.Term) (model.Position, bool) {
	var p model.Position
	found := map[string]bool{}
	rdf.Find(g, &node, nil, nil, func(_, pred, obj rdf.Term) bool {
		switch pred {
		case PredOfObject:
			p.EntityID = strings.TrimPrefix(obj.Value, res+"obj/")
			found["obj"] = true
		case PredLon:
			if v, ok := obj.Float(); ok {
				p.Pt.Lon = v
				found["lon"] = true
			}
		case PredLat:
			if v, ok := obj.Float(); ok {
				p.Pt.Lat = v
				found["lat"] = true
			}
		case PredAlt:
			if v, ok := obj.Float(); ok {
				p.Pt.Alt = v
				p.Domain = model.Aviation
			}
		case PredTime:
			if v, ok := obj.Int(); ok {
				p.TS = v
				found["ts"] = true
			}
		case PredSpeed:
			if v, ok := obj.Float(); ok {
				p.SpeedMS = v
			}
		case PredHeading:
			if v, ok := obj.Float(); ok {
				p.CourseDeg = v
			}
		}
		return true
	})
	return p, found["obj"] && found["lon"] && found["lat"] && found["ts"]
}

// AreaTriples converts a named area polygon into triples carrying its
// bounding box (sufficient for coarse spatial joins in the RDF layer; exact
// geometry stays in the analytics layer).
func AreaTriples(name string, poly *geo.Polygon) []TripleT {
	node := AreaIRI(name)
	b := poly.BBox()
	return []TripleT{
		{S: node, P: PredType, O: ClassArea},
		{S: node, P: PredName, O: rdf.NewLiteral(name)},
		{S: node, P: rdf.NewIRI(NS + "minLon"), O: rdf.NewDouble(b.MinLon)},
		{S: node, P: rdf.NewIRI(NS + "minLat"), O: rdf.NewDouble(b.MinLat)},
		{S: node, P: rdf.NewIRI(NS + "maxLon"), O: rdf.NewDouble(b.MaxLon)},
		{S: node, P: rdf.NewIRI(NS + "maxLat"), O: rdf.NewDouble(b.MaxLat)},
	}
}
