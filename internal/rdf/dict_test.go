package rdf

import (
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"
)

// TestDictionaryBytesPerTerm bounds the live heap a dictionary holds per
// distinct term on the terms stored positions mint — a node IRI, full
// precision lon/lat doubles and an xsd:long timestamp each — beside the
// few shared terms every position carries. A per-term object, a second
// copy of a term or a pointer per term each break the bound.
func TestDictionaryBytesPerTerm(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations are counted")
	}
	const entities, reports = 100, 100
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	d := NewDictionary()
	typ, class := NewIRI(RDFType), NewIRI("http://www.datacron-project.eu/datAcron#Node")
	for r := 0; r < reports; r++ {
		for e := 0; e < entities; e++ {
			entity := fmt.Sprintf("2370%05d", e)
			ts := 1490076560000 + int64(r)*10_000 + int64(e)*37
			node := NewIRI("http://www.datacron-project.eu/resource/node/" + entity + "/" + fmt.Sprint(ts))
			lon, lat := 23.1+float64(e)*0.0123456789+float64(r)*1.1e-4, 35.9+float64(e)*0.00987654321-float64(r)*0.7e-4
			if _, err := d.EncodeBatch([]TermTriple{
				{S: node, P: typ, O: class},
				{S: node, P: NewIRI("http://www.datacron-project.eu/datAcron#ofMovingObject"), O: NewIRI("http://www.datacron-project.eu/resource/obj/" + entity)},
				{S: node, P: NewIRI("http://www.datacron-project.eu/datAcron#lon"), O: NewDouble(lon)},
				{S: node, P: NewIRI("http://www.datacron-project.eu/datAcron#lat"), O: NewDouble(lat)},
				{S: node, P: NewIRI("http://www.datacron-project.eu/datAcron#time"), O: NewLong(ts)},
				{S: node, P: NewIRI("http://www.datacron-project.eu/datAcron#status"), O: NewLiteral("UnderWay")},
			}, nil); err != nil {
				t.Fatal(err)
			}
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(d)
	terms := d.Len()
	perTerm := float64(after.HeapAlloc-before.HeapAlloc) / float64(terms)
	t.Logf("%d terms: %.0f B/term", terms, perTerm)
	if terms < 29_000 {
		t.Fatalf("only %d distinct terms", terms)
	}
	if perTerm > 80 {
		t.Errorf("%.0f B of live heap per term, want at most 80", perTerm)
	}
}

// TestDictionaryGrowsOneTableAtATime holds the id tables to their purpose:
// a new term grows at most one table, so the rehash an Encode may do under
// the write lock is bounded by that table, and the tables share the ids
// evenly, so no table is much more than 1/numTables of the dictionary.
// The terms take every record shape — coded and spelled-out datatypes,
// language tags, IRIs — and each is found again after the rehashes.
func TestDictionaryGrowsOneTableAtATime(t *testing.T) {
	const n = 1 << 16
	d := NewDictionary()
	for i := 0; i < maxCodes; i++ { // use up the datatype codes
		if _, err := d.Encode(NewTyped("x", fmt.Sprintf("http://dt/%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	term := func(i int) Term {
		switch i % 4 {
		case 0:
			return NewLong(int64(i))
		case 1:
			return NewTyped(fmt.Sprint(i), "http://dt/spelled-out")
		case 2:
			return Term{Kind: Literal, Value: fmt.Sprint(i), Lang: "en"}
		}
		return NewIRI(fmt.Sprintf("http://x/%d", i))
	}
	slotsNow := func() (sum, largest int) {
		for i := range d.tables {
			sum, largest = sum+len(d.tables[i].slots), max(largest, len(d.tables[i].slots))
		}
		return sum, largest
	}
	before, _ := slotsNow()
	for i := 0; i < n; i++ {
		if _, err := d.Encode(term(i)); err != nil {
			t.Fatal(err)
		}
		after, largest := slotsNow()
		if grew := after - before; grew > largest/2 && grew > 16 {
			t.Fatalf("term %d grew the tables by %d slots, more than one doubling of the largest (%d)", i, grew, largest)
		}
		before = after
	}
	total := d.Len()
	for i := range d.tables {
		if held := d.tables[i].n; held < total/numTables/2 || held > 2*total/numTables {
			t.Errorf("table %d holds %d of %d ids, want within 2x of %d", i, held, total, total/numTables)
		}
	}
	for i := 0; i < n; i++ {
		if id, ok := d.Lookup(term(i)); !ok || id != ID(maxCodes+i+1) {
			t.Fatalf("Lookup(%#v) = %d, %v after the rehashes, want %d", term(i), id, ok, maxCodes+i+1)
		}
	}
}

// BenchmarkDictionaryEncodeWorst interns 2^22 new terms and reports the
// slowest single Encode, the longest the write lock holds ingest and every
// query's Terms() at once. Run it with -benchtime 1x: one run holds
// ≈ 110 MB.
func BenchmarkDictionaryEncodeWorst(b *testing.B) {
	const n = 1 << 22
	for range b.N {
		d := NewDictionary()
		var worst time.Duration
		start := time.Now()
		for i := 0; i < n; i++ {
			t0 := time.Now()
			if _, err := d.Encode(NewLong(int64(i))); err != nil {
				b.Fatal(err)
			}
			worst = max(worst, time.Since(t0))
		}
		b.ReportMetric(float64(time.Since(start).Nanoseconds())/n, "ns/term")
		b.ReportMetric(float64(worst.Microseconds()), "worst-us")
	}
}

// dictTerm draws a term from fuzz bytes: any Kind byte, a value that may
// outgrow a chunk, a datatype from a pool larger than the code table (so
// that later ones are spelled out in their records) and a language tag,
// over an alphabet with NUL, quotes, escapes and invalid UTF-8. ok=false
// when the bytes run out.
func dictTerm(data *[]byte) (Term, bool) {
	next := func() int {
		if len(*data) == 0 {
			return -1
		}
		b := (*data)[0]
		*data = (*data)[1:]
		return int(b)
	}
	kind, size, dt, lang := next(), next(), next(), next()
	if lang < 0 {
		return Term{}, false
	}
	const alphabet = "ab\"\\\n\x00@^<>\t\xff"
	var v strings.Builder
	if size == 255 {
		v.WriteString(strings.Repeat("long value ", 2*maxChunk/11)) // past a full chunk
	}
	for k := 0; k < size%16; k++ {
		c := next()
		if c < 0 {
			break
		}
		v.WriteByte(alphabet[c%len(alphabet)])
	}
	t := Term{Kind: Kind(kind), Value: v.String()}
	switch {
	case dt == 0:
	case dt == 1:
		t.Datatype = XSDString
	case dt == 2:
		t.Datatype = XSDDouble
	default:
		t.Datatype = fmt.Sprintf("http://dt/%d", dt)
	}
	switch lang % 4 {
	case 1:
		t.Lang = "en"
	case 2:
		t.Lang = "en\x00\"x"
	}
	return t, true
}

// FuzzDictionary interns fuzzed terms into a dictionary that has already
// used up its datatype codes, and holds it to a map: equal terms share one
// id, ids are dense, Decode(Encode(t)) is t, Lookup agrees and never
// interns, Plain is PlainRendering, and TermTable.At is Decode.
func FuzzDictionary(f *testing.F) {
	f.Add([]byte("\x00\x03abc\x00\x00"))
	f.Add([]byte("\x01\x02a\x01\x02\x01\x01\x02\x01\x00\x07\x01x\x00\x01"))
	f.Add([]byte("\x07\x05\x00\x01\x02\x03\x04\x10\x02\x02\xff\x00\xc8\x00"))
	f.Add([]byte("\x01\xff\x01\x00\x03\x01\xff\x01\x00\x03\x02\x00\xfe\x01"))
	// The seeds take every code: of dictTerm's datatypes dt/3 to dt/255,
	// the even ones from dt/6 have codes and the others are spelled out.
	var seeds []Term
	for i := 3; i < 3+maxCodes; i++ {
		seeds = append(seeds, NewTyped("seed", fmt.Sprintf("http://dt/%d", i*2)))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		d := NewDictionary()
		want := map[Term]ID{}
		var order []Term
		for i, term := range seeds {
			id, err := d.Encode(term)
			if err != nil || int(id) != len(order)+1 {
				t.Fatalf("seed term %d: id %d (%v)", i, id, err)
			}
			want[term] = id
			order = append(order, term)
		}
		for {
			term, ok := dictTerm(&data)
			if !ok {
				break
			}
			n := d.Len()
			id, found := d.Lookup(term)
			if d.Len() != n {
				t.Fatalf("Lookup(%#v) interned", term)
			}
			if prev, seen := want[term]; found != seen || found && id != prev {
				t.Fatalf("Lookup(%#v) = %d %v, want %d %v", term, id, found, prev, seen)
			}
			id, err := d.Encode(term)
			if err != nil {
				t.Fatal(err)
			}
			if prev, seen := want[term]; seen && id != prev || !seen && int(id) != len(order)+1 {
				t.Fatalf("Encode(%#v) = %d, want %d (seen %v, %d terms)", term, id, prev, seen, len(order))
			}
			if _, seen := want[term]; !seen {
				want[term] = id
				order = append(order, term)
			}
		}
		tt := d.Terms()
		if tt.Len() != len(order) || d.Len() != len(order) {
			t.Fatalf("%d terms in the view, %d in the dictionary, want %d", tt.Len(), d.Len(), len(order))
		}
		for i, term := range order {
			id := ID(i + 1)
			got, ok := d.Decode(id)
			if !ok || got != term || tt.At(id) != term {
				t.Fatalf("id %d: Decode = %#v %v, At = %#v, want %#v", id, got, ok, tt.At(id), term)
			}
			if tt.Plain(id) != term.PlainRendering() {
				t.Fatalf("id %d: Plain = %v, want %v for %#v", id, tt.Plain(id), term.PlainRendering(), term)
			}
		}
		if _, ok := d.Decode(ID(len(order) + 1)); ok {
			t.Fatal("an id past the last decodes")
		}
	})
}
