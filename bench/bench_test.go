package main

import (
	"bytes"
	"encoding/json"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wire"
)

func mustWorld(t *testing.T, kind worldKind, seed int64, n int) world {
	t.Helper()
	w, err := genWorld(kind, seed, n)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestSameSeedSameInputs(t *testing.T) {
	for _, format := range []string{formatText, formatBinary} {
		a := newFeed(format, mustWorld(t, sparse, 7, 3000).lines, sparse.pacedBatch)
		b := newFeed(format, mustWorld(t, sparse, 7, 3000).lines, sparse.pacedBatch)
		if len(a.batches) != len(b.batches) || len(a.batches) != 12 {
			t.Fatalf("%s: %d and %d batches, want 12", format, len(a.batches), len(b.batches))
		}
		for i := range a.batches {
			if !bytes.Equal(a.batches[i].body, b.batches[i].body) {
				t.Fatalf("%s: body %d differs between two generations of one seed", format, i)
			}
		}
		c := newFeed(format, mustWorld(t, sparse, 8, 3000).lines, sparse.pacedBatch)
		if bytes.Equal(a.batches[0].body, c.batches[0].body) {
			t.Fatalf("%s: seeds 7 and 8 gave the same first body", format)
		}
	}
	w := mustWorld(t, sparse, 7, 3000)
	ids := seenEntities(w.lines)
	if len(ids) == 0 || len(ids) > sparse.vessels {
		t.Fatalf("%d entities seen in a %d-vessel world", len(ids), sparse.vessels)
	}
	p1, p2 := pickEntities(ids, 7, 16), pickEntities(seenEntities(mustWorld(t, sparse, 7, 3000).lines), 7, 16)
	if !reflect.DeepEqual(p1, p2) {
		t.Fatalf("entity picks differ for one seed: %v vs %v", p1, p2)
	}
	if reflect.DeepEqual(p1, pickEntities(ids, 8, 16)) {
		t.Fatal("entity picks ignore the seed")
	}
	for _, id := range p1 {
		if len(id) != 9 {
			t.Fatalf("entity id %q is not a nine-digit MMSI", id)
		}
	}
}

func TestStreamNeverRepeats(t *testing.T) {
	w := mustWorld(t, dense, 3, 5000)
	seen := map[synth.TimedLine]bool{}
	last := int64(0)
	for _, tl := range w.lines {
		if tl.TS < last {
			t.Fatalf("timestamp went back: %d after %d", tl.TS, last)
		}
		last = tl.TS
		// Position reports are single sentences and never recur; the filler
		// second sentence of a static message can.
		if strings.Contains(tl.Line, "AIVDM,1,1,") {
			if seen[tl] {
				t.Fatalf("position report repeated: %v", tl)
			}
			seen[tl] = true
		}
	}
	shares := splitByEntity(w.lines, 2)
	if len(shares[0])+len(shares[1]) != len(w.lines) || len(shares[0]) == 0 || len(shares[1]) == 0 {
		t.Fatalf("split %d lines into %d + %d", len(w.lines), len(shares[0]), len(shares[1]))
	}
	owner := map[string]int{}
	for i, share := range shares {
		for _, id := range seenEntities(share) {
			if j, ok := owner[id]; ok && j != i {
				t.Fatalf("entity %s is spread over both connections", id)
			}
			owner[id] = i
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0.5}, {99, 0.5}, {100, 0.90}, {199, 0.90}, {200, 0.95}, {999, 0.95}, {1000, 0.99}, {9999, 0.99}, {10000, 0.999}} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	var l latencies
	for i := 1; i <= 200; i++ {
		l.add(time.Duration(i) * time.Millisecond)
	}
	s := l.summarize()
	if s.N != 200 || s.P50 != 100 || s.P25 != 50 || s.TailP != 0.95 || s.TailMS != 190 {
		t.Errorf("summary of 1..200 ms = %+v", s)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4], n=4) == [1.0, 2.0, 4.0]
	if q1, q3 := quartiles([]float64{1, 2, 4}); q1 != 1 || q3 != 4 {
		t.Fatalf("quartiles = %v, %v; want 1, 4", q1, q3)
	}
	if got := spread([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
}

// fakeClock advances only when slept on or told to; oversleep models a
// generator that wakes late.
type fakeClock struct {
	now       time.Time
	oversleep map[int]time.Duration // by Sleep call number
	sleeps    int
}

func (c *fakeClock) Now() time.Time { return c.now }
func (c *fakeClock) Sleep(d time.Duration) {
	c.now = c.now.Add(d + c.oversleep[c.sleeps])
	c.sleeps++
}

func TestPaceMeasuresFromIntendedTime(t *testing.T) {
	const ms = time.Millisecond
	start := time.Unix(1000, 0)
	clk := &fakeClock{now: start}
	took := []time.Duration{1 * ms, 25 * ms, 1 * ms, 1 * ms}
	p := pace(clk, start, 10*ms, 4, func(i int) { clk.now = clk.now.Add(took[i]) })
	// Op 1 stalls for 25 ms, so ops 2 and 3 go out late; their latency runs
	// from when they were due (20 and 30 ms), not from when they went out.
	want := []time.Duration{1 * ms, 25 * ms, 16 * ms, 7 * ms}
	if !reflect.DeepEqual(p.latency, want) {
		t.Errorf("latency = %v, want %v", p.latency, want)
	}
	// The daemon caused that delay, not the generator.
	if !reflect.DeepEqual(p.late, []time.Duration{0, 0, 0, 0}) || p.lateShare() != 0 {
		t.Errorf("late = %v (share %v), want none", p.late, p.lateShare())
	}

	clk = &fakeClock{now: start, oversleep: map[int]time.Duration{0: 15 * ms}}
	p = pace(clk, start, 10*ms, 3, func(int) { clk.now = clk.now.Add(ms) })
	// The first sleep (before op 1) overshoots by 15 ms: the generator's own
	// lateness, more than one gap, on one send of three.
	if want := []time.Duration{0, 15 * ms, 0}; !reflect.DeepEqual(p.late, want) {
		t.Errorf("late = %v, want %v", p.late, want)
	}
	if want := []time.Duration{1 * ms, 16 * ms, 7 * ms}; !reflect.DeepEqual(p.latency, want) {
		t.Errorf("latency = %v, want %v", p.latency, want)
	}
	if got := p.lateShare(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("lateShare = %v, want 1/3", got)
	}
}

func TestParseMetricsAndDelta(t *testing.T) {
	const before = `# HELP datacron_ingest_lines_total Wire lines processed by the pipeline.
# TYPE datacron_ingest_lines_total counter
datacron_ingest_lines_total 100
datacron_ingest_queue_depth{worker="0"} 3
datacron_ingest_queue_depth{worker="1"} 9
datacron_build_info{version="dev",domain="maritime"} 1
`
	const after = `datacron_ingest_lines_total 350
datacron_ingest_queue_depth{worker="0"} 1
datacron_ingest_queue_depth{worker="1"} 2
datacron_store_segments 4
datacron_compression_ratio 1.5e+01
`
	b, err := parseMetrics(before)
	if err != nil {
		t.Fatal(err)
	}
	if b["datacron_ingest_lines_total"] != 100 || b[`datacron_ingest_queue_depth{worker="1"}`] != 9 || len(b) != 4 {
		t.Fatalf("parsed %v", b)
	}
	if got := b.sumPrefix("datacron_ingest_queue_depth"); got != 12 {
		t.Fatalf("family sum %v, want 12", got)
	}
	a, err := parseMetrics(after)
	if err != nil {
		t.Fatal(err)
	}
	d := a.minus(b)
	if d["datacron_ingest_lines_total"] != 250 || d["datacron_store_segments"] != 4 || d["datacron_compression_ratio"] != 15 {
		t.Fatalf("delta %v", d)
	}
	if _, err := parseMetrics("datacron_x notanumber\n"); err == nil {
		t.Fatal("a sample without a numeric value parsed")
	}
}

// partialServer accepts a random prefix of every ingest body and refuses the
// rest with 429, like a daemon whose queues are full, and records every line
// it accepted.
type partialServer struct {
	mu    sync.Mutex
	rng   *rand.Rand
	lines []string
}

func (s *partialServer) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	var got []string
	if r.Header.Get("Content-Type") == wire.ContentType {
		if _, _, err := wire.EachFrameText(body, func(_ int64, line string) error {
			got = append(got, line)
			return nil
		}); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
	} else {
		for _, l := range strings.Split(strings.TrimSuffix(string(body), "\n"), "\n") {
			got = append(got, l[strings.IndexByte(l, ' ')+1:])
		}
	}
	s.mu.Lock()
	take := len(got)
	if s.rng.Intn(3) > 0 {
		take = s.rng.Intn(len(got) + 1)
	}
	s.lines = append(s.lines, got[:take]...)
	s.mu.Unlock()
	status := http.StatusAccepted
	if take < len(got) {
		status = http.StatusTooManyRequests
	}
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(ingestReply{Accepted: take, Rejected: len(got) - take})
}

func TestResumeNeverResendsAnAcceptedLine(t *testing.T) {
	w := mustWorld(t, sparse, 5, 2000)
	for _, format := range []string{formatText, formatBinary} {
		ps := &partialServer{rng: rand.New(rand.NewSource(1))}
		ts := httptest.NewServer(ps)
		f := newFeed(format, w.lines, sparse.pacedBatch)
		c := newConn(ts.URL)
		refused := 0
		for _, b := range f.batches {
			n, err := c.send(f, b, false)
			if err != nil {
				t.Fatalf("%s: %v", format, err)
			}
			refused += n
		}
		c.close()
		ts.Close()
		if refused == 0 || c.refusals != refused {
			t.Fatalf("%s: %d refusals returned, %d counted: the server never refused", format, refused, c.refusals)
		}
		if len(ps.lines) != len(w.lines) {
			t.Fatalf("%s: server accepted %d lines, %d were sent once", format, len(ps.lines), len(w.lines))
		}
		for i, tl := range w.lines {
			if ps.lines[i] != tl.Line {
				t.Fatalf("%s: accepted line %d is %q, want %q", format, i, ps.lines[i], tl.Line)
			}
		}
	}
}

func TestBestRateTakesTheFastestLapOfEachLeg(t *testing.T) {
	loads := []*bulk{
		{lines: 1200, legs: []float64{1, 4, 1, 1}}, // disturbed on its second leg
		{lines: 1200, legs: []float64{2, 2, 2, 2}},
		{lines: 1200, legs: []float64{1, 3, 5, 1}},
	}
	// 1 + 2 + 1 + 1 seconds for 1200 lines.
	if got := bestRate(loads); got != 240 {
		t.Errorf("bestRate = %v, want 240", got)
	}
	if got := loads[0].rate(); math.Abs(got-1200.0/7) > 1e-9 {
		t.Errorf("rate = %v, want 1200/7", got)
	}
	if got := bestRate(nil); got != 0 {
		t.Errorf("bestRate of no load = %v", got)
	}
}

func TestYardstickReadsTheStretchATimingTook(t *testing.T) {
	t0 := time.Unix(1000, 0)
	y := &yardstick{}
	if got := y.reading(t0, t0.Add(time.Second)); got != yardQuiet {
		t.Fatalf("reading without a sample = %v, want %v", got, yardQuiet)
	}
	// A minute of a quiet box, then five seconds of one twice as slow.
	for i := 0; i < 1200; i++ {
		y.at, y.took = append(y.at, t0.Add(time.Duration(i)*yardEvery)), append(y.took, yardQuiet)
	}
	slow := t0.Add(1200 * yardEvery)
	for i := 0; i < 100; i++ {
		y.at, y.took = append(y.at, slow.Add(time.Duration(i)*yardEvery)), append(y.took, 2*yardQuiet)
	}
	if got := y.reading(t0.Add(10*time.Second), t0.Add(20*time.Second)); got != yardQuiet {
		t.Errorf("reading of a quiet stretch = %v, want %v", got, yardQuiet)
	}
	if got := y.reading(slow.Add(2*time.Second), slow.Add(3*time.Second)); got != 2*yardQuiet {
		t.Errorf("reading of a slow stretch = %v, want %v", got, 2*yardQuiet)
	}
	// A read of a fraction of a millisecond is judged by the readings behind it.
	if got := y.reading(slow.Add(4*time.Second), slow.Add(4*time.Second+time.Millisecond)); got != 2*yardQuiet {
		t.Errorf("reading of a short stretch = %v, want %v", got, 2*yardQuiet)
	}
	// So is a timing noted after the last sample.
	if got := y.reading(slow.Add(time.Hour), slow.Add(time.Hour+time.Millisecond)); got != 2*yardQuiet {
		t.Errorf("reading after the last sample = %v, want %v", got, 2*yardQuiet)
	}

	// A reading beyond the slow state's is the yardstick's own trouble.
	for i := 0; i < 20; i++ {
		y.at, y.took = append(y.at, slow.Add(2*time.Hour+time.Duration(i)*yardEvery)), append(y.took, 9*yardQuiet)
	}
	if got := y.reading(slow.Add(2*time.Hour), slow.Add(2*time.Hour+time.Second)); got != yardWorst {
		t.Errorf("reading of a yardstick in trouble = %v, want %v", got, yardWorst)
	}

	// The daemon follows the yardstick part of the way: a reading twice the
	// quiet one means (2 + yardSteady) / (1 + yardSteady) times the time.
	if got := slowness(yardQuiet); got != 1 {
		t.Errorf("slowness of a quiet box = %v, want 1", got)
	}
	want := (2 + yardSteady) / (1 + yardSteady)
	if got := slowness(2 * yardQuiet); math.Abs(got-want) > 1e-12 {
		t.Errorf("slowness at twice the quiet reading = %v, want %v", got, want)
	}
	from, to := slow.Add(2*time.Second), slow.Add(2*time.Second+39*time.Millisecond)
	if got := y.fair(from, to); math.Abs(float64(got)-39e6/want) > 1 {
		t.Errorf("fair(39 ms on the slow box) = %v, want %v", got, time.Duration(39e6/want))
	}
	// Outside a run there is no yardstick and times stand as measured.
	if got := (*yardstick)(nil).fair(from, to); got != 39*time.Millisecond {
		t.Errorf("fair without a yardstick = %v, want 39ms", got)
	}
}

func TestSelfTimes(t *testing.T) {
	tr := &tracer{on: true, t0: time.Now()}
	tr.begin("request", 0)
	tr.begin("wire", 0)
	tr.end()
	tr.begin("cer", 0)
	tr.end()
	tr.end()
	// Overwrite the clock readings: request 0..100, wire 10..30, cer 40..90.
	tr.spans[0].StartNS, tr.spans[0].EndNS = 0, 100
	tr.spans[1].StartNS, tr.spans[1].EndNS = 10, 30
	tr.spans[2].StartNS, tr.spans[2].EndNS = 40, 90
	if tr.spans[1].Parent != 0 || tr.spans[2].Parent != 0 || tr.spans[0].Parent != -1 {
		t.Fatalf("parents: %+v", tr.spans)
	}
	self := selfTimes(tr.spans)
	if self["request"] != 30 || self["wire"] != 20 || self["cer"] != 50 {
		t.Fatalf("self times %v", self)
	}
	joined := appendSpans(append([]span(nil), tr.spans...), tr.spans)
	if joined[4].Parent != 3 || joined[3].Parent != -1 {
		t.Fatalf("joined parents: %+v", joined)
	}
	off := &tracer{}
	off.begin("x", 0)
	off.end()
	if len(off.spans) != 0 {
		t.Fatal("a tracer that is off recorded a span")
	}
}

func TestJudge(t *testing.T) {
	lower := metricDef{Name: "visible_p50_ms", Better: "lower", Bound: 0.10}
	higher := metricDef{Name: "ingest_lines_per_s", Better: "higher", Bound: 0.10}
	steady := []float64{100, 101, 99, 100, 102}
	for _, c := range []struct {
		m    metricDef
		a, b []float64
		want string
	}{
		{lower, steady, []float64{120, 121, 119, 120, 122}, verdictWorse},
		{lower, steady, []float64{80, 81, 79, 80, 82}, verdictBetter},
		{lower, steady, []float64{104, 105, 103, 104, 106}, verdictUnchanged},
		{higher, steady, []float64{80, 81, 79, 80, 82}, verdictWorse},
		{higher, steady, []float64{120, 121, 119, 120, 122}, verdictBetter},
		{lower, steady, []float64{60, 100, 140, 180, 220}, verdictUnresolved},
	} {
		if got, _ := judge(c.m, c.a, c.b); got != c.want {
			t.Errorf("judge(%s, %v -> %v) = %s, want %s", c.m.Name, c.a, c.b, got, c.want)
		}
	}
}

// TestQuickSuite builds and spawns the real daemon and runs all four
// workloads plus the traced run at one-second scale, so the benchmark cannot
// rot unnoticed. Skipped with -short.
func TestQuickSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns the daemon")
	}
	code, err := run(options{seed: 1, trace: true, quick: true, runs: 1, noKeepers: true})
	if err != nil || code != 0 {
		t.Fatalf("quick suite: exit code %d, err %v (see bench/out/*.stderr)", code, err)
	}
	children.Lock()
	defer children.Unlock()
	if len(children.daemons) != 0 || len(children.dirs) != 0 {
		t.Fatalf("left behind %d daemons and %d temp dirs", len(children.daemons), len(children.dirs))
	}
}
