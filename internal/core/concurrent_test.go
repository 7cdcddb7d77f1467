package core

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

// submitChunks feeds tls through SubmitBatch in chunk-line calls and fails
// the test on any shed line.
func submitChunks(t *testing.T, ing *Ingestor, log *wal.Log, tls []synth.TimedLine, chunk int) {
	t.Helper()
	for len(tls) > 0 {
		n := min(chunk, len(tls))
		if got, err := ing.SubmitBatch(log, tls[:n]); got != n || err != nil {
			t.Fatalf("SubmitBatch accepted %d of %d lines, err %v", got, n, err)
		}
		tls = tls[n:]
	}
}

// SubmitBatch must process exactly the lines the serial path does, deliver
// identical pipeline counters, and record every line's offset in the key
// group groupOf names for its routing key.
func TestSubmitBatchMatchesSerial(t *testing.T) {
	sc := synth.GenMaritime(synth.MaritimeConfig{Seed: 31, Vessels: 12, Duration: 30 * time.Minute, Rendezvous: -1})
	serial := newPrimed(sc)
	for _, tl := range sc.WireTimed {
		serial.IngestLine(tl)
	}

	log, err := wal.Open(WALDir(t.TempDir()), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	p := newPrimed(sc)
	ing := p.NewIngestor(IngestorConfig{Workers: 4, QueueLen: 1 << 16})
	submitChunks(t, ing, log, sc.WireTimed, 97)
	if !ing.Quiesce(30 * time.Second) {
		t.Fatal("quiesce timeout")
	}
	ing.Close()
	if got, want := p.Stats.Snapshot(), serial.Stats.Snapshot(); got != want {
		t.Errorf("counters diverge:\nbatched: %+v\nserial:  %+v", got, want)
	}
	// A logged line leaves its routing key in its key group's applied map.
	seen := 0
	for i := range p.groups {
		for key := range p.groups[i].applied {
			seen++
			if want := groupOf(key); want != i {
				t.Errorf("key %q applied in group %d, groupOf says %d", key, i, want)
			}
		}
	}
	keys := make(map[string]bool)
	for _, tl := range sc.WireTimed {
		keys[p.RoutingKey(tl.Line)] = true
	}
	if seen != len(keys) {
		t.Errorf("workers applied %d distinct keys, stream has %d", seen, len(keys))
	}
}

// Worker batch drain is an invisible optimisation: for randomised drain
// sizes, every observable — pipeline counters, the canonical store dump,
// forecast state, synopsis state, density — must be bit-identical to
// line-at-a-time draining (BatchDrain: 1). The scenario is goldenWorld-
// style (per-entity events only), so observables are independent of
// cross-entity arrival order and any divergence is a real batching bug.
func TestBatchDrainMatchesLineAtATime(t *testing.T) {
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 91, Vessels: 10, Duration: 45 * time.Minute,
		Rendezvous: -1, Loiterers: 2, GapProb: 0.0005, OutlierProb: 0.002,
	})
	type digest struct {
		stats     StatsSnapshot
		nt        string
		forecasts string
		synopses  string
		density   float64
	}
	run := func(drain, chunk int) digest {
		p := New(Config{
			Domain:   model.Maritime,
			Forecast: ForecastConfig{Enabled: true},
			Synopses: SynopsesConfig{Enabled: true},
		})
		p.InstallAreas(sc.Areas)
		p.InstallEntities(sc.Entities)
		ing := p.NewIngestor(IngestorConfig{Workers: 4, QueueLen: 1 << 16, BatchDrain: drain})
		submitChunks(t, ing, nil, sc.WireTimed, chunk)
		if !ing.Quiesce(30 * time.Second) {
			t.Fatalf("drain=%d: quiesce timeout", drain)
		}
		ing.Close()
		var nt bytes.Buffer
		if err := p.Store.ExportNT(&nt); err != nil {
			t.Fatal(err)
		}
		fcs, err := p.ForecastHub.ForecastAll(10 * time.Minute)
		if err != nil {
			t.Fatal(err)
		}
		fstr := make([]string, 0, len(fcs))
		for _, f := range fcs {
			fstr = append(fstr, fmt.Sprintf("%+v", f))
		}
		sort.Strings(fstr)
		sums := p.SynopsisHub.Summaries()
		sstr := make([]string, 0, len(sums))
		for _, s := range sums {
			sstr = append(sstr, fmt.Sprintf("%+v", s))
		}
		sort.Strings(sstr)
		return digest{
			stats:     p.Stats.Snapshot(),
			nt:        nt.String(),
			forecasts: strings.Join(fstr, "\n"),
			synopses:  strings.Join(sstr, "\n"),
			density:   p.Density.Total(),
		}
	}

	// Line-at-a-time baseline: one line per call, so drain=1 alone decides
	// the batch boundaries. The other runs also vary the submit size.
	want := run(1, 1)
	rng := rand.New(rand.NewSource(91))
	drains := []int{DefaultBatchDrain}
	for i := 0; i < 3; i++ {
		drains = append(drains, 2+rng.Intn(255))
	}
	for _, drain := range drains {
		got := run(drain, 1+rng.Intn(300))
		if got.stats != want.stats {
			t.Errorf("drain=%d: counters diverge:\nbatched: %+v\nserial:  %+v", drain, got.stats, want.stats)
		}
		if got.nt != want.nt {
			t.Errorf("drain=%d: store dump diverges (%d vs %d bytes)", drain, len(got.nt), len(want.nt))
		}
		if got.forecasts != want.forecasts {
			t.Errorf("drain=%d: forecast state diverges", drain)
		}
		if got.synopses != want.synopses {
			t.Errorf("drain=%d: synopsis state diverges", drain)
		}
		if got.density != want.density {
			t.Errorf("drain=%d: density total %v, want %v", drain, got.density, want.density)
		}
	}
}

// SubmitBatch racing Close must never send on a closed channel, and every
// line must end up either processed or rejected, with no slot left
// reserved.
func TestSubmitBatchCloseRace(t *testing.T) {
	sc := synth.GenMaritime(synth.MaritimeConfig{Seed: 33, Vessels: 8, Duration: 30 * time.Minute})
	p := New(Config{Domain: model.Maritime})
	ing := p.NewIngestor(IngestorConfig{Workers: 2, QueueLen: 1 << 16})
	const submitters = 4
	var accepted atomic.Int64
	var wg sync.WaitGroup
	started := make(chan struct{}, submitters)
	for g := 0; g < submitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g * 16; i+16 <= len(sc.WireTimed); i += submitters * 16 {
				n, err := ing.SubmitBatch(nil, sc.WireTimed[i:i+16])
				accepted.Add(int64(n))
				if err != nil && (n != 0 || !errors.Is(err, ErrIngestorClosed)) {
					t.Errorf("SubmitBatch = %d, %v; want 0, ErrIngestorClosed", n, err)
				}
				if i == g*16 {
					started <- struct{}{}
				}
			}
		}(g)
	}
	for g := 0; g < submitters; g++ {
		<-started
	}
	ing.Close() // drains what was handed off
	wg.Wait()

	if n, err := ing.SubmitBatch(nil, sc.WireTimed[:20]); n != 0 || !errors.Is(err, ErrIngestorClosed) {
		t.Errorf("SubmitBatch after Close = %d, %v", n, err)
	}
	submitted := int64(len(sc.WireTimed)/16*16 + 20)
	if got := p.Stats.Snapshot().Lines; got != accepted.Load() {
		t.Errorf("processed %d lines, SubmitBatch accepted %d", got, accepted.Load())
	}
	if got := accepted.Load() + ing.Rejected(); got != submitted {
		t.Errorf("accepted(%d)+rejected(%d) = %d, want %d", accepted.Load(), ing.Rejected(), got, submitted)
	}
	for i, w := range ing.workers {
		if r := w.reserved.Load(); r != 0 {
			t.Errorf("worker %d still holds %d reserved slots", i, r)
		}
	}
}

// SubmitBatch must fail fast at the first line whose worker is saturated:
// the accepted prefix is exact even when later lines belong to a worker
// with room, and a line outside it is never logged.
func TestSubmitBatchBackpressure(t *testing.T) {
	log, err := wal.Open(WALDir(t.TempDir()), wal.Options{NoSync: true})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	p := New(Config{Domain: model.Maritime})
	ing := p.NewIngestor(IngestorConfig{Workers: 2, QueueLen: 4})
	defer ing.Close()
	// Two garbage lines (they route by raw-line hash) owned by different
	// workers.
	var a, b synth.TimedLine
	for i := 0; a.Line == "" || b.Line == ""; i++ {
		tl := synth.TimedLine{TS: 1, Line: fmt.Sprintf("garbage %d", i)}
		if groupOf(tl.Line)%2 == 0 {
			a = tl
		} else {
			b = tl
		}
	}
	// Stall both workers so nothing drains.
	release := ing.Barrier()
	batch := []synth.TimedLine{b, b, a, a, a, a, a, b, b}
	n, err := ing.SubmitBatch(log, batch)
	if n != 6 || err != nil {
		t.Errorf("SubmitBatch = %d, %v; want the 6-line prefix before worker 0 saturates", n, err)
	}
	if got := ing.Rejected(); got != 3 {
		t.Errorf("Rejected = %d, want 3", got)
	}
	if got := log.Appended(); got != 6 {
		t.Errorf("WAL holds %d records, want only the 6 accepted", got)
	}
	if n, err := ing.SubmitBatch(log, batch[2:]); n != 0 || err != nil {
		t.Errorf("SubmitBatch into a saturated worker = %d, %v; want 0, nil", n, err)
	}
	release()
	if !ing.Quiesce(30 * time.Second) {
		t.Fatal("quiesce timeout")
	}
	if got := p.Stats.Snapshot().Lines; got != 6 {
		t.Errorf("processed %d lines, want 6", got)
	}
}

// garbageLines returns n distinct unparsable lines; they route by raw-line
// hash, so a handful reaches every worker, and cost almost nothing to ingest.
func garbageLines(n int) []synth.TimedLine {
	out := make([]synth.TimedLine, n)
	for i := range out {
		out[i] = synth.TimedLine{TS: 1, Line: fmt.Sprintf("garbage %d", i)}
	}
	return out
}

// Quiesce must wake on the batch that empties the ingestor — never sleep
// through it into its timeout, never return with the caller's own lines
// still in flight — however submitters and workers interleave.
func TestQuiesceWakesWhenDrained(t *testing.T) {
	for _, submitters := range []int{1, 4} {
		t.Run(fmt.Sprint(submitters), func(t *testing.T) {
			p := New(Config{Domain: model.Maritime})
			ing := p.NewIngestor(IngestorConfig{Workers: 2, QueueLen: 1 << 10})
			defer ing.Close()
			lines := garbageLines(5)
			var accepted atomic.Int64
			var wg sync.WaitGroup
			for g := 0; g < submitters; g++ {
				wg.Add(1)
				go func(g int) {
					defer wg.Done()
					for round := 0; round < 10_000; round++ {
						batch := lines[:1+(round+g)%len(lines)]
						n, err := ing.SubmitBatch(nil, batch)
						if n != len(batch) || err != nil {
							t.Errorf("SubmitBatch = %d, %v", n, err)
							return
						}
						// Every line counted so far was handed off before
						// this Quiesce starts, so all of them are done when
						// it sees the ingestor empty.
						mine := accepted.Add(int64(n))
						if !ing.Quiesce(2 * time.Second) {
							t.Errorf("round %d: Quiesce timed out with %d lines pending", round, ing.Pending())
							return
						}
						if submitters == 1 && ing.Pending() != 0 {
							t.Errorf("round %d: Quiesce returned with %d lines pending", round, ing.Pending())
							return
						}
						if got := p.Stats.Snapshot().Lines; got < mine {
							t.Errorf("round %d: Quiesce returned after %d lines, %d were submitted before it", round, got, mine)
							return
						}
					}
				}(g)
			}
			wg.Wait()
		})
	}
}

// A Quiesce whose lines cannot drain gives up at its timeout, not a poll
// step later; one with no timeout outlasts the stall and returns once Close
// has drained the queues.
func TestQuiesceTimeoutAndForever(t *testing.T) {
	p := New(Config{Domain: model.Maritime})
	ing := p.NewIngestor(IngestorConfig{Workers: 2, QueueLen: 64})
	release := ing.Barrier() // pause the workers
	lines := garbageLines(8)
	if n, err := ing.SubmitBatch(nil, lines); n != len(lines) || err != nil {
		t.Fatalf("SubmitBatch = %d, %v", n, err)
	}
	// The best of three absorbs one late wake-up of this goroutine on a busy
	// box; an early return is wrong every time.
	best := time.Hour
	for i := 0; i < 3; i++ {
		start := time.Now()
		if ing.Quiesce(50 * time.Millisecond) {
			t.Fatal("Quiesce reported a drain while the workers were paused")
		}
		took := time.Since(start)
		if took < 50*time.Millisecond {
			t.Fatalf("Quiesce(50ms) gave up after %v", took)
		}
		best = min(best, took)
	}
	if best >= 80*time.Millisecond {
		t.Errorf("Quiesce(50ms) gave up after %v, want under 80ms", best)
	}

	forever := make(chan bool, 1)
	go func() { forever <- ing.Quiesce(0) }()
	release()
	ing.Close()
	select {
	case ok := <-forever:
		if !ok || ing.Pending() != 0 {
			t.Errorf("Quiesce(0) = %v with %d lines pending after Close", ok, ing.Pending())
		}
	case <-time.After(30 * time.Second):
		t.Fatal("Quiesce(0) still blocked after Close drained the queues")
	}
}
