package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"github.com/datacron-project/datacron/internal/ais"
	"github.com/datacron-project/datacron/internal/geo"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wire"
)

// worldKind names one of the two generated fleets. Both come from
// internal/synth with the benchmark seed; they differ in what the daemon has
// to do per line, not in how lines look.
type worldKind struct {
	name        string
	vessels     int
	reportEvery time.Duration
	seedOffset  int64
	// noiseSigmaM is the GPS noise of the observed stream.
	noiseSigmaM float64
	// linesPerMin is a floor on the stream's density, used only to size the
	// simulated duration for a requested line count.
	linesPerMin int
	// pacedBatch and pacedRate are the open-loop write: lines per ?wait=1
	// post and lines per second. The daemon answers ?wait=1 from a poll whose
	// sleeps double (0.1, 0.2, ... 12.8, 25.6 ms, then every 25.6 ms), so a
	// reply comes at 0.7, 1.5, 3.1, 6.3, 12.7, 25.5 or 51.1 ms after the
	// batch was queued, whichever first follows the work. A batch whose work
	// takes about as long as one of those steps flips between two of them
	// with the machine's mood (256 dense lines: 32 or 54 ms). The batch sizes
	// put the work in the middle of a step: about 9 ms of 6.3 to 12.7 for the
	// dense world, 2.2 ms of 1.5 to 3.1 for the sparse one.
	pacedBatch int
	pacedRate  float64
}

var (
	// dense: a thousand vessels at the default 10 s reporting interval.
	// Every report has hundreds of neighbours to be paired against, so the
	// serialised CER stage and the store dominate.
	dense = worldKind{name: "dense", vessels: 1000, reportEvery: 10 * time.Second, noiseSigmaM: 15, linesPerMin: 5500, pacedBatch: 64, pacedRate: 1000}
	// sparse: fifty vessels reporting every second. Compression sheds almost
	// every report, so CER and the store idle and the front end (scan,
	// route, queue, WAL) is what is left. At one report a second the
	// generator's default 15 m GPS noise reads as jumps faster than the noise
	// gate's 40 m/s limit and the gate rightly drops 5 % of the stream; 5 m
	// keeps the gated share of a non-repeating stream under 1 %.
	sparse = worldKind{name: "sparse", vessels: 50, reportEvery: time.Second, noiseSigmaM: 5, seedOffset: 1, linesPerMin: 2500, pacedBatch: 256, pacedRate: 4000}
)

// world is one generated, never-repeating line stream in timestamp order.
type world struct {
	kind  worldKind
	seed  int64 // generator seed; the daemon is primed with the same one
	lines []synth.TimedLine
	// areas and entities are what the daemon primes itself with from the
	// same seed; the in-process traced run installs them directly.
	areas    map[string]*geo.Polygon
	entities []model.Entity
}

// genWorld generates kind from seed and cuts the stream to exactly n lines.
func genWorld(kind worldKind, seed int64, n int) (world, error) {
	mins := n/kind.linesPerMin + 2
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed:        seed + kind.seedOffset,
		Vessels:     kind.vessels,
		Duration:    time.Duration(mins) * time.Minute,
		ReportEvery: kind.reportEvery,
		NoiseSigmaM: kind.noiseSigmaM,
	})
	if len(sc.WireTimed) < n {
		return world{}, fmt.Errorf("world %s: generated %d lines, need %d", kind.name, len(sc.WireTimed), n)
	}
	mixTimesteps(sc.WireTimed, seed)
	return world{kind: kind, seed: seed + kind.seedOffset, lines: sc.WireTimed[:n], areas: sc.Areas, entities: sc.Entities}, nil
}

// mixTimesteps shuffles, with the seed, the messages that share a timestamp.
// The generator emits each timestep in vessel order, so a 256-line batch
// would hold one kind of vessel (the fishing fleet in its zone, then the
// lanes) and batch cost would come in bands; a receiver hears a timestep in
// no particular order. Timestamps still never go back, an entity's reports
// keep their order, and the sentences of one multi-sentence message stay
// together.
func mixTimesteps(lines []synth.TimedLine, seed int64) {
	r := rand.New(rand.NewSource(seed))
	for i := 0; i < len(lines); {
		j := i
		var starts []int // first sentence of each message in lines[i:j]
		for ; j < len(lines) && lines[j].TS == lines[i].TS; j++ {
			if s, err := ais.ParseSentence(lines[j].Line); err != nil || s.Num == 1 {
				starts = append(starts, j)
			}
		}
		step := append([]synth.TimedLine(nil), lines[i:j]...)
		at := i
		for _, k := range r.Perm(len(starts)) {
			end := j
			if k+1 < len(starts) {
				end = starts[k+1]
			}
			at += copy(lines[at:], step[starts[k]-i:end-i])
		}
		i = j
	}
}

// splitByEntity deals lines onto conns connections by routing key, keeping
// stream order within each. The daemon's noise gate drops a report older
// than the entity's last one, so one entity must never be spread over
// connections that can overtake each other.
func splitByEntity(lines []synth.TimedLine, conns int) [][]synth.TimedLine {
	if conns == 1 {
		return [][]synth.TimedLine{lines}
	}
	out := make([][]synth.TimedLine, conns)
	for _, tl := range lines {
		key, ok := ais.RoutingKey(tl.Line)
		if !ok {
			key = tl.Line
		}
		h := fnv.New32a()
		h.Write([]byte(key))
		i := int(h.Sum32() % uint32(conns))
		out[i] = append(out[i], tl)
	}
	return out
}

// Ingest body formats.
const (
	formatText   = "text"
	formatBinary = "binary"
)

func contentType(format string) string {
	if format == formatBinary {
		return wire.ContentType
	}
	return "text/plain"
}

// render encodes lines as one POST /ingest body.
func render(format string, lines []synth.TimedLine) []byte {
	if format == formatBinary {
		var e wire.Encoder
		for _, tl := range lines {
			e.Add(tl.TS, tl.Line)
		}
		return e.AppendFrame(nil)
	}
	var b []byte
	for _, tl := range lines {
		b = strconv.AppendInt(b, tl.TS, 10)
		b = append(b, ' ')
		b = append(b, tl.Line...)
		b = append(b, '\n')
	}
	return b
}

// batch is one pre-rendered request: body carries lines[first:first+n] of
// its feed.
type batch struct {
	body     []byte
	first, n int
}

// feed is one connection's share of a world, pre-rendered into request
// bodies before any clock starts.
type feed struct {
	format  string
	lines   []synth.TimedLine
	per     int // lines per batch; the last may be short
	batches []batch
}

func newFeed(format string, lines []synth.TimedLine, per int) *feed {
	f := &feed{format: format, lines: lines, per: per}
	for i := 0; i < len(lines); i += per {
		n := min(per, len(lines)-i)
		f.batches = append(f.batches, batch{body: render(format, lines[i:i+n]), first: i, n: n})
	}
	return f
}

// rest renders the unaccepted tail of b after the daemon took its first
// accepted lines: the body a 429 is resumed with.
func (f *feed) rest(b batch, accepted int) []byte {
	return render(f.format, f.lines[b.first+accepted:b.first+b.n])
}

// seenEntities lists, in order of first report, the entity ids with a
// position report in lines.
func seenEntities(lines []synth.TimedLine) []string {
	seen := map[string]bool{}
	var ids []string
	for _, tl := range lines {
		key, ok := ais.RoutingKey(tl.Line)
		if !ok || strings.HasPrefix(key, "seq:") || seen[key] {
			continue
		}
		seen[key] = true
		ids = append(ids, fmt.Sprintf("%09s", key))
	}
	return ids
}

// selThresholds returns the FILTER literals of the selective query for a
// daemon fed lines: the 99th percentile of the reported speeds in m/s, so the
// same one report in a hundred passes whatever the seed (in a 50-vessel world
// a fixed threshold passes anything from one fast ship to ten). Each variant
// is a thousandth above the last, below the resolution of AIS speeds (0.1 kn):
// distinct query texts, one result set.
func selThresholds(lines []synth.TimedLine) []string {
	var speeds []float64
	for _, tl := range lines {
		if d, err := ais.DecodeLine(tl.Line); err == nil {
			if m, ok := d.(ais.PositionReport); ok && !math.IsNaN(m.SOG) {
				speeds = append(speeds, geo.Knots(m.SOG))
			}
		}
	}
	p99 := quantile(sortedCopy(speeds), 0.99)
	out := make([]string, selVariants)
	for i := range out {
		out[i] = strconv.FormatFloat(p99+float64(i)/1000, 'f', 4, 64)
	}
	return out
}

// pickEntities draws n ids from ids with the seed, without replacement
// while they last.
func pickEntities(ids []string, seed int64, n int) []string {
	r := rand.New(rand.NewSource(seed))
	perm := r.Perm(len(ids))
	out := make([]string, 0, n)
	for i := 0; i < n && len(ids) > 0; i++ {
		out = append(out, ids[perm[i%len(ids)]])
	}
	return out
}
