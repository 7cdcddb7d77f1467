package main

// The interlinking component of the datAcron architecture: "link discovery
// techniques for automatically computing associations between data from
// heterogeneous sources" (§2). Two kinds of links are discovered:
//
//   - identity links (owl:sameAs) between surveillance entities and external
//     registry records, using lexical similarity over names plus numeric
//     similarity over static attributes;
//   - spatiotemporal enrichment links between position reports and
//     contextual observations (weather cells, areas of interest).
//
// Naive matching is O(n·m); blocking reduces the candidate set (token
// blocking for names, grid blocking for positions) at a small recall cost.

import (
	"sort"
	"strings"
	"sync"

	"github.com/datacron-project/datacron/internal/geo"
)

// nameRecord is one record of a source keyed by a (possibly noisy) name.
type nameRecord struct {
	ID      string
	Name    string
	LengthM float64 // 0 when unknown
}

// link is one discovered association with its similarity score.
type link struct {
	A, B  string // record IDs from the two sources
	Score float64
}

// trigrams returns the padded character trigram set of a normalised string.
func trigrams(s string) map[string]struct{} {
	s = normalize(s)
	out := make(map[string]struct{})
	if s == "" {
		return out
	}
	padded := "  " + s + "  "
	for i := 0; i+3 <= len(padded); i++ {
		out[padded[i:i+3]] = struct{}{}
	}
	return out
}

// normalize upper-cases, strips punctuation and collapses whitespace; the
// canonical form used by all lexical similarity in this package.
func normalize(s string) string {
	var b strings.Builder
	lastSpace := true
	for _, r := range strings.ToUpper(s) {
		switch {
		case r >= 'A' && r <= 'Z' || r >= '0' && r <= '9':
			b.WriteRune(r)
			lastSpace = false
		default:
			if !lastSpace {
				b.WriteByte(' ')
				lastSpace = true
			}
		}
	}
	return strings.TrimSpace(b.String())
}

// jaccard returns |a∩b| / |a∪b| of two sets; 0 for two empty sets.
func jaccard(a, b map[string]struct{}) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 0
	}
	inter := 0
	for k := range a {
		if _, ok := b[k]; ok {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// nameSimilarity scores two names by trigram Jaccard similarity.
func nameSimilarity(a, b string) float64 {
	return jaccard(trigrams(a), trigrams(b))
}

// prepped caches a record's trigram set so the O(n·m) matchers tokenise
// each name once instead of once per candidate pair.
type prepped struct {
	rec nameRecord
	tri map[string]struct{}
}

func prepRecords(rs []nameRecord) []prepped {
	out := make([]prepped, len(rs))
	for i, r := range rs {
		out[i] = prepped{rec: r, tri: trigrams(r.Name)}
	}
	return out
}

// recordSimilarity blends name similarity with length agreement when both
// records carry a length: 0.9·name + 0.1·max(0, 1−|Δlength|/20m). The
// blend lets static attributes break ties between equal names.
func recordSimilarity(a, b prepped) float64 {
	s := jaccard(a.tri, b.tri)
	if a.rec.LengthM > 0 && b.rec.LengthM > 0 {
		diff := a.rec.LengthM - b.rec.LengthM
		if diff < 0 {
			diff = -diff
		}
		agree := 1 - diff/20
		if agree < 0 {
			agree = 0
		}
		s = 0.9*s + 0.1*agree
	}
	return s
}

// matchConfig parameterises identity-link discovery.
type matchConfig struct {
	// Threshold is the minimum similarity for a link. Default 0.5.
	Threshold float64
	// Parallelism bounds concurrent workers. Default 4.
	Parallelism int
}

func (c matchConfig) withDefaults() matchConfig {
	if c.Threshold == 0 {
		c.Threshold = 0.5
	}
	if c.Parallelism <= 0 {
		c.Parallelism = 4
	}
	return c
}

// matchNaive compares every pair (the O(n·m) baseline) and keeps, for each
// record of a, its best-scoring b above the threshold.
func matchNaive(a, b []nameRecord, cfg matchConfig) []link {
	cfg = cfg.withDefaults()
	pa, pb := prepRecords(a), prepRecords(b)
	links := make([]link, 0, len(a))
	var mu sync.Mutex
	parallelFor(len(a), cfg.Parallelism, func(i int) {
		best := link{Score: -1}
		for j := range pb {
			s := recordSimilarity(pa[i], pb[j])
			if s > best.Score {
				best = link{A: pa[i].rec.ID, B: pb[j].rec.ID, Score: s}
			}
		}
		if best.Score >= cfg.Threshold {
			mu.Lock()
			links = append(links, best)
			mu.Unlock()
		}
	})
	sortLinks(links)
	return links
}

// matchBlocked uses token blocking: records sharing at least one name token
// are candidates. Complexity falls from n·m to the sum of block sizes.
func matchBlocked(a, b []nameRecord, cfg matchConfig) []link {
	cfg = cfg.withDefaults()
	pa, pb := prepRecords(a), prepRecords(b)
	// Build token index over b.
	blocks := make(map[string][]int)
	for j, rb := range b {
		for _, tok := range strings.Fields(normalize(rb.Name)) {
			blocks[tok] = append(blocks[tok], j)
		}
	}
	links := make([]link, 0, len(a))
	var mu sync.Mutex
	parallelFor(len(a), cfg.Parallelism, func(i int) {
		seen := map[int]struct{}{}
		best := link{Score: -1}
		for _, tok := range strings.Fields(normalize(pa[i].rec.Name)) {
			for _, j := range blocks[tok] {
				if _, dup := seen[j]; dup {
					continue
				}
				seen[j] = struct{}{}
				s := recordSimilarity(pa[i], pb[j])
				if s > best.Score {
					best = link{A: pa[i].rec.ID, B: pb[j].rec.ID, Score: s}
				}
			}
		}
		if best.Score >= cfg.Threshold {
			mu.Lock()
			links = append(links, best)
			mu.Unlock()
		}
	})
	sortLinks(links)
	return links
}

// sortLinks orders links deterministically by A then B.
func sortLinks(links []link) {
	sort.Slice(links, func(i, j int) bool {
		if links[i].A != links[j].A {
			return links[i].A < links[j].A
		}
		return links[i].B < links[j].B
	})
}

// parallelFor runs fn(i) for i in [0,n) over `workers` goroutines.
func parallelFor(n, workers int, fn func(i int)) {
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var wg sync.WaitGroup
	work := make(chan int, n)
	for i := 0; i < n; i++ {
		work <- i
	}
	close(work)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for i := range work {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// groundTruth maps record id (source A) to its true counterpart id (source B).
type groundTruth map[string]string

// Score compares discovered links against ground truth and returns
// precision, recall and F1.
func score(links []link, truth groundTruth) (precision, recall, f1 float64) {
	if len(links) == 0 || len(truth) == 0 {
		return 0, 0, 0
	}
	tp := 0
	for _, l := range links {
		if truth[l.A] == l.B {
			tp++
		}
	}
	precision = float64(tp) / float64(len(links))
	recall = float64(tp) / float64(len(truth))
	if precision+recall == 0 {
		return precision, recall, 0
	}
	f1 = 2 * precision * recall / (precision + recall)
	return precision, recall, f1
}

// spatialRecord is one record of a source keyed by position and time, for
// enrichment links (e.g. position ↔ weather cell).
type spatialRecord struct {
	ID string
	Pt geo.Point
	TS int64
}

// spatialLinkConfig parameterises spatiotemporal link discovery.
type spatialLinkConfig struct {
	// MaxDistM links records closer than this. Default 10 km.
	MaxDistM float64
	// MaxDeltaTMS links records within this time distance. Default 30 min.
	MaxDeltaTMS int64
	// GridCellDeg is the blocking grid cell size. Default 0.5°.
	GridCellDeg float64
}

func (c spatialLinkConfig) withDefaults() spatialLinkConfig {
	if c.MaxDistM == 0 {
		c.MaxDistM = 10_000
	}
	if c.MaxDeltaTMS == 0 {
		c.MaxDeltaTMS = 30 * 60000
	}
	if c.GridCellDeg == 0 {
		c.GridCellDeg = 0.5
	}
	return c
}

// LinkSpatial links each record of a to its nearest record of b within the
// config limits, using grid blocking over b. Records with no candidate get
// no link.
func linkSpatial(a, b []spatialRecord, box geo.BBox, cfg spatialLinkConfig) []link {
	cfg = cfg.withDefaults()
	grid := geo.NewGridCellSize(box, cfg.GridCellDeg)
	cells := make(map[int][]int)
	for j, rb := range b {
		cells[grid.CellID(rb.Pt)] = append(cells[grid.CellID(rb.Pt)], j)
	}
	var links []link
	for _, ra := range a {
		cell := grid.CellID(ra.Pt)
		bestJ, bestD := -1, cfg.MaxDistM
		for _, c := range append(grid.Neighbors(cell), cell) {
			for _, j := range cells[c] {
				rb := b[j]
				dt := ra.TS - rb.TS
				if dt < 0 {
					dt = -dt
				}
				if dt > cfg.MaxDeltaTMS {
					continue
				}
				d := geo.Haversine(ra.Pt, rb.Pt)
				if d <= bestD {
					bestD = d
					bestJ = j
				}
			}
		}
		if bestJ >= 0 {
			links = append(links, link{A: ra.ID, B: b[bestJ].ID, Score: 1 - bestD/cfg.MaxDistM})
		}
	}
	sortLinks(links)
	return links
}
