package main

import (
	"math/rand"
	"sort"
	"sync"
	"time"
)

// The reference box's memory system changes speed under the benchmark. A
// register-only loop is steady to 3 % there, but a cache-missing lookup takes
// 55 ns in one state and 140 ns or more in another, the state lasts from
// seconds to tens of minutes, and the daemon (maps, pointers, allocation,
// garbage collection) follows: every read class of every workload slows by
// one common factor, up to 1.6x. The yardstick is a fixed piece of that kind
// of work (map lookups and pointer hops over 60 MB that never change), timed
// every yardEvery in this process while a run lasts. What the daemon was
// timed at is divided by how much slower than on a quiet box such work ran
// while it was being timed (fair).
//
// Over 72 laps of one workload in both states, a lap's read latencies
// followed a + b x reading with a/b = 0.9 quiet readings, in the fast state,
// in the slow one and between them: the daemon also computes, which the
// memory system does not slow, so it follows the yardstick a good half of the
// way. Dividing by that line brought the quartile spread of twelve-seed
// sweeps taken while the box flipped between its states every minute or so
// from 30-50 % to 4-18 %. No change to the daemon moves the yardstick, so a
// gain or a loss in the daemon shows undiminished.

const (
	// yardNodes sizes the table: half a million 64-byte nodes behind a map,
	// far more than the core's own caches hold.
	yardNodes   = 1 << 19
	yardLookups = 4000
	yardEvery   = 50 * time.Millisecond
	// yardQuiet is what yardLookups lookups take on the reference box in its
	// fast state; it only fixes the scale of the metrics.
	yardQuiet = 1000 * time.Microsecond
	// yardSteady is the part of the daemon's time the memory system does not
	// slow, in units of the part it does on a quiet box (a/b above).
	yardSteady = 0.9
	// yardWorst caps a reading. The slow state reads 1.9 to 2.7 times
	// yardQuiet; one run in sixty read 3.4 to 4.5 from its first lap to its
	// last while its daemons ran at the fast state's speed, so a reading
	// beyond the slow state's says the yardstick's own memory is badly placed,
	// not how the daemon fares.
	yardWorst = 3 * yardQuiet
	// yardLookBack widens the stretch a timing is judged by, so that a read of
	// a fraction of a millisecond still has ten readings behind it.
	yardLookBack = 500 * time.Millisecond
)

type yardNode struct {
	next *yardNode
	key  uint32
	_    [52]byte
}

type yardstick struct {
	table map[uint32]*yardNode
	rng   *rand.Rand
	stop  chan struct{}
	done  chan struct{}

	mu   sync.Mutex
	at   []time.Time
	took []time.Duration
}

func startYardstick() *yardstick {
	y := &yardstick{table: make(map[uint32]*yardNode, yardNodes), rng: rand.New(rand.NewSource(1)), stop: make(chan struct{}), done: make(chan struct{})}
	nodes := make([]yardNode, yardNodes)
	for i, j := range y.rng.Perm(yardNodes) {
		nodes[i].key, nodes[i].next = uint32(i), &nodes[j]
		y.table[uint32(i)] = &nodes[i]
	}
	go func() {
		defer close(y.done)
		t := time.NewTicker(yardEvery)
		defer t.Stop()
		for {
			select {
			case <-y.stop:
				return
			case now := <-t.C:
				d := y.sample()
				y.mu.Lock()
				y.at, y.took = append(y.at, now), append(y.took, d)
				y.mu.Unlock()
			}
		}
	}()
	return y
}

// sample does the work once and returns how long it took.
func (y *yardstick) sample() time.Duration {
	t0 := time.Now()
	var sum uint32
	for i := 0; i < yardLookups; i++ {
		sum += y.table[uint32(y.rng.Intn(yardNodes))].next.next.key
	}
	d := time.Since(t0)
	if sum == 1 { // keeps the loop's result alive
		d++
	}
	return d
}

// reading is the median of the samples taken from yardLookBack before from
// until to, or of the latest ten when that stretch holds fewer (a timing
// noted before the ticker's next sample), capped at yardWorst. Without a
// sample it is yardQuiet.
func (y *yardstick) reading(from, to time.Time) time.Duration {
	if y == nil {
		return yardQuiet
	}
	y.mu.Lock()
	defer y.mu.Unlock()
	from = from.Add(-yardLookBack)
	first := sort.Search(len(y.at), func(i int) bool { return !y.at[i].Before(from) })
	end := sort.Search(len(y.at), func(i int) bool { return y.at[i].After(to) })
	if few := int(yardLookBack / yardEvery); end-first < few {
		first = max(0, end-few)
	}
	if first >= end {
		return yardQuiet
	}
	took := make([]float64, 0, end-first)
	for _, d := range y.took[first:end] {
		took = append(took, float64(d))
	}
	return min(time.Duration(median(took)), yardWorst)
}

// slowness is how many times longer the daemon's work takes when the
// yardstick reads r than when it reads yardQuiet.
func slowness(r time.Duration) float64 {
	return (float64(r)/float64(yardQuiet) + yardSteady) / (1 + yardSteady)
}

// fair is what the stretch from from to to would have lasted on a quiet box.
func (y *yardstick) fair(from, to time.Time) time.Duration {
	return time.Duration(float64(to.Sub(from)) / slowness(y.reading(from, to)))
}

func (y *yardstick) close() {
	close(y.stop)
	<-y.done
}
