package main

import "time"

// clock is the time source of the open-loop scheduler; tests substitute a
// fake so intended-time accounting is checked without sleeping.
type clock interface {
	Now() time.Time
	Sleep(time.Duration)
}

type wallClock struct{}

func (wallClock) Now() time.Time        { return time.Now() }
func (wallClock) Sleep(d time.Duration) { time.Sleep(d) }

// paced is the record of one open-loop run on one connection.
type paced struct {
	// latency[i] is completion minus the *intended* send time of op i, so a
	// stall is charged to every request it delayed (no coordinated omission).
	latency []time.Duration
	// late[i] is how long after it could first have gone out op i was sent:
	// actual send minus the later of its intended time and the previous
	// completion. That is the generator's own delay (sleep overshoot, GC,
	// CPU starvation), not the daemon's.
	late []time.Duration
	// done[i] is when op i completed.
	done []time.Time
	gap  time.Duration
}

// pace issues op(0..n-1) on a fixed schedule, op i due at start+i*gap, from
// the calling goroutine (one connection: a slow reply delays the next send,
// and that delay is charged to the delayed request's latency).
func pace(clk clock, start time.Time, gap time.Duration, n int, op func(i int)) paced {
	p := paced{latency: make([]time.Duration, 0, n), late: make([]time.Duration, 0, n), done: make([]time.Time, 0, n), gap: gap}
	free := start
	for i := 0; i < n; i++ {
		due := start.Add(time.Duration(i) * gap)
		if wait := due.Sub(clk.Now()); wait > 0 {
			clk.Sleep(wait)
		}
		sent := clk.Now()
		earliest := due
		if free.After(earliest) {
			earliest = free
		}
		p.late = append(p.late, max(sent.Sub(earliest), 0))
		op(i)
		free = clk.Now()
		p.latency = append(p.latency, free.Sub(due))
		p.done = append(p.done, free)
	}
	return p
}

// lateShare is the fraction of sends the generator delayed by more than one
// inter-arrival gap; above 5 % the run measured the generator, not the
// daemon, and is invalid.
func (p paced) lateShare() float64 {
	if len(p.late) == 0 {
		return 0
	}
	n := 0
	for _, d := range p.late {
		if d > p.gap {
			n++
		}
	}
	return float64(n) / float64(len(p.late))
}
