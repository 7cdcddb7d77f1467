package experiments

import (
	"fmt"
	"os"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

// E11Durability measures the durability subsystem (DESIGN.md §8): the
// write-ahead-log cost on the ingest hot path (flush-commit and
// fsync-commit modes), snapshot write time, and the recovery claim that
// snapshot-load + tail replay beats full log replay.
func E11Durability(quick bool) *Table {
	vessels, dur := 60, 3*time.Hour
	if quick {
		vessels, dur = 20, time.Hour
	}
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 111, Vessels: vessels, Duration: dur, Rendezvous: -1,
	})
	t := &Table{
		ID:     "E11",
		Title:  "durable ingest: WAL append cost, snapshot write, recovery = snapshot + tail vs full replay",
		Header: []string{"operation", "lines", "time", "lines/sec"},
		Notes:  "snapshot taken at 90% of the stream; recovery timings include store reload",
	}

	dataDir, err := os.MkdirTemp("", "datacron-e11-")
	if err != nil {
		t.AddRow("error", "-", err.Error(), "-")
		return t
	}
	defer os.RemoveAll(dataDir)

	// WAL append throughput, both commit modes, outside the pipeline.
	for _, mode := range []struct {
		name   string
		noSync bool
	}{
		{"wal append (flush-commit)", true},
		{"wal append (fsync-commit)", false},
	} {
		mdir, err := os.MkdirTemp("", "datacron-e11-wal-")
		if err != nil {
			continue
		}
		l, err := wal.Open(mdir, wal.Options{NoSync: mode.noSync})
		if err != nil {
			os.RemoveAll(mdir)
			continue
		}
		start := time.Now()
		for i, tl := range sc.WireTimed {
			_, _ = l.Append(tl.TS, tl.Line)
			if i%512 == 511 {
				_ = l.Commit()
			}
		}
		_ = l.Close()
		el := time.Since(start)
		t.AddRow(mode.name, itoa(len(sc.WireTimed)), el.Round(time.Millisecond).String(), rate(len(sc.WireTimed), el))
		os.RemoveAll(mdir)
	}

	// Build the logged session: durable ingest through one worker with a
	// snapshot at 90% (the shape a long-running daemon converges to).
	prime := func(p *core.Pipeline) {
		p.InstallAreas(sc.Areas)
		p.InstallEntities(sc.Entities)
	}
	log, err := wal.Open(core.WALDir(dataDir), wal.Options{NoSync: true})
	if err != nil {
		t.AddRow("error", "-", err.Error(), "-")
		return t
	}
	p := core.New(core.Config{Domain: model.Maritime})
	prime(p)
	snapAt := len(sc.WireTimed) * 9 / 10
	ing := p.NewIngestor(core.IngestorConfig{Workers: 1})
	start := time.Now()
	_ = ing.Feed(log, sc.WireTimed[:snapAt+1])
	s0 := time.Now()
	info, err := p.WriteSnapshot(dataDir, ing, log)
	if err != nil {
		t.AddRow("snapshot write", "-", err.Error(), "-")
	} else {
		t.AddRow("snapshot write", fmt.Sprintf("%d triples", info.Triples),
			info.Took.Round(time.Millisecond).String(), "-")
	}
	start = start.Add(time.Since(s0)) // exclude snapshot from ingest time
	_ = ing.Feed(log, sc.WireTimed[snapAt+1:])
	ingestTime := time.Since(start)
	ing.Close()
	_ = log.Close()
	t.AddRow("logged ingest (pipeline+wal)", itoa(len(sc.WireTimed)),
		ingestTime.Round(time.Millisecond).String(), rate(len(sc.WireTimed), ingestTime))

	// Recovery: snapshot + tail.
	p2 := core.New(core.Config{Domain: model.Maritime})
	prime(p2)
	r0 := time.Now()
	rs, err := p2.Recover(dataDir)
	recTime := time.Since(r0)
	if err != nil {
		t.AddRow("recover (snapshot+tail)", "-", err.Error(), "-")
	} else {
		t.AddRow("recover (snapshot+tail)", fmt.Sprintf("%d replayed", rs.Replayed),
			recTime.Round(time.Millisecond).String(), rate(int(rs.Replayed), recTime))
	}

	// Recovery: full replay.
	f0 := time.Now()
	_, frs, err := core.Replay(dataDir, core.Config{Domain: model.Maritime}, prime)
	fullTime := time.Since(f0)
	if err != nil {
		t.AddRow("recover (full replay)", "-", err.Error(), "-")
	} else {
		t.AddRow("recover (full replay)", fmt.Sprintf("%d replayed", frs.Replayed),
			fullTime.Round(time.Millisecond).String(), rate(int(frs.Replayed), fullTime))
	}
	if recTime > 0 && fullTime > 0 {
		t.Notes += fmt.Sprintf("; snapshot+tail is %.1fx faster than full replay", float64(fullTime)/float64(recTime))
	}
	return t
}

// rate renders lines/sec.
func rate(n int, el time.Duration) string {
	if el <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.0f", float64(n)/el.Seconds())
}

// itoa avoids fmt for simple counts.
func itoa(n int) string { return fmt.Sprintf("%d", n) }
