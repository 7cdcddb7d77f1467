// Example durable: the durability subsystem end to end, in one process.
// A pipeline ingests a generated AIS wire stream through the write-ahead
// log, snapshots mid-stream, then "crashes" (the pipeline is simply
// dropped with lines still unprocessed). A second pipeline recovers from
// the same data directory — snapshot load + tail replay — and the program
// verifies the recovered state matches an uninterrupted run exactly.
// Finally the same log is replayed twice through fresh pipelines to show
// the deterministic replay harness the golden tests are built on.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

func main() {
	log.SetFlags(0)

	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 99, Vessels: 12, Duration: time.Hour, Rendezvous: -1, Loiterers: 2,
	})
	prime := func(p *core.Pipeline) {
		p.InstallAreas(sc.Areas)
		p.InstallEntities(sc.Entities)
	}
	dataDir, err := os.MkdirTemp("", "datacron-durable-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dataDir)
	fmt.Printf("data dir: %s (%d wire lines)\n\n", dataDir, len(sc.WireTimed))

	// Session 1: durable ingest with a snapshot at 70%.
	walLog, err := wal.Open(core.WALDir(dataDir), wal.Options{})
	if err != nil {
		log.Fatal(err)
	}
	p1 := core.New(core.Config{Domain: model.Maritime})
	prime(p1)
	snapAt := len(sc.WireTimed) * 7 / 10
	ing := p1.NewIngestor(core.IngestorConfig{Workers: 1})
	// Feed 512 lines at a time, each batch group-committed as /ingest does.
	feed := func(lines []synth.TimedLine) {
		for len(lines) > 0 {
			n := min(512, len(lines))
			if err := ing.Feed(walLog, lines[:n]); err != nil {
				log.Fatal(err)
			}
			if err := walLog.Commit(); err != nil {
				log.Fatal(err)
			}
			lines = lines[n:]
		}
	}
	feed(sc.WireTimed[:snapAt+1])
	info, err := p1.WriteSnapshot(dataDir, ing, walLog)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("snapshot at line %d: cutLSN=%d triples=%d took=%v\n",
		snapAt, info.CutLSN, info.Triples, info.Took.Round(time.Millisecond))
	feed(sc.WireTimed[snapAt+1:])
	ing.Close()
	if err := walLog.Close(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("session 1 (crashed after ack): %s\n\n", p1.Report())

	// Session 2: recover on the same data dir.
	p2 := core.New(core.Config{Domain: model.Maritime})
	prime(p2)
	rs, err := p2.Recover(dataDir)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered: snapshot lsn=%d (%d triples), tail replayed=%d lines, skipped=%d, in %v\n",
		rs.SnapshotLSN, rs.SnapshotTriples, rs.Replayed, rs.SkippedApplied, rs.Took.Round(time.Millisecond))

	var nt1, nt2 bytes.Buffer
	if err := p1.Store.ExportNT(&nt1); err != nil {
		log.Fatal(err)
	}
	if err := p2.Store.ExportNT(&nt2); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("recovered == uninterrupted: counters %v, store dump %v\n\n",
		p2.Stats.Snapshot() == p1.Stats.Snapshot(), bytes.Equal(nt1.Bytes(), nt2.Bytes()))

	// Deterministic replay harness: two fresh pipelines, same log.
	ra, rsa, err := core.Replay(dataDir, core.Config{Domain: model.Maritime}, prime)
	if err != nil {
		log.Fatal(err)
	}
	rb, _, err := core.Replay(dataDir, core.Config{Domain: model.Maritime}, prime)
	if err != nil {
		log.Fatal(err)
	}
	var ntA, ntB bytes.Buffer
	_ = ra.Store.ExportNT(&ntA)
	_ = rb.Store.ExportNT(&ntB)
	fmt.Printf("replay harness: %d records re-fed, two replays identical: %v\n",
		rsa.Replayed+rsa.SkippedApplied, bytes.Equal(ntA.Bytes(), ntB.Bytes()) && ra.Stats.Snapshot() == rb.Stats.Snapshot())
}
