package wal_test

import (
	"os"
	"sync"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

// recoveryWorld holds one logged session shared by the recovery
// benchmarks: a full WAL plus a snapshot taken at 90% of the stream, so
// "snapshot+tail" recovers the last 10% while "full-replay" re-ingests
// everything.
var recoveryWorld struct {
	once    sync.Once
	sc      *synth.Scenario
	dataDir string
	lines   int
	err     error
}

func recoverySession(b *testing.B) (*synth.Scenario, string) {
	recoveryWorld.once.Do(func() {
		sc := synth.GenMaritime(synth.MaritimeConfig{
			Seed: 7, Vessels: 30, Duration: 2 * time.Hour, Rendezvous: -1,
		})
		// Not b.TempDir(): the session must outlive the first benchmark
		// run (-count>1 reuses it).
		dir, err := os.MkdirTemp("", "datacron-recovery-bench-")
		if err != nil {
			recoveryWorld.err = err
			return
		}
		log, err := wal.Open(core.WALDir(dir), wal.Options{NoSync: true})
		if err != nil {
			recoveryWorld.err = err
			return
		}
		p := core.New(core.Config{Domain: model.Maritime})
		p.InstallAreas(sc.Areas)
		p.InstallEntities(sc.Entities)
		snapAt := len(sc.WireTimed) * 9 / 10
		ing := p.NewIngestor(core.IngestorConfig{Workers: 1})
		defer ing.Close()
		if err := ing.Feed(log, sc.WireTimed[:snapAt+1]); err != nil {
			recoveryWorld.err = err
			return
		}
		if _, err := p.WriteSnapshot(dir, ing, log); err != nil {
			recoveryWorld.err = err
			return
		}
		if err := ing.Feed(log, sc.WireTimed[snapAt+1:]); err != nil {
			recoveryWorld.err = err
			return
		}
		if err := log.Close(); err != nil {
			recoveryWorld.err = err
			return
		}
		recoveryWorld.sc, recoveryWorld.dataDir, recoveryWorld.lines = sc, dir, len(sc.WireTimed)
	})
	if recoveryWorld.err != nil {
		b.Fatal(recoveryWorld.err)
	}
	return recoveryWorld.sc, recoveryWorld.dataDir
}

// BenchmarkRecovery compares the two recovery strategies on the same
// logged session: loading the 90% snapshot and replaying the 10% tail
// (Recover) versus re-ingesting the whole log through a fresh pipeline
// (Replay). The ratio is the snapshot subsystem's reason to exist.
func BenchmarkRecovery(b *testing.B) {
	sc, dataDir := recoverySession(b)
	prime := func(p *core.Pipeline) {
		p.InstallAreas(sc.Areas)
		p.InstallEntities(sc.Entities)
	}

	b.Run("snapshot+tail", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p := core.New(core.Config{Domain: model.Maritime})
			prime(p)
			rs, err := p.Recover(dataDir)
			if err != nil {
				b.Fatal(err)
			}
			if rs.SnapshotLSN == 0 {
				b.Fatal("snapshot not used")
			}
			b.ReportMetric(float64(rs.Replayed), "lines-replayed")
		}
	})
	b.Run("full-replay", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			p, rs, err := core.Replay(dataDir, core.Config{Domain: model.Maritime}, prime)
			if err != nil {
				b.Fatal(err)
			}
			if int(rs.Replayed) != recoveryWorld.lines {
				b.Fatalf("replayed %d of %d lines", rs.Replayed, recoveryWorld.lines)
			}
			_ = p
			b.ReportMetric(float64(rs.Replayed), "lines-replayed")
		}
	})
}
