package cluster

import (
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/server"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wire"
)

// TestCoordinatorReframeAllocs pins the coordinator's decode + route +
// re-frame stage at zero steady-state allocations per batch: once the
// pooled scratch's buffers have reached their high-water size, re-framing a
// per-owner batch must not touch the heap. The one allocation budgeted per
// frame is the wire decoder's private records-section copy (ResetText),
// amortised over every record in the frame.
func TestCoordinatorReframeAllocs(t *testing.T) {
	sc := synth.GenMaritime(synth.MaritimeConfig{Seed: 7, Vessels: 24, Duration: 20 * time.Minute})
	if len(sc.WireTimed) < 512 {
		t.Fatalf("scenario too small: %d lines", len(sc.WireTimed))
	}
	p := core.New(core.Config{Domain: model.Maritime})
	p.InstallAreas(sc.Areas)
	p.InstallEntities(sc.Entities)
	srv := server.New(server.Config{Pipeline: p, QueueLen: 1 << 12})
	defer srv.Close()
	n, err := New(Config{
		Self:     "n1:1",
		Members:  []string{"n1:1", "n2:1", "n3:1"},
		Server:   srv,
		Pipeline: p,
	})
	if err != nil {
		t.Fatal(err)
	}

	// One 512-line binary batch, the shape the forwarding benchmark sends.
	var enc wire.Encoder
	for _, tl := range sc.WireTimed[:512] {
		enc.Add(tl.TS, tl.Line)
	}
	body := enc.AppendFrame(nil)

	scratch := &ingestScratch{body: body}
	reframe := func() {
		if _, err := n.stageShares(scratch, wire.ContentType); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if scratch.n < 2 {
			t.Fatalf("expected multiple owners, got %d", scratch.n)
		}
	}
	// Warm the scratch to its high-water sizes.
	reframe()

	allocs := testing.AllocsPerRun(100, reframe)
	// Budget: exactly the per-frame ResetText records copy. Everything else
	// — per-owner encoders, frame buffers, share bookkeeping — must come
	// from the warmed scratch.
	if allocs > 1 {
		t.Fatalf("re-frame stage allocates %.1f times per batch, want <= 1 (the per-frame records copy)", allocs)
	}
}
