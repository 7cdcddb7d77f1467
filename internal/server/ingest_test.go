package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
	"github.com/datacron-project/datacron/internal/wire"
)

// ingestReply is one POST /ingest outcome, reduced to what must not depend
// on the body format or on durability: error texts name format-specific
// positions, so only their presence is compared.
type ingestReply struct {
	Status             int
	Accepted, Rejected int
	Pending            int64
	Failed             bool
	RetryAfter         string
}

// TestIngestConformance runs one request script through every cell of
// {text, binary} × {WAL, no WAL} and requires identical replies, pipeline
// counters and store dumps: there is one ingest path, so a caller cannot
// observe which cell it talked to. Records with timestamp 0 are "bare":
// rendered without the unix-ms prefix in text, as timestamp 0 in frames.
// Bare records here are unparseable lines, so the receive-time stamp they
// get never reaches the store.
func TestIngestConformance(t *testing.T) {
	sc := synth.GenMaritime(synth.MaritimeConfig{
		Seed: 9, Vessels: 6, Duration: 20 * time.Minute,
		Rendezvous: -1, Loiterers: 1,
	})
	blank := synth.TimedLine{}
	lines := sc.WireTimed
	if len(lines) < 300 {
		t.Fatalf("scenario too small: %d lines", len(lines))
	}
	// mixed: blank records first, last and mid-body; bare lines among
	// timestamped ones.
	mixed := []synth.TimedLine{blank, blank}
	mixed = append(mixed, lines[:40]...)
	mixed = append(mixed, blank, synth.TimedLine{Line: "bare garbage"}, synth.TimedLine{Line: "MSG,bare with spaces, and a comma"})
	mixed = append(mixed, lines[40:80]...)
	mixed = append(mixed, blank)
	// overlong: a line over wire.MaxLineBytes after 10 good records.
	overlong := append([]synth.TimedLine{}, lines[80:90]...)
	overlong = append(overlong, synth.TimedLine{TS: 5, Line: strings.Repeat("x", wire.MaxLineBytes+1)})
	overlong = append(overlong, lines[90:100]...)
	// flood: more non-blank records than the one worker's queue holds,
	// blank records sprinkled so body offsets differ from line counts.
	const queueLen = 32
	var flood []synth.TimedLine
	for i, tl := range lines[100:200] {
		if i%7 == 3 {
			flood = append(flood, blank)
		}
		flood = append(flood, tl)
	}

	type cell struct {
		name    string
		binary  bool
		durable bool
	}
	type outcome struct {
		replies []ingestReply
		stats   core.StatsSnapshot
		nt      []byte
	}
	run := func(c cell) outcome {
		p := core.New(core.Config{Domain: model.Maritime})
		p.InstallAreas(sc.Areas)
		p.InstallEntities(sc.Entities)
		cfg := Config{Pipeline: p, Workers: 1, QueueLen: queueLen}
		if c.durable {
			dir := t.TempDir()
			l, err := wal.Open(core.WALDir(dir), wal.Options{NoSync: true})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			cfg.WAL, cfg.DataDir = l, dir
		}
		srv := New(cfg)
		defer srv.Close()

		var out outcome
		post := func(recs []synth.TimedLine, crlf, wait bool) ingestReply {
			var body []byte
			contentType := "text/plain"
			if c.binary {
				body, contentType = frameBody(recs), wire.ContentType
			} else {
				body = textBody(recs, crlf)
			}
			target := "/ingest"
			if wait {
				target += "?wait=1"
			}
			req := httptest.NewRequest(http.MethodPost, target, bytes.NewReader(body))
			req.Header.Set("Content-Type", contentType)
			rec := httptest.NewRecorder()
			srv.Handler().ServeHTTP(rec, req)
			var ir IngestResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
				t.Fatalf("%s: decode ingest response %q: %v", c.name, rec.Body, err)
			}
			reply := ingestReply{rec.Code, ir.Accepted, ir.Rejected, ir.Pending, ir.Error != "", rec.Header().Get("Retry-After")}
			out.replies = append(out.replies, reply)
			return reply
		}

		// Queue-sized chunks with ?wait=1 never shed.
		for i := 0; i < len(mixed); i += queueLen {
			post(mixed[i:min(i+queueLen, len(mixed))], i == 0, true)
		}
		if r := post(overlong, false, true); r.Status != http.StatusBadRequest || r.Accepted != 10 {
			t.Errorf("%s: over-long line: %+v, want 400 with the 10 records before it accepted", c.name, r)
		}
		// Stall the worker so the flood sheds at a known record, then —
		// once the queue has drained, as after a Retry-After — resume from
		// `accepted` until the body is through.
		release := srv.Ingestor().Barrier()
		r := post(flood, true, false)
		release()
		srv.Ingestor().Quiesce(30 * time.Second)
		if r.Status != http.StatusTooManyRequests || r.Accepted+r.Rejected != len(flood) || r.Pending != queueLen {
			t.Errorf("%s: flood: %+v, want 429 covering %d records with %d queued", c.name, r, len(flood), queueLen)
		}
		for rest := flood[r.Accepted:]; len(rest) > 0; {
			r = post(rest, false, true)
			if r.Accepted == 0 {
				t.Fatalf("%s: resume made no progress: %+v", c.name, r)
			}
			rest = rest[r.Accepted:]
		}
		out.stats = p.Stats.Snapshot()
		out.nt = exportNT(t, p)
		return out
	}

	want := run(cell{name: "text"})
	if want.stats.Kept == 0 {
		t.Fatal("script stored nothing; test is vacuous")
	}
	sent := int64(len(mixed) + len(flood) + 10)
	for _, tl := range append(mixed, flood...) {
		if tl.Line == "" {
			sent--
		}
	}
	if want.stats.Lines != sent {
		t.Errorf("text: pipeline processed %d lines, script carries %d non-blank accepted records", want.stats.Lines, sent)
	}
	for _, c := range []cell{
		{name: "text+wal", durable: true},
		{name: "binary", binary: true},
		{name: "binary+wal", binary: true, durable: true},
	} {
		got := run(c)
		if len(got.replies) != len(want.replies) {
			t.Fatalf("%s: %d replies, text got %d", c.name, len(got.replies), len(want.replies))
		}
		for i := range want.replies {
			if got.replies[i] != want.replies[i] {
				t.Errorf("%s: reply %d = %+v, text got %+v", c.name, i, got.replies[i], want.replies[i])
			}
		}
		if got.stats != want.stats {
			t.Errorf("%s: counters = %+v, text got %+v", c.name, got.stats, want.stats)
		}
		if !bytes.Equal(got.nt, want.nt) {
			t.Errorf("%s: store dump differs from text's (%d vs %d bytes)", c.name, len(got.nt), len(want.nt))
		}
	}
}

// textBody renders records as a text ingest body: "<unix-ms> <line>", or the
// bare line when the timestamp is 0, CRLF-terminated on every other line
// when crlf is set.
func textBody(recs []synth.TimedLine, crlf bool) []byte {
	var b bytes.Buffer
	for i, tl := range recs {
		if tl.TS != 0 {
			b.WriteString(strconv.FormatInt(tl.TS, 10))
			b.WriteByte(' ')
		}
		b.WriteString(tl.Line)
		if crlf && i%2 == 0 {
			b.WriteByte('\r')
		}
		b.WriteByte('\n')
	}
	return b.Bytes()
}

// A 400 must not report records it has not made durable: a good frame
// followed by a corrupt one answers `accepted: N`, and a client resuming
// from N must find exactly those N lines after a kill -9.
func TestServerIngestBadFrameCommitsAcceptedPrefix(t *testing.T) {
	sc := goldenWorld(t)
	dataDir := t.TempDir()
	_, _, srv1, ts1 := durableWorldServer(t, sc, dataDir, Config{Workers: 2, QueueLen: 1 << 12})

	const n = 1000
	good := frameBody(sc.WireTimed[:n])
	bad := frameBody(sc.WireTimed[n : 2*n])
	bad[len(bad)-1] ^= 0xFF // breaks the CRC
	ir, status := postFrames(t, ts1.Client(), ts1.URL, append(good, bad...), false)
	if status != http.StatusBadRequest || ir.Accepted != n {
		t.Fatalf("status %d, %+v; want 400 with accepted=%d", status, ir, n)
	}
	if got := srv1.accepted.Load(); got != n {
		t.Errorf("ingest counter counted %d lines, want %d", got, n)
	}
	// Kill -9: abandon the server and its WAL handle without closing them;
	// whatever the handler did not commit is lost with the process.
	ts1.Close()
	t.Logf("killed with %d acked records still in queues", srv1.Ingestor().Pending())

	p2 := core.New(core.Config{Domain: model.Maritime})
	p2.InstallAreas(sc.Areas)
	p2.InstallEntities(sc.Entities)
	if _, err := p2.Recover(dataDir); err != nil {
		t.Fatal(err)
	}
	if got := p2.Stats.Snapshot().Lines; got != n {
		t.Errorf("recovered %d lines, want exactly the %d acknowledged", got, n)
	}
}

// endless is an infinite stream of newlines — blank records, so a body
// cut off at a limit instead of refused would show up as accepted > 0.
type endless struct{}

func (endless) Read(p []byte) (int, error) {
	for i := range p {
		p[i] = '\n'
	}
	return len(p), nil
}

// A body over wire.MaxBodyBytes is refused whole with 413, whatever its
// format; nothing of it is ingested.
func TestServerIngestBodyLimit(t *testing.T) {
	sc, srv, _ := testWorld(t, Config{Workers: 1})
	small := wireBody(sc.WireTimed[:10])
	for _, tc := range []struct {
		name, contentType string
		body              io.Reader
		status, accepted  int
	}{
		{"small text", "text/plain", strings.NewReader(small), http.StatusAccepted, 10},
		{"oversized text", "text/plain", io.LimitReader(endless{}, wire.MaxBodyBytes+1), http.StatusRequestEntityTooLarge, 0},
		{"oversized binary", wire.ContentType, io.MultiReader(bytes.NewReader(frameBody(sc.WireTimed[10:20])), io.LimitReader(endless{}, wire.MaxBodyBytes)), http.StatusRequestEntityTooLarge, 0},
	} {
		req := httptest.NewRequest(http.MethodPost, "/ingest?wait=1", tc.body)
		req.Header.Set("Content-Type", tc.contentType)
		rec := httptest.NewRecorder()
		srv.Handler().ServeHTTP(rec, req)
		var ir IngestResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &ir); err != nil {
			t.Fatalf("%s: decode %q: %v", tc.name, rec.Body, err)
		}
		if rec.Code != tc.status || ir.Accepted != tc.accepted || (ir.Error == "") != (tc.status == http.StatusAccepted) {
			t.Errorf("%s: status %d, %+v; want %d with accepted=%d", tc.name, rec.Code, ir, tc.status, tc.accepted)
		}
	}
	if got := srv.p.Stats.Snapshot().Lines; got != 10 {
		t.Errorf("pipeline processed %d lines, want only the small body's 10", got)
	}
}
