// datacron-serve runs the datAcron online serving daemon: a long-running
// HTTP server that ingests raw AIS/SBS wire lines into the parallel
// spatiotemporal RDF store while answering queries and streaming recognised
// complex events — the paper's online architecture as a service.
//
//	datacron-serve -addr :8080 -domain maritime -shards 8 -workers 8
//	datacron-gen -domain maritime -out aegean
//	curl -X POST --data-binary @aegean.wire localhost:8080/ingest
//	curl -X POST -d 'SELECT ?v WHERE { ?v rdf:type dat:Vessel . }' localhost:8080/query
//	curl 'localhost:8080/forecast?entity=237000001&horizon=10m'
//	curl 'localhost:8080/forecast/batch?horizon=5m'
//	curl -N localhost:8080/events
//	curl localhost:8080/metrics
//
// Online forecasting (-forecast, on by default) keeps warm per-entity
// kinematic history and incrementally trains the shared route-network, KNN
// and Markov models from the live stream; GET /forecast extrapolates an
// entity's future location (method-tagged: dead-reckoning → kinematic →
// route/KNN by history length) and -forecast-interval streams periodic
// "forecast" SSE frames on /events. Forecast state is part of snapshots
// and survives kill -9.
//
// Online trajectory synopses (-synopses, on by default) compress the gated
// stream into per-entity critical points (stop, turn, speed change, gap
// start/end — at the domain's thresholds): GET /synopses/{id} serves one
// entity's synopsis, GET /synopses/batch the fleet summary with the
// raw-vs-critical compression statistics, and GET /events streams newly
// detected points as "synopsis" SSE frames. Synopsis state is part of
// snapshots and survives kill -9.
//
// Observability (see OPERATIONS.md "Observability"): logs are structured
// (log/slog, -log-level / -log-format json), every request carries an
// X-Request-ID, sampled per-line pipeline spans are served at
// GET /debug/trace (-trace-sample, 0 = off), slow queries at
// GET /debug/slowlog (-slow-query threshold), and -debug-addr starts a
// separate pprof listener. The daemon binds -addr immediately but
// GET /readyz answers 503 until recovery finishes; /healthz is pure
// liveness.
//
// By default the daemon primes the world (areas of interest and entity
// registry) from the same deterministic generator datacron-gen uses, so a
// generated wire file POSTed to /ingest produces the scripted complex
// events. Use -prime=false for a blank world that learns entities from the
// stream alone.
//
// With -cluster the daemon becomes one node of a multi-node cluster (see
// OPERATIONS.md "Cluster mode" and DESIGN.md §14): -peers lists the static
// membership, -advertise is this node's address as the peers reach it, and
// every node owns a consistent-hash slice of the entity-key space. Any node
// coordinates: POST /ingest routes each line to its owner over the binary
// wire framing, POST /query, GET /forecast/batch and GET /synopses/batch
// scatter-gather with results identical to a single node, and POST
// /cluster/join / /cluster/leave rebalance hash ranges by shipping sealed
// segments plus the head tail between nodes:
//
//	datacron-serve -addr :8080 -cluster -advertise 10.0.0.1:8080 \
//	  -peers 10.0.0.1:8080,10.0.0.2:8080,10.0.0.3:8080 -data-dir /var/lib/datacron
//
// With -data-dir the daemon is durable: accepted wire lines are written to
// a write-ahead log and group-committed before the HTTP ack, POST
// /snapshot persists the full pipeline state, and a restart with the same
// -data-dir recovers by loading the newest snapshot and replaying the log
// tail — kill -9 mid-ingest loses no acknowledged line:
//
//	datacron-serve -addr :8080 -data-dir /var/lib/datacron
//	curl -X POST localhost:8080/snapshot
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"github.com/datacron-project/datacron/internal/cluster"
	"github.com/datacron-project/datacron/internal/core"
	"github.com/datacron-project/datacron/internal/model"
	"github.com/datacron-project/datacron/internal/obs"
	"github.com/datacron-project/datacron/internal/server"
	"github.com/datacron-project/datacron/internal/store"
	"github.com/datacron-project/datacron/internal/synth"
	"github.com/datacron-project/datacron/internal/wal"
)

// processStart is when the process began running Go code (package
// initialisation): the "serving" log line reports the start-up from here to
// ready.
var processStart = time.Now()

// The flags are package-level so that a test can hold them against
// OPERATIONS.md's flag reference.
var (
	addr    = flag.String("addr", ":8080", "listen address")
	domain  = flag.String("domain", "maritime", "maritime or aviation")
	shards  = flag.Int("shards", 4, "store shard count")
	workers = flag.Int("workers", 0, "ingest worker goroutines (0 = GOMAXPROCS)")
	queue   = flag.Int("queue", 8192, "per-worker ingest queue bound (full = HTTP 429)")
	prime   = flag.Bool("prime", true, "pre-install the generator's areas and entities")
	seed    = flag.Int64("seed", 42, "world seed used when priming (match datacron-gen)")
	vessels = flag.Int("vessels", 50, "world vessel count when priming (maritime)")
	flights = flag.Int("flights", 40, "world flight count when priming (aviation)")
	dataDir = flag.String("data-dir", "", "durability directory (WAL + snapshots); empty = in-memory only")

	clusterOn = flag.Bool("cluster", false, "cluster mode: own a consistent-hash slice of the entity space, forward and scatter-gather the rest (see -peers, -advertise)")
	peers     = flag.String("peers", "", "comma-separated static member addresses (host:port), including this node")
	advertise = flag.String("advertise", "", "this node's address as peers reach it (default: -addr when it carries a host)")
	vnodes    = flag.Int("vnodes", 0, "consistent-hash virtual nodes per member (0 = default)")

	fsync = flag.Bool("fsync", false, "fsync the WAL on every commit: survives power loss, not just kill -9 (default flushes to the OS, which a process crash cannot lose)")
	segMB = flag.Int64("segment-mb", 64, "WAL segment roll size in MiB")

	logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
	logFormat = flag.String("log-format", "text", "log format: text or json")
	debugAddr = flag.String("debug-addr", "", "separate pprof/debug listen address (empty = off); never expose publicly")
	traceEv   = flag.Int("trace-sample", obs.DefaultSampleEvery, "trace every Nth ingest line through the pipeline stages (GET /debug/trace; 0 = tracing off)")
	slowQuery = flag.Duration("slow-query", obs.DefaultSlowQuery, "log queries at or over this duration with their plan facts (GET /debug/slowlog; negative = off)")

	sealTriples = flag.Int("seal-triples", 250_000, "seal a shard head into an immutable segment once it holds this many triples (0 = no size trigger)")
	sealAfter   = flag.Duration("seal-after", 0, "seal a shard head once its oldest anchor is this much older than the stream clock (0 = no age trigger)")
	retention   = flag.Duration("retention", 0, "drop sealed segments whose newest anchor is older than the stream clock minus this window (0 = keep forever)")
	maintainEv  = flag.Duration("maintain-interval", 15*time.Second, "background tier-maintenance cadence (0 = only POST /seal maintains)")

	fcast         = flag.Bool("forecast", true, "online forecasting: serve GET /forecast and /forecast/batch")
	fcastInterval = flag.Duration("forecast-interval", 0, "publish SSE \"forecast\" frames for all live entities at this interval (0 = off)")

	synOn = flag.Bool("synopses", true, "online trajectory synopses: serve GET /synopses/{id} and /synopses/batch")
)

func main() {
	flag.Parse()

	logger := obs.NewLogger(os.Stderr, *logLevel, *logFormat)
	fatal := func(msg string, err error) {
		logger.Error(msg, "err", err)
		os.Exit(1)
	}

	dom := model.Maritime
	if *domain == "aviation" {
		dom = model.Aviation
	} else if *domain != "maritime" {
		fatal("unknown domain", fmt.Errorf("%q (want maritime or aviation)", *domain))
	}
	p := core.New(core.Config{
		Domain:   dom,
		Shards:   *shards,
		Trace:    obs.TraceConfig{SampleEvery: *traceEv},
		Forecast: core.ForecastConfig{Enabled: *fcast},
		Synopses: core.SynopsesConfig{Enabled: *synOn},
	})

	// Bind the listener before the (possibly long) recovery replay so probes
	// get answers immediately: /healthz says the process is alive, /readyz
	// says 503 starting until the swap below. The SwitchHandler atomically
	// replaces this bootstrap surface with the full API once recovery is
	// done.
	ready := obs.NewReadiness("recovering: snapshot load + wal replay")
	sw := &obs.SwitchHandler{}
	boot := http.NewServeMux()
	boot.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write([]byte(`{"status":"ok","phase":"starting"}` + "\n"))
	})
	boot.Handle("GET /readyz", ready)
	sw.Set(boot)
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal("listen", err)
	}
	httpSrv := server.NewHTTPServer(*addr, sw)
	serveErr := make(chan error, 1)
	go func() { serveErr <- httpSrv.Serve(ln) }()

	if *debugAddr != "" {
		// pprof gets its own mux on its own listener so profiling is never
		// reachable through the public port.
		dbg := http.NewServeMux()
		dbg.HandleFunc("/debug/pprof/", pprof.Index)
		dbg.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dbg.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dbg.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dbg.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			logger.Info("pprof listening", "component", "debug", "addr", *debugAddr)
			if err := server.NewHTTPServer(*debugAddr, dbg).ListenAndServe(); err != nil {
				logger.Error("pprof listener failed", "component", "debug", "err", err)
			}
		}()
	}

	if *prime {
		// The generator's plan alone carries the full area set and entity
		// registry; no traffic is simulated.
		t0 := time.Now()
		var sc *synth.Scenario
		if dom == model.Maritime {
			sc = synth.MaritimeWorld(synth.MaritimeConfig{Seed: *seed, Vessels: *vessels, Duration: time.Minute})
		} else {
			sc = synth.AviationWorld(synth.AviationConfig{Seed: *seed, Flights: *flights, Duration: time.Minute})
		}
		p.InstallAreas(sc.Areas)
		p.InstallEntities(sc.Entities)
		logger.Info("primed world", "domain", dom.String(), "areas", len(sc.Areas), "entities", len(sc.Entities),
			"took", time.Since(t0).Round(time.Millisecond))
	}

	// Durable mode: recover (snapshot + WAL tail) before serving, then
	// open the log for appending.
	var (
		walLog   *wal.Log
		recovery *core.RecoveryStats
	)
	if *dataDir != "" {
		rlog := obs.Component(logger, "recovery")
		rs, err := p.Recover(*dataDir)
		if err != nil {
			fatal("recovery failed", err)
		}
		recovery = &rs
		rlog.Info("recovered",
			"snapshotLSN", rs.SnapshotLSN, "snapshotTriples", rs.SnapshotTriples,
			"snapshotAnchors", rs.SnapshotAnchors, "replayed", rs.Replayed,
			"skippedApplied", rs.SkippedApplied, "events", rs.Events,
			"took", rs.Took.Round(time.Millisecond))
		if rs.TailTruncatedBytes > 0 {
			rlog.Info("dropped torn bytes at the log tail (unacknowledged partial write)",
				"bytes", rs.TailTruncatedBytes)
		}
		if rs.CorruptStopped {
			rlog.Warn("mid-log corruption: stopped at the last valid record",
				"skippedBytes", rs.SkippedBytes)
		}
		var err2 error
		walLog, err2 = wal.Open(core.WALDir(*dataDir), wal.Options{
			SegmentBytes: *segMB << 20,
			NoSync:       !*fsync,
		})
		if err2 != nil {
			fatal("open wal", err2)
		}
		defer walLog.Close()
	}

	// In cluster mode the node's gauges ride on /metrics; the indirection
	// exists because the cluster node wraps the server it reports for.
	var cnode *cluster.Node
	srv := server.New(server.Config{
		Pipeline: p, Workers: *workers, QueueLen: *queue,
		WAL: walLog, DataDir: *dataDir, Recovery: recovery,
		ExtraMetrics: func(mw *obs.MetricsWriter) {
			if cnode != nil {
				cnode.WriteMetrics(mw)
			}
		},
		ForecastInterval: *fcastInterval,
		Tier: store.TierPolicy{
			SealTriples: *sealTriples,
			SealAfter:   *sealAfter,
			Retention:   *retention,
		},
		MaintainInterval: *maintainEv,
		Logger:           obs.Component(logger, "server"),
		Readiness:        ready,
		SlowQuery:        *slowQuery,
	})
	if recovery != nil && recovery.CorruptStopped {
		// Replay can never get past the damaged record, so lines acked from
		// here on would be unrecoverable on the next restart. Seal the
		// damaged log before serving: snapshot the recovered state with a
		// replay floor beyond the whole existing log, so future acks are
		// durable again. The skipped suffix is already lost to the disk
		// damage either way.
		info, err := srv.Snapshot()
		if err != nil {
			fatal("cannot seal corrupt log with a snapshot — refusing to serve durably", err)
		}
		obs.Component(logger, "recovery").Info("sealed corrupt log", "snapshotLSN", info.CutLSN, "replayFloor", info.ReplayFrom)
	}

	// Swap the bootstrap surface for the full API and open the gate: from
	// here /readyz says ready and load balancers may admit traffic.
	handler := srv.Handler()
	if *clusterOn {
		self := *advertise
		if self == "" {
			if host, _, err := net.SplitHostPort(*addr); err != nil || host == "" {
				fatal("cluster mode", fmt.Errorf("-advertise is required when -addr (%q) carries no host", *addr))
			}
			self = *addr
		}
		var members []string
		for _, m := range strings.Split(*peers, ",") {
			if m = strings.TrimSpace(m); m != "" {
				members = append(members, m)
			}
		}
		var cerr error
		cnode, cerr = cluster.New(cluster.Config{
			Self:     self,
			Members:  members,
			VNodes:   *vnodes,
			Server:   srv,
			Pipeline: p,
			Logger:   obs.Component(logger, "cluster"),
			Client:   &http.Client{Timeout: 30 * time.Second},
		})
		if cerr != nil {
			fatal("cluster mode", cerr)
		}
		handler = cnode
		ring, version := cnode.Ring()
		logger.Info("cluster mode",
			"self", self, "members", len(ring.Members()),
			"vnodes", ring.VNodes(), "ringVersion", version,
			"fingerprint", fmt.Sprintf("%016x", ring.Fingerprint()))
	}
	sw.Set(handler)
	ready.MarkReady()
	startup := time.Since(processStart)

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	go func() {
		<-ctx.Done()
		// Fail readiness first so balancers drain before in-flight requests
		// are cut off.
		ready.SetNotReady("shutting down")
		logger.Info("shutting down")
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shutdownCtx)
	}()

	durable := "in-memory"
	if *dataDir != "" {
		durable = "data-dir=" + *dataDir
	}
	logger.Info("serving",
		"domain", dom.String(), "addr", *addr,
		"shards", *shards, "workers", srv.Ingestor().Workers(), "queue", *queue,
		"durability", durable, "traceSample", *traceEv, "slowQuery", *slowQuery,
		"startup", startup.Round(time.Millisecond))
	logger.Debug("endpoints: POST /ingest, POST /query, GET /range, GET /events, GET /forecast, GET /forecast/batch, GET /synopses/{id}, GET /synopses/batch, POST /snapshot, POST /seal, GET /healthz, GET /readyz, GET /metrics, GET /debug/trace, GET /debug/slowlog")
	if err := <-serveErr; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal("serve", err)
	}
	srv.Close()
	fmt.Fprintln(os.Stderr, p.Report())
}
