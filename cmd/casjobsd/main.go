// Command casjobsd serves the CasJobs batch-query system over HTTP:
// shared read-only catalog contexts, per-user MyDBs, quick and long job
// queues. It loads a skygen catalog as the "DR1" context at startup,
// including the Zone table (column-primary: stored once, as zone-ordered
// column segments) and the fGetNearbyObjEqZd function, so the paper's sample queries work out of
// the box — and since the sqldb planner lowers probe-table joins against
// fGetNearbyObjEqZd to the batched ZoneSweepJoin, a remote client's plain
// SQL gets the same sweep the Go pipeline uses. Submit
// "EXPLAIN SELECT ..." through the query endpoints to see the plan.
//
// The daemon has production manners: the HTTP server carries read, write,
// and idle timeouts; SIGINT/SIGTERM trigger a graceful drain (stop
// admitting, let in-flight jobs finish, force-cancel whatever is still
// running when the drain deadline expires).
//
// Observability: GET /metrics serves the full Prometheus-text registry
// (buffer pools, reclaimer, sweeps, SQL layer, job queues), GET /healthz
// flips to 503 once draining, every job completion is one structured
// slog line carrying the job/user/queue/trace ids, and -slow-query-ms
// warns with the query text. -debug-addr starts a second, private server
// with net/http/pprof and /debug/traces (the most recent job spans).
//
// Endpoints (JSON): see casjobs.Server.Handler.
//
// Usage: casjobsd -cat sky.cat [-addr :8420] [-workers 4]
//
//	[-quick-timeout 5s] [-long-timeout 60s] [-max-queue 256]
//	[-user-qps 0] [-drain-timeout 30s] [-log-format text|json]
//	[-slow-query-ms 0] [-debug-addr ""]
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"repro/internal/casjobs"
	"repro/internal/maxbcg"
	"repro/internal/sky"
	"repro/internal/sqldb"
	"repro/internal/telemetry"
	"repro/internal/zone"
)

func main() {
	var (
		catPath      = flag.String("cat", "sky.cat", "catalog file for the DR1 context")
		addr         = flag.String("addr", ":8420", "listen address")
		workers      = flag.Int("workers", 4, "long-queue workers")
		quickWorkers = flag.Int("quick-workers", 2, "quick-queue workers")
		quickTimeout = flag.Duration("quick-timeout", 5*time.Second, "execution deadline per quick job")
		longTimeout  = flag.Duration("long-timeout", 60*time.Second, "execution deadline per long job")
		maxQueue     = flag.Int("max-queue", 256, "max waiting jobs per queue (beyond: 503)")
		userQPS      = flag.Float64("user-qps", 0, "per-user sustained submissions/sec (0 = unlimited; beyond: 429)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on SIGINT/SIGTERM")
		logFormat    = flag.String("log-format", "text", "log output format: text or json")
		slowQueryMs  = flag.Int("slow-query-ms", 0, "warn with the query text when a job's execution exceeds this (0 = off)")
		debugAddr    = flag.String("debug-addr", "", "private listen address for pprof and /debug/traces (empty = off)")
	)
	flag.Parse()

	var handler slog.Handler
	switch *logFormat {
	case "json":
		handler = slog.NewJSONHandler(os.Stderr, nil)
	case "text":
		handler = slog.NewTextHandler(os.Stderr, nil)
	default:
		slog.Error("casjobsd: unknown -log-format", "format", *logFormat)
		os.Exit(1)
	}
	logger := slog.New(handler)
	slog.SetDefault(logger)

	cat, err := sky.LoadFile(*catPath)
	if err != nil {
		fatal(logger, "catalog load failed", err)
	}
	cas := sqldb.Open(0)
	finder, err := maxbcg.NewDBFinder(cas, maxbcg.DefaultParams(), cat.Kcorr, 0)
	if err != nil {
		fatal(logger, "DR1 setup failed", err)
	}
	n, err := finder.ImportGalaxies(cat, cat.Region)
	if err != nil {
		fatal(logger, "DR1 import failed", err)
	}
	if err := finder.SpZone(); err != nil {
		fatal(logger, "DR1 zone build failed", err)
	}
	logger.Info("DR1 context loaded", "galaxies", n, "catalog", *catPath)

	srv := casjobs.NewServerConfig(map[string]*sqldb.DB{"DR1": cas}, casjobs.Config{
		QuickWorkers: *quickWorkers,
		LongWorkers:  *workers,
		QuickTimeout: *quickTimeout,
		LongTimeout:  *longTimeout,
		MaxQueue:     *maxQueue,
		UserQPS:      *userQPS,
		Logger:       logger,
		SlowQuery:    time.Duration(*slowQueryMs) * time.Millisecond,
	})

	// One registry carries every layer: DR1's pool/reclaimer/SQL families,
	// the sweep counters, the job queues, and process-level gauges.
	reg := telemetry.NewRegistry()
	cas.EnableMetrics(reg, "dr1")
	zone.RegisterMetrics(reg)
	srv.EnableMetrics(reg)
	reg.NewGaugeFunc("go_goroutines", "live goroutines",
		func() float64 { return float64(runtime.NumGoroutine()) })
	reg.NewGaugeFunc("go_heap_alloc_bytes", "bytes of allocated heap objects", func() float64 {
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return float64(ms.HeapAlloc)
	})
	reg.NewGaugeFunc("go_gomaxprocs", "GOMAXPROCS",
		func() float64 { return float64(runtime.GOMAXPROCS(0)) })

	if *debugAddr != "" {
		// Span collection costs one ring buffer; only pay it when someone
		// can actually look at it.
		sink := srv.Tracer().Attach(256)
		debugMux := http.NewServeMux()
		debugMux.HandleFunc("/debug/pprof/", pprof.Index)
		debugMux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		debugMux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		debugMux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		debugMux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugMux.HandleFunc("/debug/traces", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json")
			_ = json.NewEncoder(w).Encode(sink.Recent())
		})
		debugMux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", telemetry.ContentType)
			_ = reg.WritePrometheus(w)
		})
		go func() {
			logger.Info("debug server listening", "addr", *debugAddr)
			if err := http.ListenAndServe(*debugAddr, debugMux); err != nil {
				logger.Error("debug server failed", "error", err)
			}
		}()
	}

	httpSrv := &http.Server{
		Addr:         *addr,
		Handler:      srv.Handler(),
		ReadTimeout:  30 * time.Second,
		WriteTimeout: 2 * *longTimeout, // quick submissions block until the job completes
		IdleTimeout:  2 * time.Minute,
	}

	errc := make(chan error, 1)
	go func() {
		logger.Info("listening", "addr", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)

	select {
	case err := <-errc:
		fatal(logger, "http server failed", err)
	case sig := <-sigc:
		logger.Info("draining", "signal", sig.String(), "deadline", *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	// Stop accepting connections first, then drain the job queues.
	if err := httpSrv.Shutdown(ctx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.Warn("http shutdown", "error", err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		logger.Warn("drain deadline hit, in-flight jobs cancelled", "error", err)
	} else {
		logger.Info("drained cleanly")
	}
}

func fatal(logger *slog.Logger, msg string, err error) {
	logger.Error(msg, "error", err)
	os.Exit(1)
}
