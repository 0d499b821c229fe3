// Command watersrvd serves the water-immersion simulation pipeline
// over HTTP: planner (max-frequency) and co-simulation requests become
// cacheable, concurrent, cancellable network jobs backed by
// internal/service. The HTTP surface itself lives in internal/httpapi;
// this binary wires flags, the persistent cache, and signals around
// it. For fleet deployments, cmd/waterrouter consistent-hashes
// requests across many watersrvd backends.
//
// Usage:
//
//	watersrvd [-addr :8080] [-workers N] [-queue 256] [-cache 512]
//	          [-cache-dir DIR] [-cache-max-bytes N]
//	          [-sync-timeout 120s] [-drain-timeout 30s] [-pprof]
//	          [-job-deadline 5m] [-max-queue-wait 1m] [-fault spec]
//	          [-chf-scale 1.0]
//
// Endpoints:
//
//	POST   /v1/plan            synchronous plan request (api.PlanRequest body)
//	POST   /v1/cosim           synchronous cosim request (api.CosimRequest body)
//	POST   /v1/sweep           synchronous batched sweep (api.SweepRequest body)
//	POST   /v1/audit           synchronous chip-roadmap audit (api.AuditRequest body)
//	POST   /v1/jobs            async submit ({"type": "cosimstream", ...} and the other envelope kinds)
//	GET    /v1/jobs/{id}       job status (sweep jobs carry per-cell progress)
//	GET    /v1/jobs/{id}/result job result (202 while pending)
//	GET    /v1/jobs/{id}/stream SSE interval feed of a cosimstream job (?from=N resumes)
//	DELETE /v1/jobs/{id}       cancel
//	GET    /v1/metrics         engine metrics as JSON
//	GET    /healthz            200 "ok", or 503 "draining" once shutdown began
//	GET    /debug/vars         expvar (includes the metrics snapshot)
//	GET    /debug/pprof/...    net/http/pprof profiling (only with -pprof)
//
// Synchronous endpoints wait up to -sync-timeout; if the simulation
// is still running they answer 202 with the job snapshot so the
// client can poll /v1/jobs/{id} — the job keeps running. SIGINT and
// SIGTERM first flip /healthz to 503 {"status":"draining"} (so
// routers and load balancers eject this backend), then stop the
// listener and drain in-flight jobs for up to -drain-timeout before
// exit.
//
// Persistence: -cache-dir spills every finished result to a
// disk-backed store (internal/rcache, one checksummed file per
// canonical request hash) and warm-boots the in-memory LRU from it,
// so a restarted daemon serves previously computed simulations
// instead of recomputing them. -cache-max-bytes bounds the store;
// least-recently-used entries are evicted beyond it. Corrupt or
// schema-stale entries are deleted and counted (disk_cache_corrupt
// in /v1/metrics), never served. The same store holds the mid-run
// checkpoints of streaming co-simulation jobs, so a drain parks a
// long transient at its current interval and the resubmitted request
// resumes it on the restarted daemon with zero recomputed intervals.
//
// Robustness: every job runs under the -job-deadline wall-clock
// budget (a stalled solve fails with deadline_exceeded instead of
// wedging a worker), a panicking solve fails only its own job
// (panics_recovered in /v1/metrics), and once the queue is at depth
// or the predicted wait exceeds -max-queue-wait the daemon sheds
// load: 429/503 with a Retry-After header sized from the engine's
// run-time EWMA. -fault arms the internal/faultinject failpoints for
// staging drills — never in production. See OPERATIONS.md for the
// runbook.
//
// Every response echoes an X-Request-Id header (adopted from the
// caller — e.g. waterrouter — or freshly minted), and every error
// response carries the JSON envelope
// {"error": {"code": "...", "message": "...", "request_id": "..."}}
// with a stable machine-readable code (see internal/httpapi); clients
// switch on the code, not the message text.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"expvar"

	"waterimm/internal/api"
	"waterimm/internal/faultinject"
	"waterimm/internal/httpapi"
	"waterimm/internal/rcache"
	"waterimm/internal/service"
)

var (
	flagAddr         = flag.String("addr", ":8080", "listen address")
	flagWorkers      = flag.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	flagQueue        = flag.Int("queue", 256, "job queue depth")
	flagCache        = flag.Int("cache", 512, "result cache entries")
	flagCacheDir     = flag.String("cache-dir", "", "directory of the persistent result cache; finished results survive restarts (empty = memory only)")
	flagCacheMax     = flag.Int64("cache-max-bytes", 256<<20, "disk cache byte budget before least-recently-used entries are evicted (0 = unbounded)")
	flagSyncTimeout  = flag.Duration("sync-timeout", 120*time.Second, "max wait of the synchronous endpoints")
	flagDrainTimeout = flag.Duration("drain-timeout", 30*time.Second, "shutdown drain budget")
	flagPprof        = flag.Bool("pprof", false, "serve net/http/pprof profiling endpoints under /debug/pprof/")
	flagJobDeadline  = flag.Duration("job-deadline", 5*time.Minute, "per-job wall-clock budget, queue wait included (0 = unlimited)")
	flagMaxQueueWait = flag.Duration("max-queue-wait", time.Minute, "queue-wait budget before load shedding kicks in (0 = never shed)")
	flagFault        = flag.String("fault", "", "dev-only fault injection spec, e.g. 'thermal.cg.iteration=stall:delay=2s' (see internal/faultinject)")
	flagCHFScale     = flag.Float64("chf-scale", 1, "multiplier on every critical-heat-flux limit: <1 audits against a safety margin, >1 models surface-enhanced boiling (1 = literature correlations)")
)

func main() {
	flag.Parse()
	if *flagFault != "" {
		// Staging drills only: armed failpoints make the daemon fail
		// on purpose. The banner keeps an armed binary from passing
		// for healthy in a production log.
		if err := faultinject.ArmSpec(*flagFault); err != nil {
			fmt.Fprintln(os.Stderr, "watersrvd:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "watersrvd: FAULT INJECTION ARMED (%s) — not for production\n", *flagFault)
	}
	var store *rcache.Store
	if *flagCacheDir != "" {
		var err error
		store, err = rcache.Open(*flagCacheDir, *flagCacheMax, api.CacheGeneration)
		if err != nil {
			fmt.Fprintln(os.Stderr, "watersrvd:", err)
			os.Exit(2)
		}
		st := store.Stats()
		fmt.Fprintf(os.Stderr, "watersrvd: disk cache %s: %d entries, %d bytes\n",
			*flagCacheDir, st.Entries, st.Bytes)
	}
	engine := service.New(service.Config{
		Workers:      *flagWorkers,
		QueueDepth:   *flagQueue,
		CacheEntries: *flagCache,
		JobDeadline:  *flagJobDeadline,
		MaxQueueWait: *flagMaxQueueWait,
		DiskCache:    store,
		CHFScale:     *flagCHFScale,
	})
	expvar.Publish("watersrvd", expvar.Func(func() any { return engine.Metrics() }))

	srv := &http.Server{
		Addr:              *flagAddr,
		Handler:           httpapi.NewHandler(engine, httpapi.Options{SyncTimeout: *flagSyncTimeout, Pprof: *flagPprof}),
		ReadHeaderTimeout: 5 * time.Second,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "watersrvd: listening on %s\n", *flagAddr)

	select {
	case err := <-errCh:
		fmt.Fprintln(os.Stderr, "watersrvd:", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Graceful shutdown: announce the drain first — /healthz flips to
	// 503 "draining" so routers and load balancers eject this backend
	// — then drain queued and running jobs WHILE the listener still
	// serves: health probes must be able to observe the draining state
	// and clients must be able to poll results for jobs finishing
	// mid-drain. Only once the engine is empty does the listener stop
	// and in-flight handlers wind down.
	fmt.Fprintln(os.Stderr, "watersrvd: draining")
	engine.BeginDrain()
	shutdownCtx, cancel := context.WithTimeout(context.Background(), *flagDrainTimeout)
	defer cancel()
	drainErr := engine.Drain(shutdownCtx)
	if err := srv.Shutdown(shutdownCtx); err != nil {
		fmt.Fprintln(os.Stderr, "watersrvd: http shutdown:", err)
	}
	if drainErr != nil {
		fmt.Fprintln(os.Stderr, "watersrvd: drain aborted in-flight jobs:", drainErr)
		os.Exit(1)
	}
	fmt.Fprintln(os.Stderr, "watersrvd: drained cleanly")
}
