// Command edbpd serves the simulator as a batch HTTP service.
//
// Usage:
//
//	edbpd [-addr :8080] [-queue 64] [-workers N] [-run-timeout 15m] [-pprof]
//	      [-log-level info] [-log-format text] [-span-off]
//
// Endpoints:
//
//	POST /run        run one simulation; the body is a sim.Knobs JSON
//	                 ({"app":"crc32","scheme":"edbp",...}), validated
//	                 before anything queues (a config sim rejects, or any
//	                 query parameter, is a 400). The run waits in a bounded
//	                 queue (-queue deep, drained by -workers) and the
//	                 response is the Result JSON or the error JSON below;
//	                 a client that leaves cancels its run. Runs are cached
//	                 by sim.ConfigHash, so every spelling of a config is
//	                 one run. Coordinators dispatch with it.
//	GET  /healthz    liveness; 503 once the server starts draining.
//	GET  /metrics    the internal/obs registry in Prometheus text format
//	                 0.0.4 (counters, gauges, run/queue histograms, trace
//	                 event and ring-drop aggregates); ?format=json returns
//	                 the JSON snapshot.
//	GET  /runs       stored runs from the experiment store (-store): filters
//	                 app/scheme/seed/commit/config_hash, latest=1, limit=N;
//	                 format=raw returns a run's stored encoding byte for
//	                 byte.
//	GET  /query      q=<statement> in the store's SELECT grammar (runs,
//	                 agg, delta, wcet, apps/schemes/commits); JSON table by
//	                 default, format=text for the plain rendering.
//	GET  /trace      this process's recorded service spans (dispatch,
//	                 queue-wait, run, cache-lookup, simulate, store-append)
//	                 as JSONL; ?trace=<32 hex> filters one trace and
//	                 ?format=chrome renders a Perfetto-loadable Chrome
//	                 trace_event document. Incoming requests carrying a
//	                 W3C traceparent header join the caller's trace; the
//	                 minted/continued traceparent is echoed back.
//	GET  /debug/pprof/*  net/http/pprof, only when -pprof is set.
//
// Errors: every error response is {"error": "...", "code": "..."} with a
// stable code: 400 bad_request, 404 not_found, 503 queue_full, draining,
// drain_aborted and no_workers (each with Retry-After), 504 timeout, or
// 500 run_failed or internal. A config the simulator rejects is a 400
// bad_request, also when a coordinator's worker rejected it. Clients
// branch on the status and the code, never on the message.
//
// Logging: every binary in this repo takes -log-level (debug|info|warn|
// error) and -log-format (text|json). Text keeps the historical
// "edbpd: msg" lines; json emits one slog object per line with
// component, node, and — on request logs — trace_id correlation fields.
// Every 5xx response logs exactly one structured error line.
//
// Cluster mode (see DESIGN.md §12). With -coordinator the process also
// serves:
//
//	POST /cluster/join       worker registration ({"id","url"})
//	POST /cluster/heartbeat  liveness renewal; 404 tells the worker to
//	                         re-join (the coordinator restarted)
//	POST /cluster/leave      graceful deregistration before a drain
//	GET  /cluster/nodes      every registered worker with liveness state
//	POST /grid               a sharded experiment grid: cells (explicit
//	                         runs, or base x apps x schemes x seeds) are
//	                         validated (one bad cell is a 400), deduplicated
//	                         by sim.ConfigHash and dispatched to the worker
//	                         owning each hash on a consistent ring; 202 +
//	                         grid id, or the full result set with ?wait=1
//	GET  /grid/{id}          grid summary + per-cell status; a grid in
//	                         flight is always kept, finished grids newest
//	                         first while their cells total at most 4096,
//	                         and an older grid's id is a 404 here and on
//	                         its trace
//	GET  /cluster/metrics    federation: the coordinator's own metrics
//	                         snapshot merged with a live scrape of every
//	                         worker's /metrics (series keyed by node="..."
//	                         labels); unreachable workers are served from
//	                         the last successful scrape, marked stale
//	GET  /trace/{grid-id}    the assembled cross-node trace of one grid:
//	                         coordinator grid/dispatch spans merged with
//	                         every worker's spans for that trace, sorted;
//	                         ?format=chrome for Perfetto
//
// A worker is an ordinary edbpd started with -join <coordinator-url>: it
// registers, heartbeats, and serves the same /run API the coordinator
// dispatches to. Each worker's result cache and -store shard hold only
// the config hashes the ring routes to it, so the fleet's stores form a
// partitioned, disjoint result set (audited via store.ConfigHashes).
// Each dispatched cell is one POST /run answered with one JSON body; a
// worker that dies mid-job fails or cuts its answers, is marked dead, and
// its cells are re-dispatched to the next ring owner
// (retry-with-exclusion); a coordinator with no live workers falls back
// to simulating locally. A run sent to a coordinator holds one of its
// queue slots while the worker runs it; grids do not use that queue.
// -node-id stamps every metrics series with a node="..." label so fleet
// dashboards aggregate.
//
// Identical configs are answered from a sha256 config-hash result cache
// that keeps the 4096 newest results; fresh runs share the process-wide
// workload and energy-trace memoization.
// With -store DIR every fresh completed run is also appended to the
// persistent experiment store (keyed by config hash and the build's
// commit), queryable via /runs, /query and cmd/edbpq across restarts.
// SIGTERM/SIGINT stops intake (healthz flips to 503), deregisters from
// the coordinator when in worker mode, finishes queued jobs, and exits 0
// — a clean drain for rolling restarts.
//
// Example:
//
//	curl -s -X POST localhost:8080/run \
//	    -d '{"app":"crc32","scheme":"edbp","scale":0.1}' | jq .wall_seconds
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"edbp/internal/buildinfo"
	"edbp/internal/cluster"
	"edbp/internal/obs/olog"
	"edbp/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", ":8080", "listen address")
		queue        = flag.Int("queue", 64, "queue depth for POST /run (503 when full)")
		workers      = flag.Int("workers", 2, "queue worker goroutines")
		runTimeout   = flag.Duration("run-timeout", 15*time.Minute, "per-run deadline")
		drainTimeout = flag.Duration("drain-timeout", time.Minute, "how long to wait for queued jobs on shutdown")
		pprofFlag    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
		storeDir     = flag.String("store", "", "experiment store directory; persists every fresh completed run and enables /runs and /query")
		version      = flag.Bool("version", false, "print the build stamp and exit")

		coordinator = flag.Bool("coordinator", false, "enable cluster-coordinator mode: /cluster/* registration and /grid sharded dispatch")
		joinURL     = flag.String("join", "", "coordinator base URL to register with (worker mode), e.g. http://host:8080")
		nodeID      = flag.String("node-id", "", "this process's fleet id; labels every metrics series node=\"...\" (default: derived from -addr in cluster modes)")
		advertise   = flag.String("advertise", "", "base URL the coordinator should reach this worker at (default http://127.0.0.1<addr> when -addr is :port)")
		heartbeat   = flag.Duration("heartbeat", 2*time.Second, "worker heartbeat cadence")
		liveness    = flag.Duration("liveness", 6*time.Second, "coordinator: how long a silent worker keeps owning shards")
		spanOff     = flag.Bool("span-off", false, "disable service span recording (/trace and /trace/{grid-id} return 404)")
	)
	lf := olog.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Stamp("edbpd"))
		return
	}

	logger := olog.MustNew(lf.Options("edbpd"))
	if *coordinator && *joinURL != "" {
		logger.Fatal("-coordinator and -join are mutually exclusive (a worker is not a coordinator)")
	}
	if (*coordinator || *joinURL != "") && *nodeID == "" {
		*nodeID = "edbpd" + strings.ReplaceAll(*addr, ":", "-")
	}
	if *nodeID != "" {
		// Rebuild with the node correlation field once the ID is settled.
		lo := lf.Options("edbpd")
		lo.Node = *nodeID
		logger = olog.MustNew(lo)
	}
	opts := serverOptions{
		queueDepth:  *queue,
		workers:     *workers,
		runTimeout:  *runTimeout,
		pprof:       *pprofFlag,
		coordinator: *coordinator,
		liveness:    *liveness,
		nodeID:      *nodeID,
		spansOff:    *spanOff,
		logger:      logger,
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{})
		if err != nil {
			logger.Fatal(err)
		}
		defer st.Close()
		opts.store = st
		opts.commit = buildinfo.Commit()
		logger.Printf("experiment store at %s (%d runs, commit %s)", *storeDir, st.Len(), opts.commit)
	}
	srv := newServer(opts)
	httpSrv := &http.Server{Addr: *addr, Handler: srv.Handler()}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	logger.Printf("listening on %s", *addr)
	if *coordinator {
		logger.Printf("coordinator mode: workers register at POST /cluster/join")
	}

	var wk *cluster.Worker
	var stopHeartbeats context.CancelFunc
	if *joinURL != "" {
		adv := *advertise
		if adv == "" {
			if strings.HasPrefix(*addr, ":") {
				adv = "http://127.0.0.1" + *addr
			} else {
				adv = "http://" + *addr
			}
		}
		wk = &cluster.Worker{
			Node:           cluster.Node{ID: *nodeID, URL: adv},
			CoordinatorURL: strings.TrimRight(*joinURL, "/"),
			Heartbeat:      *heartbeat,
			Logf:           logger.Printf,
		}
		var wctx context.Context
		wctx, stopHeartbeats = context.WithCancel(context.Background())
		go wk.Run(wctx)
	}

	select {
	case err := <-errCh:
		logger.Fatal(err)
	case <-ctx.Done():
	}

	logger.Printf("signal received; draining (up to %v)", *drainTimeout)
	dctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if wk != nil {
		// Deregister first so the coordinator reroutes this worker's shards
		// while we finish the jobs already queued here.
		if err := wk.Leave(dctx); err != nil {
			logger.Printf("%v (draining anyway)", err)
		}
		stopHeartbeats()
	}
	// Stop intake and wait for queued jobs first, then close HTTP with the
	// remaining budget so their answers and other in-flight requests
	// finish too.
	if err := srv.Drain(dctx); err != nil {
		logger.Fatal(err)
	}
	if err := httpSrv.Shutdown(dctx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		logger.Fatal(err)
	}
	logger.Printf("drained cleanly")
}
