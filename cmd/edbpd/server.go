package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	httppprof "net/http/pprof"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"edbp/internal/cluster"
	"edbp/internal/obs"
	"edbp/internal/obs/olog"
	"edbp/internal/sim"
	"edbp/internal/span"
	"edbp/internal/store"
	tracepkg "edbp/internal/trace"
)

// runSpec is one run validated at intake: the knobs as the client sent
// them, which a coordinator forwards to the worker it dispatches to, the
// Config they build, and that Config's sim.ConfigHash. The hash is the
// run's one identity: it keys the result cache, the ring owner, grid
// dedupe and the experiment store, so every spelling of a config is one
// run.
type runSpec struct {
	knobs sim.Knobs
	cfg   sim.Config
	key   string
}

// newRunSpec builds and validates k's Config. An error is a
// *sim.ConfigError: the client's fault, answered before anything queues.
func newRunSpec(k sim.Knobs) (runSpec, error) {
	cfg, err := k.Config()
	if err != nil {
		return runSpec{}, err
	}
	return runSpec{knobs: k, cfg: cfg, key: sim.ConfigHash(cfg)}, nil
}

// runOutput is the Result JSON returned by POST /run. Its snake_case
// field names are stable API. cmd/edbpsim -json is a different schema: it
// writes Go field names (WallSeconds, not wall_seconds) and more of the
// Result.
type runOutput struct {
	App    string `json:"app"`
	Scheme string `json:"scheme"`
	Trace  string `json:"trace"`

	WallSeconds   float64 `json:"wall_seconds"`
	ActiveSeconds float64 `json:"active_seconds"`
	OffSeconds    float64 `json:"off_seconds"`
	Instructions  uint64  `json:"instructions"`

	PowerCycles int `json:"power_cycles"`
	Checkpoints int `json:"checkpoints"`
	Outages     int `json:"outages"`

	DCacheMissRate float64 `json:"dcache_miss_rate"`
	ICacheMissRate float64 `json:"icache_miss_rate"`

	EnergyTotalJ      float64 `json:"energy_total_j"`
	EnergyDCacheJ     float64 `json:"energy_dcache_j"`
	EnergyICacheJ     float64 `json:"energy_icache_j"`
	EnergyMemoryJ     float64 `json:"energy_memory_j"`
	EnergyCheckpointJ float64 `json:"energy_checkpoint_j"`

	Coverage float64 `json:"coverage"`
	Accuracy float64 `json:"accuracy"`

	Truncated bool `json:"truncated"`
	CacheHit  bool `json:"cache_hit"`
	// Node is the worker that simulated this run, set by a coordinator on
	// dispatched results. Empty for locally simulated runs.
	Node string `json:"node,omitempty"`
}

func output(res *sim.Result) *runOutput {
	e := res.Energy
	return &runOutput{
		App:            res.Config.App,
		Scheme:         res.Config.Scheme.String(),
		Trace:          res.Config.TraceKind.String(),
		WallSeconds:    res.WallTime,
		ActiveSeconds:  res.ActiveTime,
		OffSeconds:     res.OffTime,
		Instructions:   res.Instructions,
		PowerCycles:    res.PowerCycles,
		Checkpoints:    res.Checkpoints,
		Outages:        res.Outages,
		DCacheMissRate: res.DCacheStats.MissRate(),
		ICacheMissRate: res.ICacheStats.MissRate(),

		EnergyTotalJ:      e.Total(),
		EnergyDCacheJ:     e.DCache(),
		EnergyICacheJ:     e.ICache(),
		EnergyMemoryJ:     e.Memory,
		EnergyCheckpointJ: e.Checkpoint,

		Coverage:  res.Prediction.Coverage(),
		Accuracy:  res.Prediction.Accuracy(),
		Truncated: res.Truncated,
	}
}

// resultCache maps a run's sim.ConfigHash to its completed output. It
// holds at most maxGridEntries results, the largest grid a coordinator
// accepts, and evicts the oldest first: a hit is a re-post of a recent
// config, so insertion order is enough.
type resultCache struct {
	mu    sync.Mutex
	byKey map[string]*runOutput
	keys  []string // in insertion order until full, then a ring
	next  int      // once full, the index in keys of the oldest key
}

func (c *resultCache) get(key string) (*runOutput, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out, ok := c.byKey[key]
	return out, ok
}

// put stores out under key. A new key past the bound evicts the oldest.
func (c *resultCache) put(key string, out *runOutput) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.byKey == nil {
		c.byKey = make(map[string]*runOutput)
	}
	if _, ok := c.byKey[key]; !ok {
		if len(c.keys) < maxGridEntries {
			c.keys = append(c.keys, key)
		} else {
			delete(c.byKey, c.keys[c.next])
			c.keys[c.next] = key
			c.next = (c.next + 1) % maxGridEntries
		}
	}
	c.byKey[key] = out
}

// job is one POST /run through the bounded queue.
type job struct {
	id   string
	spec runSpec
	// ctx is the request's context: it carries the request's span, and it
	// bounds the run, which has no reader once the request ends.
	ctx        context.Context
	enqueuedAt time.Time

	mu     sync.Mutex
	status string // queued | running | done | failed
	// out and err are the run's outcome, set by finish before done closes.
	out  *runOutput
	err  error
	done chan struct{}
}

// newJob makes a queued job for spec whose run is bounded by ctx.
func (s *server) newJob(ctx context.Context, spec runSpec) *job {
	return &job{
		id:         fmt.Sprintf("job-%d", s.nextID.Add(1)),
		spec:       spec,
		ctx:        ctx,
		enqueuedAt: time.Now(),
		status:     "queued",
		done:       make(chan struct{}),
	}
}

// start moves a queued job to running. It refuses when the job is already
// terminal — the drain-abort path may have failed it while it sat in the
// queue, and a worker dequeuing it afterwards must not resurrect it into a
// phantom "running" (or waste a simulation on it).
func (j *job) start() bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.status != "queued" {
		return false
	}
	j.status = "running"
	return true
}

// finish moves the job to its terminal state and closes done. It is
// idempotent: the first terminal transition wins, so a worker completing
// a job the drain-abort path already failed is a no-op (never a double
// close or a resurrected status). Reports whether this call transitioned.
func (j *job) finish(out *runOutput, err error) bool {
	j.mu.Lock()
	if j.status == "done" || j.status == "failed" {
		j.mu.Unlock()
		return false
	}
	if err != nil {
		j.status = "failed"
		j.err = err
	} else {
		j.status = "done"
		j.out = out
	}
	j.mu.Unlock()
	close(j.done)
	return true
}

type serverOptions struct {
	queueDepth int           // bounded queue of runs; 503 when full
	workers    int           // queue drainers
	runTimeout time.Duration // per-run deadline
	pprof      bool          // mount net/http/pprof under /debug/pprof/

	// registry backs /metrics; newServer creates one when nil. Tests
	// inject their own to read instruments directly.
	registry *obs.Registry

	// store, when non-nil, receives every fresh completed run (keyed by
	// commit) and backs GET /runs and GET /query. The server does not own
	// it — the caller opens and closes it.
	store *store.Store
	// commit attributes persisted runs to the producing build
	// (buildinfo.Commit() in production; tests pin a constant).
	commit string

	// holdJobs, when non-nil, blocks each worker after dequeuing until the
	// channel closes. Test-only: it freezes the pool so queue-bound
	// behaviour is observable without timing races.
	holdJobs chan struct{}

	// coordinator enables cluster-coordinator mode: /cluster/* membership
	// endpoints, /grid sharded dispatch, and remote execution of runs
	// whenever live workers exist (local simulation is the fallback).
	// liveness bounds how long a silent worker keeps owning shards
	// (default 6s).
	coordinator bool
	liveness    time.Duration

	// nodeID, when non-empty, names this process in the fleet and becomes
	// the node="..." const label on every metrics series it exports.
	nodeID string

	// spans backs GET /trace; newServer creates one (capacity
	// span.DefaultCapacity, node-stamped) unless spansOff disables
	// recording entirely — the nil recorder keeps every instrumented
	// path allocation-free. Tests inject their own to read spans
	// directly.
	spans    *span.Recorder
	spansOff bool

	// logger receives the access log and lifecycle messages; nil means
	// quiet (olog.Nop), which tests rely on. cmd/edbpd main wires the
	// real one from -log-level / -log-format.
	logger *olog.Logger
}

// server is the edbpd HTTP service. newServer starts the worker pool;
// Drain stops intake and waits for queued jobs, making the server a pure
// function of its handlers in tests (httptest.NewServer(srv.Handler())).
type server struct {
	opts  serverOptions
	mux   *http.ServeMux
	jobs  sync.Map // id -> *job, each queued or running behind its request
	cache resultCache

	queueMu  sync.RWMutex // guards queue against close-during-send
	queue    chan *job
	draining atomic.Bool
	workerWG sync.WaitGroup
	nextID   atomic.Uint64

	// reg backs /metrics (Prometheus text and JSON snapshot); met is the
	// pre-resolved instrument set over it (nil = observation disabled).
	reg *obs.Registry
	met *serverMetrics

	// spans records service spans for GET /trace (nil = disabled);
	// log is never nil (olog.Nop when unconfigured).
	spans *span.Recorder
	log   *olog.Logger

	// Coordinator-mode state (nil in single-node and worker modes).
	members  *cluster.Membership
	coord    *cluster.Coordinator
	cmet     *clusterMetrics
	grids    gridRecords
	nextGrid atomic.Uint64
	scrapes  sync.Map // node id -> *scrapeCacheEntry (metrics federation)
}

func newServer(opts serverOptions) *server {
	if opts.queueDepth <= 0 {
		opts.queueDepth = 64
	}
	if opts.workers <= 0 {
		opts.workers = 2
	}
	if opts.runTimeout <= 0 {
		opts.runTimeout = 15 * time.Minute
	}
	if opts.registry == nil {
		opts.registry = obs.NewRegistry()
	}
	if opts.nodeID != "" {
		opts.registry.SetConstLabels("node", opts.nodeID)
	}
	s := &server{opts: opts, queue: make(chan *job, opts.queueDepth)}
	s.reg = opts.registry
	s.met = newServerMetrics(s.reg)
	obs.RegisterRuntime(s.reg)
	s.spans = opts.spans
	if s.spans == nil && !opts.spansOff {
		s.spans = span.NewRecorder(opts.nodeID, span.DefaultCapacity)
	}
	if s.spans != nil {
		s.reg.GaugeFunc("edbpd_spans_recorded_total", "Service spans finished by this node's recorder.",
			func() float64 { f, _ := s.spans.Stats(); return float64(f) })
		s.reg.GaugeFunc("edbpd_spans_dropped_total", "Service spans lost to span-ring overwrite.",
			func() float64 { _, d := s.spans.Stats(); return float64(d) })
	}
	s.log = opts.logger
	if s.log == nil {
		s.log = olog.Nop()
	}
	// Depth of the bounded channel itself (distinct from the queued-jobs
	// gauge only transiently, but free and impossible to drift).
	s.reg.GaugeFunc("edbpd_queue_depth", "Runs currently in the bounded queue channel.",
		func() float64 { return float64(len(s.queue)) })
	if opts.store != nil {
		s.reg.GaugeFunc("edbpd_store_records", "Result records in the experiment store (superseded included).",
			func() float64 { return float64(opts.store.Len()) })
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /run", s.handleRun)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /runs", s.handleRuns)
	s.mux.HandleFunc("GET /query", s.handleQuery)
	s.mux.HandleFunc("GET /trace", s.handleTrace)
	if opts.coordinator {
		s.initCluster()
	}
	if opts.pprof {
		// Gated behind -pprof: profiling endpoints expose execution
		// details and cost CPU, so production deployments opt in.
		s.mux.HandleFunc("GET /debug/pprof/", httppprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", httppprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", httppprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", httppprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", httppprof.Trace)
	}
	for i := 0; i < opts.workers; i++ {
		s.workerWG.Add(1)
		go s.worker()
	}
	return s
}

// Handler returns the service's HTTP handler: the route mux behind the
// observability middleware (request counter, server span per request,
// access log with centralized 5xx error lines).
func (s *server) Handler() http.Handler {
	return s.withObservability(s.mux)
}

// errDrainAborted is the typed reason stamped on jobs the drain gave up
// waiting for: their requests are answered 503 drain_aborted, never left
// behind as a phantom in-flight job after the server has shut down.
var errDrainAborted = errors.New("edbpd: drain aborted before this job completed")

// Drain stops accepting work, waits for queued jobs to finish (bounded by
// ctx), and releases the worker pool. /healthz reports 503 from the first
// moment so load balancers stop routing. If ctx expires first, every job
// still queued or running is marked failed with errDrainAborted.
func (s *server) Drain(ctx context.Context) error {
	s.queueMu.Lock()
	if !s.draining.Swap(true) {
		close(s.queue)
	}
	s.queueMu.Unlock()

	done := make(chan struct{})
	go func() { s.workerWG.Wait(); close(done) }()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		n := s.failPendingJobs(errDrainAborted)
		return fmt.Errorf("edbpd: drain aborted with %d jobs still pending: %w", n, ctx.Err())
	}
}

// failPendingJobs force-fails every non-terminal job with reason. Workers
// racing a job to completion lose harmlessly: job.finish is idempotent.
func (s *server) failPendingJobs(reason error) int {
	n := 0
	s.jobs.Range(func(_, v any) bool {
		if v.(*job).finish(nil, reason) {
			n++
		}
		return true
	})
	return n
}

func (s *server) worker() {
	defer s.workerWG.Done()
	for j := range s.queue {
		if s.opts.holdJobs != nil {
			<-s.opts.holdJobs
		}
		if s.met != nil {
			s.met.jobsQueued.Dec()
		}
		if !j.start() {
			// Already terminal: a drain abort failed it while queued.
			continue
		}
		if s.met != nil {
			s.met.jobsRunning.Inc()
			s.met.queueWait.Observe(time.Since(j.enqueuedAt).Seconds())
		}
		// The queue-wait span is materialized at dequeue, backdated to
		// the enqueue instant, so it costs nothing while the job sits.
		if qs := s.spans.StartAt(span.FromCtx(j.ctx), "queue-wait", j.enqueuedAt); qs != nil {
			qs.Attr("job", j.id)
			qs.End()
		}
		// Jobs run to completion even during drain; only the per-run
		// deadline and the client leaving stop them.
		ctx, cancel := context.WithTimeout(j.ctx, s.opts.runTimeout)
		out, err := s.run(ctx, j.spec)
		cancel()
		j.finish(out, err)
		if err != nil {
			s.log.Warn("job failed", "job_id", j.id, "trace_id", traceIDString(span.FromCtx(j.ctx)), "err", err.Error())
		}
		if s.met != nil {
			s.met.jobsRunning.Dec()
		}
	}
}

// run executes one simulation, consulting and feeding the config-hash
// result cache. Cached replays skip the simulator entirely; fresh runs
// additionally reuse the process-wide workload.Cached / energy.CachedTrace
// memoization underneath sim.RunContext. A queue worker is its one caller.
func (s *server) run(ctx context.Context, spec runSpec) (out *runOutput, err error) {
	key, cfg := spec.key, spec.cfg
	rs := s.spans.Start(span.FromCtx(ctx), "run")
	if rs != nil {
		rs.Attr("app", cfg.App).Attr("scheme", cfg.Scheme.String()).Attr("key", key[:12])
		ctx = span.With(ctx, rs.Ctx())
		defer func() {
			rs.Fail(err)
			rs.End()
		}()
	}

	cs := s.spans.Start(rs.Ctx(), "cache-lookup")
	cached, hitOK := s.cache.get(key)
	if cs != nil {
		cs.Attr("hit", strconv.FormatBool(hitOK))
		cs.End()
	}
	if hitOK {
		s.met.observeCache(true)
		hit := *cached
		hit.CacheHit = true
		return &hit, nil
	}
	s.met.observeCache(false)
	if out, handled, err := s.dispatch(ctx, spec); handled {
		if err != nil {
			return nil, err
		}
		s.cache.put(key, out)
		return out, nil
	}
	rec := tracepkg.NewRecorder(tracepkg.Options{
		Label:    fmt.Sprintf("%s/%s/%s", cfg.App, cfg.Scheme, cfg.TraceKind),
		EventCap: 4096,
		// The rings keep a bounded recent window of events and of gauge
		// samples taken every simulated millisecond (overwrites are
		// counted into edbpd_trace_dropped_total).
		SampleCap:   256,
		SampleEvery: 1e-3,
	})
	cfg.Recorder = rec
	start := time.Now()
	ss := s.spans.Start(rs.Ctx(), "simulate")
	res, err := sim.RunContext(ctx, cfg)
	if ss != nil {
		ss.Fail(err)
		ss.End()
	}
	if err != nil {
		s.met.observeRunError()
		return nil, err
	}
	s.met.observeRun(cfg.App, cfg.Scheme.String(), res, time.Since(start).Seconds())
	s.persist(rs.Ctx(), cfg, res)
	out = output(res)
	s.cache.put(key, out)
	return out, nil
}

// persist appends a fresh completed run to the experiment store (when one
// is configured), keyed by its config hash and the server's commit. A
// store failure never fails the request — the result is still correct —
// but it is counted, so a wedged store is visible in /metrics.
func (s *server) persist(parent span.Context, cfg sim.Config, res *sim.Result) {
	if s.opts.store == nil {
		return
	}
	start := time.Now()
	ps := s.spans.Start(parent, "store-append")
	err := s.opts.store.PutResult(store.KeyFor(cfg, s.opts.commit), res, time.Now().Unix())
	if ps != nil {
		ps.Fail(err)
		ps.End()
	}
	s.met.observeStoreAppend(err == nil, time.Since(start).Seconds())
}

// traceIDString renders a span context's trace for log correlation; the
// empty string when tracing is off.
func traceIDString(c span.Context) string {
	if c.Trace.IsZero() {
		return ""
	}
	return c.Trace.String()
}

// httpError answers with edbpd's error JSON: the message and a stable
// error code (the cluster.Code constants) that clients branch on.
func httpError(w http.ResponseWriter, status int, code, format string, args ...any) {
	writeJSON(w, status, cluster.ErrorBody{Error: fmt.Sprintf(format, args...), Code: code})
}

// runErrorCode is the error code of a run that returned err. A config sim
// rejects, here or on the worker a coordinator dispatched it to, is the
// client's error.
func runErrorCode(err error) string {
	var (
		ce   *sim.ConfigError
		term *cluster.TerminalError
	)
	switch {
	case errors.Is(err, errDrainAborted):
		return cluster.CodeDrainAborted
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded):
		return cluster.CodeTimeout
	case errors.As(err, &ce), errors.As(err, &term) && term.Code == cluster.CodeBadRequest:
		return cluster.CodeBadRequest
	default:
		return cluster.CodeRunFailed
	}
}

// httpRunError answers a run that returned err with the error JSON under
// its runErrorCode and that code's status: 400 bad_request, 504 timeout,
// 503 drain_aborted (with Retry-After) or 500 run_failed.
func httpRunError(w http.ResponseWriter, err error) {
	switch code := runErrorCode(err); code {
	case cluster.CodeBadRequest:
		httpError(w, http.StatusBadRequest, code, "%v", err)
	case cluster.CodeTimeout:
		httpError(w, http.StatusGatewayTimeout, code, "%v", err)
	case cluster.CodeDrainAborted:
		httpUnavailable(w, drainRetryAfterSeconds, code, "%v", err)
	default:
		httpError(w, http.StatusInternalServerError, code, "%v", err)
	}
}

// drainRetryAfterSeconds is the Retry-After clients get while the server
// drains: long enough for a rolling restart to converge, short enough
// that retrying clients land on the replacement promptly.
const drainRetryAfterSeconds = 5

// httpUnavailable is a 503 with an explicit Retry-After, so intake
// rejection during drain (or a momentarily full queue) is a deterministic,
// machine-actionable backpressure signal instead of a bare error.
func httpUnavailable(w http.ResponseWriter, retryAfterSeconds int, code, format string, args ...any) {
	w.Header().Set("Retry-After", strconv.Itoa(retryAfterSeconds))
	httpError(w, http.StatusServiceUnavailable, code, format, args...)
}

// Typed intake-rejection reasons for tryEnqueue.
var (
	errDraining  = errors.New("draining")
	errQueueFull = errors.New("queue full")
)

// tryEnqueue places j in the bounded queue, or reports why it cannot. The
// draining check and the channel send happen under the same read lock
// Drain write-locks before closing the queue, so a submission racing the
// drain flip either lands before the close (and will be finished by the
// pool) or observes errDraining — it can never send on a closed channel
// or be misreported as a full-queue rejection.
func (s *server) tryEnqueue(j *job) error {
	s.queueMu.RLock()
	defer s.queueMu.RUnlock()
	if s.draining.Load() {
		return errDraining
	}
	select {
	case s.queue <- j:
		s.jobs.Store(j.id, j)
		if s.met != nil {
			s.met.jobsQueued.Inc()
		}
		return nil
	default:
		return errQueueFull
	}
}

// enqueue places j in the bounded queue, or answers 503 with Retry-After
// and the reason's code. It reports whether j was queued.
func (s *server) enqueue(w http.ResponseWriter, j *job) bool {
	switch err := s.tryEnqueue(j); {
	case err == nil:
		return true
	case errors.Is(err, errDraining):
		httpUnavailable(w, drainRetryAfterSeconds, cluster.CodeDraining, "draining")
	default:
		if s.met != nil {
			s.met.queueFull.Inc()
		}
		httpUnavailable(w, 1, cluster.CodeQueueFull, "queue full (%d deep)", s.opts.queueDepth)
	}
	return false
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(v)
}

// handleRun serves POST /run, the one way edbpd runs a config. The body
// is a sim.Knobs; an unknown key (a misspelled knob would otherwise take
// its default), a config sim rejects or any query parameter is a 400
// before anything queues, so a client still sending the removed async or
// stream parameter gets an error, not a run it did not ask for. The job
// then waits in the bounded queue (503 queue_full or draining when it
// cannot), and the response is its Result JSON or httpRunError's answer.
// The run belongs to the request: when the client leaves, a queued job is
// never started and a running one is canceled. The job stays in s.jobs,
// where a drain abort finds it, only until the request ends.
func (s *server) handleRun(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpUnavailable(w, drainRetryAfterSeconds, cluster.CodeDraining, "draining")
		return
	}
	if r.URL.RawQuery != "" {
		httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "POST /run takes no query parameter, got %q", r.URL.RawQuery)
		return
	}
	var k sim.Knobs
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&k); err != nil {
		httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "bad request body: %v", err)
		return
	}
	spec, err := newRunSpec(k)
	if err != nil {
		httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "%v", err)
		return
	}
	ctx := r.Context()
	j := s.newJob(ctx, spec)
	if !s.enqueue(w, j) {
		return
	}
	defer s.jobs.Delete(j.id)
	select {
	case <-j.done:
	case <-ctx.Done():
		j.finish(nil, ctx.Err())
		return
	}
	// finish set out or err before closing done.
	if j.err != nil {
		httpRunError(w, j.err)
		return
	}
	writeJSON(w, http.StatusOK, j.out)
}

// storedRun is one GET /runs response item.
type storedRun struct {
	Key    store.Key   `json:"key"`
	Time   int64       `json:"unix_time"`
	Result *sim.Result `json:"result"`
}

// handleRuns serves GET /runs from the experiment store. Query params
// app, scheme, seed, commit and config_hash (prefix allowed) filter;
// limit caps; latest=1 keeps only each key's newest record. With
// format=raw (config_hash required) the response is the stored
// sim.EncodeResult envelope byte for byte — the CI smoke job asserts the
// exact round trip against it.
func (s *server) handleRuns(w http.ResponseWriter, r *http.Request) {
	if s.opts.store == nil {
		httpError(w, http.StatusNotFound, cluster.CodeNotFound, "no experiment store configured (start edbpd with -store)")
		return
	}
	q := r.URL.Query()
	f := store.Filter{
		App:        q.Get("app"),
		Scheme:     q.Get("scheme"),
		Commit:     q.Get("commit"),
		ConfigHash: q.Get("config_hash"),
		LatestOnly: q.Get("latest") != "",
	}
	if v := q.Get("seed"); v != "" {
		seed, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "bad seed %q", v)
			return
		}
		f.Seed = &seed
	}
	if v := q.Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "bad limit %q", v)
			return
		}
		f.Limit = n
	}

	if q.Get("format") == "raw" {
		if f.ConfigHash == "" {
			httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "format=raw needs config_hash")
			return
		}
		raw, _, ok, err := s.opts.store.RawByHash(f.ConfigHash)
		if err != nil {
			httpError(w, http.StatusInternalServerError, cluster.CodeInternal, "%v", err)
			return
		}
		if !ok {
			httpError(w, http.StatusNotFound, cluster.CodeNotFound, "no stored run for config hash %q", f.ConfigHash)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(raw)
		return
	}

	runs, err := s.opts.store.Select(f)
	if err != nil {
		httpError(w, http.StatusInternalServerError, cluster.CodeInternal, "%v", err)
		return
	}
	out := make([]storedRun, 0, len(runs))
	for _, run := range runs {
		out = append(out, storedRun{Key: run.Key, Time: run.Time, Result: run.Result})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleQuery serves GET /query?q=<statement> over the experiment store's
// SELECT grammar (see internal/store.ParseQuery). The default response is
// the result table as JSON; format=text renders the same table as the
// plain text cmd/experiments emits.
func (s *server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.opts.store == nil {
		httpError(w, http.StatusNotFound, cluster.CodeNotFound, "no experiment store configured (start edbpd with -store)")
		return
	}
	stmt := r.URL.Query().Get("q")
	if stmt == "" {
		httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "missing query parameter q")
		return
	}
	parsed, err := store.ParseQuery(stmt)
	if err != nil {
		s.met.observeStoreQuery(false)
		httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "%v", err)
		return
	}
	table, err := s.opts.store.Execute(r.Context(), parsed)
	if err != nil {
		s.met.observeStoreQuery(false)
		httpError(w, http.StatusUnprocessableEntity, cluster.CodeBadRequest, "%v", err)
		return
	}
	s.met.observeStoreQuery(true)
	if r.URL.Query().Get("format") == "text" {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		table.Print(w)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id": table.ID, "title": table.Title,
		"header": table.Header, "rows": table.Rows, "notes": table.Notes,
	})
}

func (s *server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpUnavailable(w, drainRetryAfterSeconds, cluster.CodeDraining, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics emits the obs.Registry: Prometheus text exposition
// (format 0.0.4, # HELP/# TYPE on every family) by default, or the JSON
// snapshot with ?format=json.
func (s *server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.URL.Query().Get("format") == "json" {
		w.Header().Set("Content-Type", "application/json")
		s.reg.WriteJSON(w)
		return
	}
	w.Header().Set("Content-Type", obs.ContentType)
	s.reg.WritePrometheus(w)
}
