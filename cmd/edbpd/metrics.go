package main

import (
	"edbp/internal/obs"
	"edbp/internal/sim"
	tracepkg "edbp/internal/trace"
)

// Histogram bucket layouts. Run wall time spans interactive small runs
// (milliseconds) through full-matrix jobs (minutes); throughput brackets
// the engine's measured ~2e7 events/s so regressions shift mass across
// bucket boundaries visibly.
var (
	runSecondsBuckets   = []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60, 120, 300}
	eventsPerSecBuckets = []float64{1e5, 2.5e5, 5e5, 1e6, 2.5e6, 5e6, 1e7, 2.5e7, 5e7, 1e8}
	queueWaitBuckets    = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
)

// serverMetrics is edbpd's instrument set, resolved once against an
// obs.Registry so hot paths observe through pre-bound children. A nil
// *serverMetrics disables observation entirely: every method no-ops from
// the receiver check, adding zero allocations to the run path (pinned by
// TestNilMetricsZeroAllocs).
type serverMetrics struct {
	requests    *obs.Counter
	runsOK      *obs.Counter
	runsErr     *obs.Counter
	cacheHits   *obs.Counter
	cacheMisses *obs.Counter
	queueFull   *obs.Counter
	simSeconds  *obs.Counter

	jobsQueued  *obs.Gauge
	jobsRunning *obs.Gauge

	runSeconds   *obs.Histogram
	runEventsPS  *obs.Histogram
	queueWait    *obs.Histogram
	runsByConfig *obs.CounterVec

	traceEvents    [tracepkg.KindCount]*obs.Counter
	traceDropped   *obs.Counter // ring="events"
	samplesDropped *obs.Counter // ring="samples"

	storeAppends      *obs.Counter
	storeAppendErrors *obs.Counter
	storeAppendSecs   *obs.Histogram
	storeQueries      *obs.Counter
	storeQueryErrors  *obs.Counter
}

// newServerMetrics registers edbpd's families on reg. A nil reg yields a
// nil (disabled) metric set.
func newServerMetrics(reg *obs.Registry) *serverMetrics {
	if reg == nil {
		return nil
	}
	m := &serverMetrics{
		requests:    reg.Counter("edbpd_requests_total", "HTTP requests served."),
		runsOK:      reg.Counter("edbpd_runs_ok_total", "Simulations completed."),
		runsErr:     reg.Counter("edbpd_runs_error_total", "Simulations failed or canceled."),
		cacheHits:   reg.Counter("edbpd_cache_hits_total", "Runs answered from the config-hash result cache."),
		cacheMisses: reg.Counter("edbpd_cache_misses_total", "Runs that missed the config-hash result cache and simulated."),
		queueFull:   reg.Counter("edbpd_queue_full_total", "Runs rejected for a full queue."),
		simSeconds:  reg.Counter("edbpd_sim_seconds_total", "Simulated wall-clock seconds across completed runs."),
		runSeconds: reg.Histogram("edbpd_run_seconds",
			"Host wall time per completed simulation run.", runSecondsBuckets),
		runEventsPS: reg.Histogram("edbpd_run_events_per_second",
			"Simulator throughput per completed run (instructions per host second).", eventsPerSecBuckets),
		queueWait: reg.Histogram("edbpd_queue_wait_seconds",
			"Time runs spent queued before a worker dequeued them.", queueWaitBuckets),
		runsByConfig: reg.CounterVec("edbpd_runs_by_config_total",
			"Completed runs by workload app and scheme.", "app", "scheme"),
	}
	jobs := reg.GaugeVec("edbpd_jobs", "Jobs by state.", "state")
	m.jobsQueued = jobs.With("queued")
	m.jobsRunning = jobs.With("running")
	events := reg.CounterVec("edbpd_trace_events_total",
		"Simulator trace events by kind (internal/trace), summed over completed runs.", "kind")
	for k := 0; k < tracepkg.KindCount; k++ {
		m.traceEvents[k] = events.With(tracepkg.Kind(k).String())
	}
	dropped := reg.CounterVec("edbpd_trace_dropped_total",
		"Trace-ring overwrites (recorded but no longer exportable), by ring.", "ring")
	m.traceDropped = dropped.With("events")
	m.samplesDropped = dropped.With("samples")
	m.storeAppends = reg.Counter("edbpd_store_appends_total",
		"Completed runs appended to the experiment store.")
	m.storeAppendErrors = reg.Counter("edbpd_store_append_errors_total",
		"Experiment-store appends that failed (the run's response was still served).")
	m.storeAppendSecs = reg.Histogram("edbpd_store_append_seconds",
		"Host wall time per experiment-store append.", queueWaitBuckets)
	m.storeQueries = reg.Counter("edbpd_store_queries_total",
		"GET /query statements executed against the experiment store.")
	m.storeQueryErrors = reg.Counter("edbpd_store_query_errors_total",
		"GET /query statements rejected (parse or execution failure).")
	return m
}

// observeStoreAppend records one experiment-store append attempt.
func (m *serverMetrics) observeStoreAppend(ok bool, seconds float64) {
	if m == nil {
		return
	}
	if ok {
		m.storeAppends.Inc()
	} else {
		m.storeAppendErrors.Inc()
	}
	m.storeAppendSecs.Observe(seconds)
}

// observeStoreQuery counts one GET /query execution.
func (m *serverMetrics) observeStoreQuery(ok bool) {
	if m == nil {
		return
	}
	if ok {
		m.storeQueries.Inc()
	} else {
		m.storeQueryErrors.Inc()
	}
}

// observeRun records one successful simulation: aggregate counters, the
// latency/throughput histograms, per-config counters, and the trace-kind
// and ring-drop aggregates from the run's summary.
func (m *serverMetrics) observeRun(app, scheme string, res *sim.Result, hostSeconds float64) {
	if m == nil {
		return
	}
	m.runsOK.Inc()
	m.simSeconds.Add(res.WallTime)
	m.runSeconds.Observe(hostSeconds)
	if hostSeconds > 0 {
		m.runEventsPS.Observe(float64(res.Instructions) / hostSeconds)
	}
	m.runsByConfig.With(app, scheme).Inc()
	if sum := res.TraceSummary; sum != nil {
		for k, n := range sum.ByKind {
			m.traceEvents[k].Add(float64(n))
		}
		m.traceDropped.Add(float64(sum.Dropped))
		m.samplesDropped.Add(float64(sum.SamplesDropped))
	}
}

// observeRunError counts a failed or canceled simulation.
func (m *serverMetrics) observeRunError() {
	if m == nil {
		return
	}
	m.runsErr.Inc()
}

// observeCache counts one result-cache lookup.
func (m *serverMetrics) observeCache(hit bool) {
	if m == nil {
		return
	}
	if hit {
		m.cacheHits.Inc()
	} else {
		m.cacheMisses.Inc()
	}
}
