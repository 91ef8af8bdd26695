package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"edbp/internal/cluster"
)

func testServer(t *testing.T, opts serverOptions) (*server, *httptest.Server) {
	t.Helper()
	s := newServer(opts)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		s.Drain(ctx)
	})
	return s, ts
}

func doJSON(t *testing.T, method, url, body string, out any) int {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: bad JSON: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

// TestRunSync covers the synchronous POST /run path and the config-hash
// result cache: the second identical request must be a cache hit with the
// same numbers.
func TestRunSync(t *testing.T) {
	s, ts := testServer(t, serverOptions{})

	var first runOutput
	code := doJSON(t, "POST", ts.URL+"/run", `{"app":"crc32","scheme":"edbp","scale":0.05}`, &first)
	if code != http.StatusOK {
		t.Fatalf("POST /run = %d, want 200", code)
	}
	if first.Instructions == 0 || first.WallSeconds == 0 {
		t.Fatalf("empty result: %+v", first)
	}
	if first.App != "crc32" || first.Scheme != "EDBP" {
		t.Errorf("result identifies %s/%s, want crc32/EDBP", first.App, first.Scheme)
	}
	if first.CacheHit {
		t.Error("first run reported cache_hit")
	}

	var second runOutput
	doJSON(t, "POST", ts.URL+"/run", `{"app":"crc32","scheme":"edbp","scale":0.05}`, &second)
	if !second.CacheHit {
		t.Error("identical rerun was not served from the cache")
	}
	if second.Instructions != first.Instructions || second.WallSeconds != first.WallSeconds {
		t.Error("cached result differs from the original")
	}
	if hits := s.met.cacheHits.Value(); hits != 1 {
		t.Errorf("cache hits = %g, want 1", hits)
	}
	if misses := s.met.cacheMisses.Value(); misses != 1 {
		t.Errorf("cache misses = %g, want 1", misses)
	}
}

// TestRunValidation: a body that does not decode or has an unknown key,
// or a config sim rejects, is a 400 bad_request at intake on POST /run and
// as a grid cell, and so is POST /run with any query parameter. Nothing is
// queued, simulated or recorded.
func TestRunValidation(t *testing.T) {
	s, ts := testServer(t, serverOptions{coordinator: true})
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, body := range []string{
		`{"scheme":"edbp"}`,                // missing app
		`{"app":"crc32","scheme":"bogus"}`, // unknown scheme
		`{"app":"crc32","trace":"Lunar"}`,  // unknown energy trace
		`not json`,
		// Configs sim.Run rejects with a *sim.ConfigError.
		`{"app":"crc32","scale":0.05,"cache_bytes":16384,"cache_ways":512}`, // past uint8 way indices
		`{"app":"crc32","scale":0.05,"cache_bytes":1000}`,                   // not a power of two
		`{"app":"crc32","scale":0.05,"cap_uf":-1}`,
		`{"app":"crc32","scale":-1}`,
		`{"app":"crc32","scale":0.05,"policy":"PLRU","cache_ways":64}`, // PLRU's tree holds 32 ways
		`{"app":"nope"}`, // unknown app
		`{"app":"crc32","scale":0.05,"mem_mb":17592186044416}`, // 2^44 MB overflows int64 bytes
		`{"app":"crc32","scale":0.05,"cache_bytes":2097152}`,   // past the 1 MiB cache bound
		`{"app":"crc32","scale":0.05,"cache_bytes":8589934592}`,
		`{"app":"crc32","scale":256}`,                  // past the scale bound: ~8 GB to record
		`{"app":"crc32","scale":0.05,"sceme":"ideal"}`, // misspelled knob: would run EDBP
	} {
		for _, path := range []string{"/run", "/grid"} {
			send := body
			if path == "/grid" {
				send = `{"runs":[` + body + `]}`
			}
			var e cluster.ErrorBody
			if code := doJSON(t, "POST", ts.URL+path, send, &e); code != http.StatusBadRequest {
				t.Errorf("POST %s %s = %d, want 400", path, send, code)
			}
			if e.Error == "" {
				t.Errorf("POST %s %s: missing error message", path, send)
			}
			if e.Code != cluster.CodeBadRequest {
				t.Errorf("POST %s %s: code %q, want %q", path, send, e.Code, cluster.CodeBadRequest)
			}
		}
	}
	// An unknown top-level grid key is rejected the same way.
	if code := doJSON(t, "POST", ts.URL+"/grid", `{"runs":[{"app":"crc32","scale":0.05}],"sceds":[1,2]}`, nil); code != http.StatusBadRequest {
		t.Errorf("POST /grid with an unknown key = %d, want 400", code)
	}
	// A client still sending the deleted ?async=1 or ?stream=1 gets an
	// error, not a run it did not ask for.
	for _, path := range []string{"/run?async=1", "/run?stream=1", "/run?stream=1&async=1"} {
		var e cluster.ErrorBody
		if code := doJSON(t, "POST", ts.URL+path, `{"app":"crc32","scale":0.05}`, &e); code != http.StatusBadRequest || e.Code != cluster.CodeBadRequest {
			t.Errorf("POST %s = %d %+v, want 400 with code %q", path, code, e, cluster.CodeBadRequest)
		}
	}
	if n := s.nextID.Load(); n != 0 {
		t.Errorf("%d jobs were made for rejected bodies", n)
	}
	if n := s.met.runsOK.Value(); n != 0 {
		t.Errorf("%g rejected bodies were simulated", n)
	}
	// Nor was any kernel recorded: crc32 at scale 4 alone allocates about
	// 76 MB.
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 64 {
		t.Errorf("rejected bodies allocated %.0f MB: a trace was recorded", mb)
	}
}

// TestQueueBound freezes the single worker (holdJobs gate) so the depth-1
// queue fills deterministically: the worker holds one run, a second waits
// in the queue, and every further run is a queue_full 503 until the gate
// opens; then both held runs are answered with their results.
func TestQueueBound(t *testing.T) {
	gate := make(chan struct{})
	s, ts := testServer(t, serverOptions{queueDepth: 1, workers: 1, holdJobs: gate})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // before the server's own cleanup drains it

	pending := holdRuns(t, s, ts.URL, baselineBody(1), baselineBody(2))
	for seed := 3; seed < 6; seed++ {
		refuseRun(t, ts.URL, baselineBody(seed), cluster.CodeQueueFull)
	}
	if got := s.met.queueFull.Value(); got != 3 {
		t.Errorf("edbpd_queue_full_total = %g, want 3", got)
	}
	release()
	for i := 0; i < 2; i++ {
		if a := <-pending; a.err != nil || a.code != http.StatusOK || a.out.Instructions == 0 {
			t.Errorf("held run = %d %+v, %v; want 200 with its result", a.code, a.e, a.err)
		}
	}
}

// TestHealthzAndMetrics: healthy server reports ok and well-formed
// Prometheus text including the trace-event aggregate.
func TestHealthzAndMetrics(t *testing.T) {
	_, ts := testServer(t, serverOptions{})

	var h struct {
		Status string `json:"status"`
	}
	if code := doJSON(t, "GET", ts.URL+"/healthz", "", &h); code != http.StatusOK || h.Status != "ok" {
		t.Fatalf("healthz = %d %+v", code, h)
	}

	doJSON(t, "POST", ts.URL+"/run", `{"app":"crc32","scheme":"edbp","scale":0.05}`, nil)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	for _, want := range []string{
		"edbpd_requests_total",
		"edbpd_runs_ok_total 1",
		"edbpd_trace_events_total{kind=\"checkpoint\"}",
		"edbpd_sim_seconds_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q:\n%s", want, text)
		}
	}
}

// TestDrain: draining flips healthz to 503, rejects new runs, and lets a
// run queued before it finish with its result.
func TestDrain(t *testing.T) {
	gate := make(chan struct{})
	s := newServer(serverOptions{workers: 1, holdJobs: gate})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	pending := holdRuns(t, s, ts.URL, baselineBody(1))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	drained := make(chan error, 1)
	go func() { drained <- s.Drain(ctx) }()
	for !s.draining.Load() {
		if ctx.Err() != nil {
			t.Fatal("Drain never started")
		}
		time.Sleep(time.Millisecond)
	}

	if code := doJSON(t, "GET", ts.URL+"/healthz", "", nil); code != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained = %d, want 503", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/run", `{"app":"crc32"}`, nil); code != http.StatusServiceUnavailable {
		t.Errorf("POST /run while drained = %d, want 503", code)
	}

	// The queued run must complete, not be dropped.
	close(gate)
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	if a := <-pending; a.err != nil || a.code != http.StatusOK || a.out.Instructions == 0 {
		t.Fatalf("queued run = %d %+v, %v; want 200 with its result", a.code, a.e, a.err)
	}

	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// answer is the outcome of one POST /run: its status, its Result on a 200
// or its error JSON otherwise, and its Retry-After header.
type answer struct {
	code       int
	out        runOutput
	e          cluster.ErrorBody
	retryAfter string
	err        error
}

// postRun sends POST /run under ctx and reads its answer.
func postRun(ctx context.Context, url, body string) answer {
	req, err := http.NewRequestWithContext(ctx, "POST", url+"/run", strings.NewReader(body))
	if err != nil {
		return answer{err: err}
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return answer{err: err}
	}
	defer resp.Body.Close()
	a := answer{code: resp.StatusCode, retryAfter: resp.Header.Get("Retry-After")}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		a.err = fmt.Errorf("Content-Type %q", ct)
	} else if a.code == http.StatusOK {
		a.err = json.NewDecoder(resp.Body).Decode(&a.out)
	} else {
		a.err = json.NewDecoder(resp.Body).Decode(&a.e)
	}
	return a
}

// baselineBody is a small Baseline run's body; seeds make distinct runs.
func baselineBody(seed int) string {
	return fmt.Sprintf(`{"app":"crc32","scheme":"baseline","scale":0.05,"seed":%d}`, seed)
}

// holdRuns posts one run per body, in order, to a server whose one worker
// is frozen (holdJobs): the worker holds the first job and the queue the
// rest. It returns once the server holds them all; each run's answer
// arrives on the channel when it comes.
func holdRuns(t *testing.T, s *server, url string, bodies ...string) <-chan answer {
	t.Helper()
	out := make(chan answer, len(bodies))
	for i, body := range bodies {
		go func() { out <- postRun(context.Background(), url, body) }()
		for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
			held := 0
			s.jobs.Range(func(_, _ any) bool { held++; return true })
			if held == i+1 && len(s.queue) == i {
				break
			}
			if time.Now().After(deadline) {
				t.Fatalf("run %d never held (%d jobs held, %d queued)", i, held, len(s.queue))
			}
		}
	}
	return out
}

// TestRunStream drives POST /run through the queue: every run, a cache
// hit included, waits in the queue and is answered with its Result, a bad
// body is a coded 400, and a job leaves s.jobs once its request ends.
func TestRunStream(t *testing.T) {
	s, ts := testServer(t, serverOptions{workers: 1})
	ctx := context.Background()
	run := func(seed int) runOutput {
		t.Helper()
		a := postRun(ctx, ts.URL, fmt.Sprintf(`{"app":"crc32","scheme":"edbp","scale":0.05,"seed":%d}`, seed))
		if a.err != nil || a.code != http.StatusOK {
			t.Fatalf("POST /run = %d %+v, %v", a.code, a.e, a.err)
		}
		return a.out
	}
	const n = 3
	for seed := 1; seed <= n; seed++ {
		if out := run(seed); out.Instructions == 0 || out.App != "crc32" || out.CacheHit {
			t.Errorf("seed %d: implausible result %+v", seed, out)
		}
	}
	if out := run(1); !out.CacheHit || out.Instructions == 0 {
		t.Errorf("repeated config: %+v, want a cached result", out)
	}
	if got := s.met.queueWait.Count(); got != n+1 {
		t.Errorf("edbpd_queue_wait_seconds_count = %d, want %d: every run waits in the queue", got, n+1)
	}
	left := 0
	s.jobs.Range(func(_, _ any) bool { left++; return true })
	if left != 0 {
		t.Errorf("%d jobs still held after %d answered runs", left, n+1)
	}

	if a := postRun(ctx, ts.URL, `not json`); a.err != nil || a.code != http.StatusBadRequest || a.e.Code != cluster.CodeBadRequest || a.e.Error == "" {
		t.Errorf("bad body = %d %+v (%v), want 400 with code %q", a.code, a.e, a.err, cluster.CodeBadRequest)
	}
}

// refuseRun posts a run the server must refuse with a 503 carrying code
// want and a Retry-After header.
func refuseRun(t *testing.T, url, body, want string) {
	t.Helper()
	a := postRun(context.Background(), url, body)
	if a.err != nil || a.code != http.StatusServiceUnavailable || a.e.Code != want || a.retryAfter == "" {
		t.Errorf("refused run = %d %+v (Retry-After %q, %v), want 503 with code %q",
			a.code, a.e, a.retryAfter, a.err, want)
	}
}

// TestRunStreamErrorFrames pins the coded failure answers of a queued run:
// 504 timeout past its deadline, and 500 run_failed when the simulation
// fails, here on the worker a coordinator dispatched it to.
// TestQueueBound and TestDrainAbortMarksPendingFailed pin the queue_full
// and draining refusals and the 503 drain_aborted answer.
func TestRunStreamErrorFrames(t *testing.T) {
	ctx := context.Background()
	_, hasty := testServer(t, serverOptions{workers: 1, runTimeout: time.Nanosecond})
	if a := postRun(ctx, hasty.URL, baselineBody(1)); a.err != nil || a.code != http.StatusGatewayTimeout || a.e.Code != cluster.CodeTimeout {
		t.Errorf("timed-out run = %d %+v (%v), want 504 with code %q", a.code, a.e, a.err, cluster.CodeTimeout)
	}

	failing := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		httpError(w, http.StatusInternalServerError, cluster.CodeRunFailed, "simulation failed")
	}))
	defer failing.Close()
	coord := newClusterCoordinator(t)
	joinWorker(t, coord, "failing", failing.URL)
	if a := postRun(ctx, coord.ts.URL, baselineBody(1)); a.err != nil || a.code != http.StatusInternalServerError || a.e.Code != cluster.CodeRunFailed {
		t.Errorf("failed run = %d %+v (%v), want 500 with code %q", a.code, a.e, a.err, cluster.CodeRunFailed)
	}
}

// TestRunStreamClientGone: a run belongs to its request. When the client
// leaves while the job is queued, the job is dropped from s.jobs and never
// simulated.
func TestRunStreamClientGone(t *testing.T) {
	gate := make(chan struct{})
	s, ts := testServer(t, serverOptions{workers: 1, holdJobs: gate})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // before the server's own cleanup drains it

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	a := postRun(ctx, ts.URL, `{"app":"crc32","scheme":"baseline","scale":0.05}`)
	cancel()
	if !errors.Is(a.err, context.DeadlineExceeded) {
		t.Fatalf("run of a frozen job = %d %+v (%v), want no answer before the client gave up", a.code, a.e, a.err)
	}
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		held := 0
		s.jobs.Range(func(_, _ any) bool { held++; return true })
		if held == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d jobs still held after their client left", held)
		}
	}
	release()
	dctx, dcancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer dcancel()
	if err := s.Drain(dctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	if got := s.met.runsOK.Value(); got != 0 {
		t.Errorf("runs_ok = %g: the abandoned job was simulated", got)
	}
}

// TestResultCacheBound: the result cache holds maxGridEntries results and
// evicts the oldest first; storing a key it holds takes no new slot.
func TestResultCacheBound(t *testing.T) {
	var c resultCache
	key := func(i int) string { return fmt.Sprintf("key-%d", i) }
	for i := 0; i <= maxGridEntries; i++ {
		c.put(key(i), &runOutput{Instructions: uint64(i)})
	}
	if _, ok := c.get(key(0)); ok {
		t.Error("the oldest result outlived the bound")
	}
	for _, i := range []int{1, maxGridEntries / 2, maxGridEntries} {
		if out, ok := c.get(key(i)); !ok || out.Instructions != uint64(i) {
			t.Errorf("result %d = %+v, %v; want it kept", i, out, ok)
		}
	}
	if n := len(c.byKey); n != maxGridEntries {
		t.Errorf("cache holds %d results, want %d", n, maxGridEntries)
	}

	c.put(key(maxGridEntries), &runOutput{})
	if _, ok := c.get(key(1)); !ok {
		t.Error("re-storing a held key evicted the oldest result")
	}
	c.put(key(maxGridEntries+1), &runOutput{})
	if _, ok := c.get(key(1)); ok {
		t.Error("a new key past the bound did not evict the oldest result")
	}
	if _, ok := c.get(key(2)); !ok {
		t.Error("a new key past the bound evicted more than the oldest result")
	}
}
