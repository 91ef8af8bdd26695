package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
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

// jobView mirrors the job JSON without the server-side sync fields.
type jobView struct {
	ID     string     `json:"id"`
	Status string     `json:"status"`
	Result *runOutput `json:"result,omitempty"`
	Error  string     `json:"error,omitempty"`
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

// TestRunValidation: bad configs are 400s with a JSON error, not runs.
func TestRunValidation(t *testing.T) {
	_, ts := testServer(t, serverOptions{})
	for _, body := range []string{
		`{"scheme":"edbp"}`,                // missing app
		`{"app":"crc32","scheme":"bogus"}`, // unknown scheme
		`{"app":"crc32","trace":"Lunar"}`,  // unknown energy trace
		`not json`,
	} {
		var e struct {
			Error string `json:"error"`
		}
		if code := doJSON(t, "POST", ts.URL+"/run", body, &e); code != http.StatusBadRequest {
			t.Errorf("POST %s = %d, want 400", body, code)
		}
		if e.Error == "" {
			t.Errorf("POST %s: missing error message", body)
		}
	}
}

// TestRunAsync drives a job through the queue: 202 with an id, then
// GET /jobs/{id} until done, with the same Result JSON as the sync path.
func TestRunAsync(t *testing.T) {
	_, ts := testServer(t, serverOptions{workers: 1})

	var j jobView
	code := doJSON(t, "POST", ts.URL+"/run?async=1", `{"app":"crc32","scheme":"baseline","scale":0.05}`, &j)
	if code != http.StatusAccepted {
		t.Fatalf("POST /run?async=1 = %d, want 202", code)
	}
	if j.ID == "" || (j.Status != "queued" && j.Status != "running") {
		t.Fatalf("bad job snapshot: %+v", j)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		var got jobView
		if code := doJSON(t, "GET", ts.URL+"/jobs/"+j.ID, "", &got); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", j.ID, code)
		}
		if got.Status == "done" {
			if got.Result == nil || got.Result.Instructions == 0 {
				t.Fatalf("done job has no result: %+v", got)
			}
			break
		}
		if got.Status == "failed" {
			t.Fatalf("job failed: %s", got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", got.Status)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Malformed ids are client errors; well-formed-but-unknown ids are 404
	// (TestJobIDResponseCodes pins the full matrix).
	if code := doJSON(t, "GET", ts.URL+"/jobs/nope", "", nil); code != http.StatusBadRequest {
		t.Errorf("GET /jobs/nope = %d, want 400", code)
	}
}

// TestQueueBound freezes the single worker (holdJobs gate) so the depth-1
// queue fills deterministically: worker holds job 1, job 2 queues, and
// every further submission is a 503 until the gate opens.
func TestQueueBound(t *testing.T) {
	gate := make(chan struct{})
	s, ts := testServer(t, serverOptions{queueDepth: 1, workers: 1, holdJobs: gate})
	defer close(gate)

	submit := func(i int) int {
		body := fmt.Sprintf(`{"app":"crc32","scheme":"baseline","scale":0.05,"seed":%d}`, i+1)
		return doJSON(t, "POST", ts.URL+"/run?async=1", body, nil)
	}
	// Job 1 lands in the queue; the worker dequeues it and parks on the
	// gate. Job 2 may either queue immediately or race the dequeue, so
	// wait until the queue slot is actually occupied.
	if code := submit(0); code != http.StatusAccepted {
		t.Fatalf("submit 0 = %d", code)
	}
	if code := submit(1); code != http.StatusAccepted {
		t.Fatalf("submit 1 = %d", code)
	}
	deadline := time.Now().Add(10 * time.Second)
	for len(s.queue) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queue never filled")
		}
		time.Sleep(time.Millisecond)
	}
	for i := 2; i < 5; i++ {
		if code := submit(i); code != http.StatusServiceUnavailable {
			t.Errorf("submit %d = %d, want 503 while the queue is full", i, code)
		}
	}
	if s.met.queueFull.Value() == 0 {
		t.Error("edbpd_queue_full_total not incremented")
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

// TestDrain: draining flips healthz to 503, rejects new runs, and finishes
// queued jobs before returning.
func TestDrain(t *testing.T) {
	s := newServer(serverOptions{workers: 1})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var j jobView
	if code := doJSON(t, "POST", ts.URL+"/run?async=1", `{"app":"crc32","scheme":"baseline","scale":0.05}`, &j); code != http.StatusAccepted {
		t.Fatalf("submit = %d", code)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	if code := doJSON(t, "GET", ts.URL+"/healthz", "", nil); code != http.StatusServiceUnavailable {
		t.Errorf("healthz while drained = %d, want 503", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/run", `{"app":"crc32"}`, nil); code != http.StatusServiceUnavailable {
		t.Errorf("POST /run while drained = %d, want 503", code)
	}

	// The queued job must have completed, not been dropped.
	var got jobView
	doJSON(t, "GET", ts.URL+"/jobs/"+j.ID, "", &got)
	if got.Status != "done" {
		t.Errorf("queued job finished as %q, want done", got.Status)
	}

	// Drain is idempotent.
	if err := s.Drain(ctx); err != nil {
		t.Errorf("second drain: %v", err)
	}
}

// sseEvent is one event of a Server-Sent Events response.
type sseEvent struct {
	name string
	data []byte
}

// postStream sends POST /run?stream=1 under ctx. It returns the status,
// the events of a 200 stream in order, and the error JSON of any other
// status.
func postStream(ctx context.Context, url, body string) (int, []sseEvent, cluster.ErrorBody, error) {
	var e cluster.ErrorBody
	req, err := http.NewRequestWithContext(ctx, "POST", url+"/run?stream=1", strings.NewReader(body))
	if err != nil {
		return 0, nil, e, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, nil, e, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		err := json.NewDecoder(resp.Body).Decode(&e)
		return resp.StatusCode, nil, e, err
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		return resp.StatusCode, nil, e, fmt.Errorf("Content-Type %q", ct)
	}
	var events []sseEvent
	cluster.ParseSSE(resp.Body, func(name string, data []byte) {
		events = append(events, sseEvent{name, data})
	})
	return resp.StatusCode, events, e, nil
}

// terminalFrame checks a run stream's grammar — gauge frames, then exactly
// one terminal frame — and returns the terminal frame and the gauge count.
func terminalFrame(t *testing.T, events []sseEvent) (sseEvent, int) {
	t.Helper()
	if len(events) == 0 {
		t.Fatal("empty run stream")
	}
	for _, ev := range events[:len(events)-1] {
		if ev.name != "gauge" {
			t.Fatalf("%q frame before the end of the stream: %v", ev.name, events)
		}
	}
	last := events[len(events)-1]
	if last.name != "result" && last.name != "error" {
		t.Fatalf("stream ends with %q, want result or error", last.name)
	}
	return last, len(events) - 1
}

// TestRunStream drives POST /run?stream=1: fresh runs stream gauge frames
// and then their Result, a cache hit streams just the Result, a bad body
// is a coded 400, and a streamed job leaves s.jobs once its stream ends
// while an async job is kept for GET /jobs/{id}.
func TestRunStream(t *testing.T) {
	s, ts := testServer(t, serverOptions{workers: 1})
	ctx := context.Background()
	run := func(seed int) (runOutput, int) {
		t.Helper()
		body := fmt.Sprintf(`{"app":"crc32","scheme":"edbp","scale":0.05,"seed":%d}`, seed)
		code, events, _, err := postStream(ctx, ts.URL, body)
		if err != nil || code != http.StatusOK {
			t.Fatalf("POST /run?stream=1 = %d, %v", code, err)
		}
		last, gauges := terminalFrame(t, events)
		if last.name != "result" {
			t.Fatalf("stream ended with %s %s", last.name, last.data)
		}
		var out runOutput
		if err := json.Unmarshal(last.data, &out); err != nil {
			t.Fatalf("bad result frame %s: %v", last.data, err)
		}
		return out, gauges
	}
	const n = 3
	for seed := 1; seed <= n; seed++ {
		out, gauges := run(seed)
		if out.Instructions == 0 || out.App != "crc32" || out.CacheHit {
			t.Errorf("seed %d: implausible result %+v", seed, out)
		}
		if gauges == 0 {
			t.Errorf("seed %d: a fresh run streamed no gauge frame", seed)
		}
	}
	if out, gauges := run(1); !out.CacheHit || gauges != 0 {
		t.Errorf("repeated config: cache_hit=%v with %d gauge frames, want a bare cached result", out.CacheHit, gauges)
	}
	left := 0
	s.jobs.Range(func(_, _ any) bool { left++; return true })
	if left != 0 {
		t.Errorf("%d streamed jobs still held after %d finished streams", left, n+1)
	}

	var j jobView
	if code := doJSON(t, "POST", ts.URL+"/run?async=1", `{"app":"crc32","scheme":"edbp","scale":0.05,"seed":9}`, &j); code != http.StatusAccepted {
		t.Fatalf("async submit = %d", code)
	}
	waitForJob(t, ts.URL, j.ID)
	if _, ok := s.jobs.Load(j.ID); !ok {
		t.Error("a finished async job was freed; GET /jobs/{id} needs it")
	}

	code, _, e, err := postStream(ctx, ts.URL, `not json`)
	if err != nil || code != http.StatusBadRequest || e.Code != cluster.CodeBadRequest || e.Error == "" {
		t.Errorf("bad stream body = %d %+v (%v), want 400 with code %q", code, e, err, cluster.CodeBadRequest)
	}
}

// TestRunStreamErrorFrames pins the coded failures of a streamed run: a
// run past its deadline ends in a "timeout" error frame; with the worker
// frozen, a full queue is a queue_full 503 and a draining server a
// draining 503, each with Retry-After; and runs a drain gives up on end in
// a "drain_aborted" error frame.
func TestRunStreamErrorFrames(t *testing.T) {
	ctx := context.Background()
	body := func(seed int) string {
		return fmt.Sprintf(`{"app":"crc32","scheme":"baseline","scale":0.05,"seed":%d}`, seed)
	}
	errorFrame := func(events []sseEvent) cluster.ErrorBody {
		t.Helper()
		last, _ := terminalFrame(t, events)
		var e cluster.ErrorBody
		if last.name != "error" || json.Unmarshal(last.data, &e) != nil {
			t.Fatalf("stream ended with %s %s, want an error frame", last.name, last.data)
		}
		return e
	}

	_, hasty := testServer(t, serverOptions{workers: 1, runTimeout: time.Nanosecond})
	code, events, _, err := postStream(ctx, hasty.URL, body(1))
	if err != nil || code != http.StatusOK {
		t.Fatalf("POST /run?stream=1 = %d, %v", code, err)
	}
	if e := errorFrame(events); e.Code != cluster.CodeTimeout {
		t.Errorf("timed-out run's error frame = %+v, want code %q", e, cluster.CodeTimeout)
	}

	gate := make(chan struct{})
	s, ts := testServer(t, serverOptions{queueDepth: 1, workers: 1, holdJobs: gate})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // before the server's own cleanup drains it
	type streamed struct {
		code   int
		events []sseEvent
		err    error
	}
	pending := make(chan streamed, 2)
	for seed := 1; seed <= 2; seed++ {
		go func(seed int) {
			code, events, _, err := postStream(ctx, ts.URL, body(seed))
			pending <- streamed{code, events, err}
		}(seed)
	}
	// One job parks in the frozen worker, the other fills the queue.
	for deadline := time.Now().Add(10 * time.Second); ; time.Sleep(time.Millisecond) {
		held := 0
		s.jobs.Range(func(_, _ any) bool { held++; return true })
		if held == 2 && len(s.queue) == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("streamed jobs never filled the worker and queue (%d held)", held)
		}
	}
	refuse := func(want string) {
		t.Helper()
		resp, err := http.Post(ts.URL+"/run?stream=1", "application/json", strings.NewReader(body(3)))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var e cluster.ErrorBody
		json.NewDecoder(resp.Body).Decode(&e)
		if resp.StatusCode != http.StatusServiceUnavailable || e.Code != want || resp.Header.Get("Retry-After") == "" {
			t.Errorf("refused stream = %d %+v (Retry-After %q), want 503 with code %q",
				resp.StatusCode, e, resp.Header.Get("Retry-After"), want)
		}
	}
	refuse(cluster.CodeQueueFull)

	dctx, cancel := context.WithTimeout(ctx, 50*time.Millisecond)
	err = s.Drain(dctx)
	cancel()
	if err == nil {
		t.Fatal("drain with a frozen worker returned nil")
	}
	refuse(cluster.CodeDraining)
	for i := 0; i < 2; i++ {
		r := <-pending
		if r.err != nil || r.code != http.StatusOK {
			t.Fatalf("pending stream = %d, %v", r.code, r.err)
		}
		if e := errorFrame(r.events); e.Code != cluster.CodeDrainAborted {
			t.Errorf("drain-aborted run's error frame = %+v, want code %q", e, cluster.CodeDrainAborted)
		}
	}
}

// TestRunStreamClientGone: a streamed run belongs to its request. When the
// client leaves while the job is queued, the job is dropped from s.jobs
// and never simulated.
func TestRunStreamClientGone(t *testing.T) {
	gate := make(chan struct{})
	s, ts := testServer(t, serverOptions{workers: 1, holdJobs: gate})
	release := sync.OnceFunc(func() { close(gate) })
	t.Cleanup(release) // before the server's own cleanup drains it

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	code, events, _, err := postStream(ctx, ts.URL, `{"app":"crc32","scheme":"baseline","scale":0.05}`)
	cancel()
	if err != nil || code != http.StatusOK || len(events) != 0 {
		t.Fatalf("stream of a frozen job = %d %v (%v), want 200 and no frame before the client gave up", code, events, err)
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
