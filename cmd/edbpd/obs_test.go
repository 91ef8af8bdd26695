package main

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"edbp/internal/obs"
	"edbp/internal/obs/obstest"
	"edbp/internal/sim"
	"edbp/internal/trace"
)

// TestMetricsExposition drives a sync run plus an async job through the
// server and checks the /metrics contract: the exact Prometheus content
// type, # HELP/# TYPE on every family, and the new registry-backed series
// (histograms, per-config counters, cache misses, ring-drop counters).
func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t, serverOptions{workers: 1})

	if code := doJSON(t, "POST", ts.URL+"/run", `{"app":"crc32","scheme":"edbp","scale":0.05}`, nil); code != http.StatusOK {
		t.Fatalf("sync run = %d", code)
	}
	var j jobView
	if code := doJSON(t, "POST", ts.URL+"/run?async=1", `{"app":"crc32","scheme":"baseline","scale":0.05}`, &j); code != http.StatusAccepted {
		t.Fatalf("async run = %d", code)
	}
	waitForJob(t, ts.URL, j.ID)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != obs.ContentType {
		t.Errorf("Content-Type = %q, want %q", ct, obs.ContentType)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(raw)
	obstest.AssertHelpTypeComplete(t, text)

	for _, want := range []string{
		"edbpd_requests_total",
		"edbpd_runs_ok_total 2",
		"edbpd_cache_misses_total 2",
		`edbpd_runs_by_config_total{app="crc32",scheme="EDBP"} 1`,
		`edbpd_runs_by_config_total{app="crc32",scheme="NVSRAMCache"} 1`,
		`edbpd_run_seconds_bucket{le="+Inf"} 2`,
		"edbpd_run_seconds_count 2",
		"edbpd_run_events_per_second_count 2",
		"edbpd_queue_wait_seconds_count 1",
		`edbpd_trace_events_total{kind="checkpoint"}`,
		`edbpd_trace_dropped_total{ring="events"}`,
		`edbpd_trace_dropped_total{ring="samples"}`,
		"edbpd_queue_depth 0",
		"edbpd_sim_seconds_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("metrics output missing %q", want)
		}
	}
	if t.Failed() {
		t.Logf("full exposition:\n%s", text)
	}
}

// TestMetricsJSONSnapshot: ?format=json serves the registry's snapshot.
func TestMetricsJSONSnapshot(t *testing.T) {
	_, ts := testServer(t, serverOptions{})
	doJSON(t, "POST", ts.URL+"/run", `{"app":"crc32","scheme":"edbp","scale":0.05}`, nil)

	resp, err := http.Get(ts.URL + "/metrics?format=json")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("Content-Type = %q, want application/json", ct)
	}
	var snap []obs.SnapshotSeries
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("snapshot is not valid JSON: %v", err)
	}
	found := false
	for _, s := range snap {
		if s.Name == "edbpd_runs_ok_total" {
			found = true
			if s.Value == nil || *s.Value != 1 {
				t.Errorf("edbpd_runs_ok_total snapshot = %+v, want value 1", s)
			}
		}
		if s.Name == "edbpd_run_seconds" && (s.Count == nil || *s.Count != 1 || len(s.Buckets) == 0) {
			t.Errorf("edbpd_run_seconds snapshot = %+v, want count 1 with buckets", s)
		}
	}
	if !found {
		t.Error("snapshot missing edbpd_runs_ok_total")
	}
}

// waitForJob polls GET /jobs/{id} until done (fails the test on failure
// or timeout).
func waitForJob(t *testing.T, base, id string) *jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var got jobView
		if code := doJSON(t, "GET", base+"/jobs/"+id, "", &got); code != http.StatusOK {
			t.Fatalf("GET /jobs/%s = %d", id, code)
		}
		switch got.Status {
		case "done":
			return &got
		case "failed":
			t.Fatalf("job %s failed: %s", id, got.Error)
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, got.Status)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamSSE submits an async job and follows GET /stream?job=...: at
// least one gauge frame with live capacitor state must arrive while the
// run is in flight, and the stream must close with a done event.
func TestStreamSSE(t *testing.T) {
	_, ts := testServer(t, serverOptions{workers: 1})

	var j jobView
	// Full-scale run (~1e6 events) so the stream has time to observe it;
	// the handler also flushes the final sample, so even a fast run must
	// deliver at least one frame.
	if code := doJSON(t, "POST", ts.URL+"/run?async=1", `{"app":"crc32","scheme":"edbp","scale":1.0,"seed":77}`, &j); code != http.StatusAccepted {
		t.Fatalf("async submit = %d", code)
	}

	resp, err := http.Get(ts.URL + "/stream?job=" + j.ID + "&interval_ms=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /stream = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q, want text/event-stream", ct)
	}

	var (
		frames  int
		sawDone bool
		event   string
		frame   gaugeFrame
	)
	sc := bufio.NewScanner(resp.Body)
	deadline := time.Now().Add(30 * time.Second)
	for sc.Scan() {
		if time.Now().After(deadline) {
			t.Fatal("stream did not finish in time")
		}
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			if event == "gauge" {
				if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &frame); err != nil {
					t.Fatalf("bad gauge frame: %v", err)
				}
				frames++
			}
			if event == "done" {
				sawDone = true
			}
		}
		if sawDone {
			break
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if frames == 0 {
		t.Fatal("no gauge frames delivered")
	}
	if !sawDone {
		t.Error("stream ended without a done event")
	}
	// The last frame must look like a live EDBP run: a charged capacitor
	// and a monotone sample ordinal.
	if frame.Seq == 0 || frame.VoltageV <= 0 {
		t.Errorf("last frame implausible: %+v", frame)
	}
	if frame.Label != "crc32/EDBP/RFHome" {
		t.Errorf("frame label = %q", frame.Label)
	}
	waitForJob(t, ts.URL, j.ID)
}

// TestStreamNoRun: without any run in flight, /stream is a 404; an
// unknown job id is a 404 too.
func TestStreamNoRun(t *testing.T) {
	_, ts := testServer(t, serverOptions{})
	if code := doJSON(t, "GET", ts.URL+"/stream", "", nil); code != http.StatusNotFound {
		t.Errorf("GET /stream with no run = %d, want 404", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/stream?job=nope", "", nil); code != http.StatusNotFound {
		t.Errorf("GET /stream?job=nope = %d, want 404", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/stream?interval_ms=bogus", "", nil); code != http.StatusBadRequest {
		t.Errorf("GET /stream?interval_ms=bogus = %d, want 400", code)
	}
}

// TestStreamIntervalBound: GET /stream takes an interval of at most one
// minute. A huge one used to overflow time.Duration into a negative ticker
// interval, whose panic on the sampler goroutine ended the process once any
// run had started.
func TestStreamIntervalBound(t *testing.T) {
	_, ts := testServer(t, serverOptions{})
	var j jobView
	if code := doJSON(t, "POST", ts.URL+"/run?async=1", `{"app":"crc32","scheme":"baseline","scale":0.05}`, &j); code != http.StatusAccepted {
		t.Fatalf("POST /run?async=1 = %d, want 202", code)
	}
	waitForJob(t, ts.URL, j.ID)
	for _, v := range []string{"60001", "9223372036855"} {
		if code := doJSON(t, "GET", ts.URL+"/stream?job="+j.ID+"&interval_ms="+v, "", nil); code != http.StatusBadRequest {
			t.Errorf("GET /stream?interval_ms=%s = %d, want 400", v, code)
		}
	}
	// The bound itself is accepted: the finished run's stream ends at once.
	if code := doJSON(t, "GET", ts.URL+"/stream?job="+j.ID+"&interval_ms=60000", "", nil); code != http.StatusOK {
		t.Errorf("GET /stream?interval_ms=60000 = %d, want 200", code)
	}
}

// TestPprofGating: /debug/pprof is mounted only when the option is set.
func TestPprofGating(t *testing.T) {
	_, off := testServer(t, serverOptions{})
	for _, path := range []string{"/debug/pprof/", "/debug/pprof/cmdline", "/debug/pprof/profile"} {
		if code := doJSON(t, "GET", off.URL+path, "", nil); code != http.StatusNotFound {
			t.Errorf("GET %s without -pprof = %d, want 404", path, code)
		}
	}

	_, on := testServer(t, serverOptions{pprof: true})
	resp, err := http.Get(on.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/cmdline with -pprof = %d, want 200", resp.StatusCode)
	}
	// A real (1 s) CPU profile must be reachable — the acceptance gate.
	resp, err = http.Get(on.URL + "/debug/pprof/profile?seconds=1")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("GET /debug/pprof/profile with -pprof = %d, want 200 (%s)", resp.StatusCode, body)
	}
}

// TestNilMetricsZeroAllocs pins the disabled-observation contract for the
// run path: with no registry attached, every observation helper the run
// path calls is a no-op with zero allocations.
func TestNilMetricsZeroAllocs(t *testing.T) {
	var m *serverMetrics
	res := &sim.Result{
		WallTime:     1.5,
		Instructions: 1e6,
		TraceSummary: &trace.Summary{Events: 10, Dropped: 2, Samples: 5, SamplesDropped: 1,
			ByKind: make([]uint64, trace.KindCount)},
	}
	if avg := testing.AllocsPerRun(1000, func() {
		m.observeCache(false)
		m.observeCache(true)
		m.observeRun("crc32", "EDBP", res, 0.01)
		m.observeRunError()
	}); avg != 0 {
		t.Errorf("nil serverMetrics observation allocates %.2f times per run, want 0", avg)
	}
}
