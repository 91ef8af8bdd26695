package main

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"

	"edbp/internal/obs"
	"edbp/internal/obs/obstest"
	"edbp/internal/sim"
	"edbp/internal/trace"
)

// TestMetricsExposition drives a sync run plus a streamed run through the
// server and checks the /metrics contract: the exact Prometheus content
// type, # HELP/# TYPE on every family, and the new registry-backed series
// (histograms, per-config counters, cache misses, ring-drop counters).
func TestMetricsExposition(t *testing.T) {
	_, ts := testServer(t, serverOptions{workers: 1})

	if code := doJSON(t, "POST", ts.URL+"/run", `{"app":"crc32","scheme":"edbp","scale":0.05}`, nil); code != http.StatusOK {
		t.Fatalf("sync run = %d", code)
	}
	code, events, _, err := postStream(context.Background(), ts.URL, `{"app":"crc32","scheme":"baseline","scale":0.05}`)
	if err != nil || code != http.StatusOK {
		t.Fatalf("streamed run = %d, %v", code, err)
	}
	if last, _ := terminalFrame(t, events); last.name != "result" {
		t.Fatalf("streamed run ended with %s %s", last.name, last.data)
	}

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

// TestStreamSSE follows a full-scale POST /run?stream=1: gauge frames with
// strictly increasing ordinals and live capacitor state arrive before the
// result frame, under the run's label. The sampler also flushes the final
// sample, so even a fast run must deliver at least one frame.
func TestStreamSSE(t *testing.T) {
	_, ts := testServer(t, serverOptions{workers: 1})
	// Full-scale run (~1e6 events) so the sampler has time to observe it.
	code, events, _, err := postStream(context.Background(), ts.URL, `{"app":"crc32","scheme":"edbp","scale":1.0,"seed":77}`)
	if err != nil || code != http.StatusOK {
		t.Fatalf("POST /run?stream=1 = %d, %v", code, err)
	}
	last, gauges := terminalFrame(t, events)
	if last.name != "result" {
		t.Fatalf("stream ended with %s %s", last.name, last.data)
	}
	if gauges == 0 {
		t.Fatal("no gauge frames delivered")
	}
	var frame gaugeFrame
	for i, ev := range events[:gauges] {
		prev := frame.Seq
		if err := json.Unmarshal(ev.data, &frame); err != nil {
			t.Fatalf("bad gauge frame %s: %v", ev.data, err)
		}
		if i > 0 && frame.Seq <= prev {
			t.Errorf("gauge %d: seq %d after %d, want strictly increasing", i, frame.Seq, prev)
		}
	}
	// The last frame must look like a live EDBP run: a charged capacitor
	// and a sample ordinal.
	if frame.Seq == 0 || frame.VoltageV <= 0 {
		t.Errorf("last frame implausible: %+v", frame)
	}
	if frame.Label != "crc32/EDBP/RFHome" {
		t.Errorf("frame label = %q, want crc32/EDBP/RFHome", frame.Label)
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
