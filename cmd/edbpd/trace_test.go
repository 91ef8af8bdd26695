package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"edbp/internal/obs"
	"edbp/internal/obs/olog"
	"edbp/internal/span"
	"edbp/internal/store"
)

// fetchSpans GETs a trace endpoint and parses the JSONL body.
func fetchSpans(t *testing.T, url string) []span.Record {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s = %d: %s", url, resp.StatusCode, body)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/x-ndjson" {
		t.Fatalf("trace Content-Type = %q, want application/x-ndjson", ct)
	}
	recs, err := span.ReadJSONL(resp.Body)
	if err != nil {
		t.Fatalf("bad JSONL from %s: %v", url, err)
	}
	return recs
}

func spanAttr(r span.Record, key string) string {
	for _, a := range r.Attrs {
		if a.Key == key {
			return a.Value
		}
	}
	return ""
}

// byName indexes spans by name; fails the test on a duplicate so callers
// can assert exact one-of-each shapes.
func byName(t *testing.T, recs []span.Record) map[string]span.Record {
	t.Helper()
	out := make(map[string]span.Record, len(recs))
	for _, r := range recs {
		if _, dup := out[r.Name]; dup {
			t.Fatalf("duplicate span name %q in %v", r.Name, names(recs))
		}
		out[r.Name] = r
	}
	return out
}

func names(recs []span.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Name
	}
	return out
}

// TestTraceSingleNode drives one fresh run and one cache hit through a
// caller-supplied traceparent and checks the full single-node span tree
// lands on GET /trace: the server span parents run, which parents
// cache-lookup, simulate, and store-append, all in the caller's trace.
func TestTraceSingleNode(t *testing.T) {
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	_, ts := testServer(t, serverOptions{store: st, commit: "test", nodeID: "n1"})

	const parent = "00-0123456789abcdef0123456789abcdef-00f067aa0ba902b7-01"
	req, _ := http.NewRequest("POST", ts.URL+"/run", strings.NewReader(`{"app":"crc32","scheme":"edbp","scale":0.05}`))
	req.Header.Set(span.Header, parent)
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /run = %d", resp.StatusCode)
	}
	echo, ok := span.ParseTraceparent(resp.Header.Get(span.Header))
	if !ok {
		t.Fatalf("response traceparent %q unparsable", resp.Header.Get(span.Header))
	}
	if echo.Trace.String() != "0123456789abcdef0123456789abcdef" {
		t.Fatalf("server left the caller's trace: echoed %s", echo.Trace)
	}

	recs := fetchSpans(t, ts.URL+"/trace?trace="+echo.Trace.String())
	spans := byName(t, recs)
	for _, want := range []string{"POST /run", "run", "cache-lookup", "simulate", "store-append"} {
		if _, ok := spans[want]; !ok {
			t.Fatalf("trace missing %q span; have %v", want, names(recs))
		}
	}
	srvSpan, run := spans["POST /run"], spans["run"]
	if srvSpan.Parent.String() != "00f067aa0ba902b7" {
		t.Errorf("server span parent = %s, want the caller's span 00f067aa0ba902b7", srvSpan.Parent)
	}
	if run.Parent != srvSpan.ID {
		t.Errorf("run parent = %s, want server span %s", run.Parent, srvSpan.ID)
	}
	for _, child := range []string{"cache-lookup", "simulate", "store-append"} {
		if spans[child].Parent != run.ID {
			t.Errorf("%s parent = %s, want run span %s", child, spans[child].Parent, run.ID)
		}
	}
	if got := spanAttr(spans["cache-lookup"], "hit"); got != "false" {
		t.Errorf("fresh run cache-lookup hit = %q, want false", got)
	}
	for _, r := range recs {
		if r.Node != "n1" {
			t.Errorf("span %s node = %q, want n1", r.Name, r.Node)
		}
	}

	// The identical request again: a cache hit records run+cache-lookup
	// but never reaches the simulator or the store.
	req2, _ := http.NewRequest("POST", ts.URL+"/run", strings.NewReader(`{"app":"crc32","scheme":"edbp","scale":0.05}`))
	req2.Header.Set(span.Header, "00-aaaa6789abcdef0123456789abcdef00-00f067aa0ba902b7-01")
	resp2, err := http.DefaultClient.Do(req2)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp2.Body)
	resp2.Body.Close()
	hitRecs := fetchSpans(t, ts.URL+"/trace?trace=aaaa6789abcdef0123456789abcdef00")
	hitSpans := byName(t, hitRecs)
	if got := spanAttr(hitSpans["cache-lookup"], "hit"); got != "true" {
		t.Errorf("replay cache-lookup hit = %q, want true", got)
	}
	if _, simulated := hitSpans["simulate"]; simulated {
		t.Error("cache hit recorded a simulate span")
	}

	// Chrome rendering of the same trace is a structurally valid
	// trace_event document naming the node's process.
	chromeResp, err := http.Get(ts.URL + "/trace?trace=" + echo.Trace.String() + "&format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer chromeResp.Body.Close()
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args,omitempty"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(chromeResp.Body).Decode(&doc); err != nil {
		t.Fatalf("chrome trace undecodable: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Errorf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	slices, named := 0, false
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			slices++
		case "M":
			if ev.Name == "process_name" && ev.Args["name"] == "n1" {
				named = true
			}
		default:
			t.Errorf("unexpected event phase %q", ev.Ph)
		}
	}
	if slices != len(recs) || !named {
		t.Errorf("chrome trace has %d slices (want %d), process named: %v", slices, len(recs), named)
	}
}

// TestTraceEndpointValidation covers the error surface: bad filters and
// formats are 400s, and a -span-off server 404s the whole endpoint.
func TestTraceEndpointValidation(t *testing.T) {
	_, ts := testServer(t, serverOptions{})
	if code := doJSON(t, "GET", ts.URL+"/trace?trace=nothex", "", nil); code != http.StatusBadRequest {
		t.Errorf("bad trace filter = %d, want 400", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/trace?format=svg", "", nil); code != http.StatusBadRequest {
		t.Errorf("bad format = %d, want 400", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/trace", "", nil); code != http.StatusOK {
		t.Errorf("plain /trace = %d, want 200", code)
	}

	_, off := testServer(t, serverOptions{spansOff: true})
	if code := doJSON(t, "GET", off.URL+"/trace", "", nil); code != http.StatusNotFound {
		t.Errorf("/trace with spans off = %d, want 404", code)
	}
}

// TestClusterAssembledTrace is the tentpole acceptance test: a 2-worker
// grid with one worker killed mid-flight yields ONE assembled trace on
// GET /trace/{grid-id} in which the coordinator's grid span parents the
// dispatch attempts — including a failed attempt against the victim and
// a retry excluding it — and the surviving worker's server, queue-wait,
// run, and simulate spans all chain back to the grid root.
func TestClusterAssembledTrace(t *testing.T) {
	coord := newClusterCoordinator(t)
	gate := make(chan struct{})
	victim := newClusterWorker(t, "w1", gate)
	survivor := newClusterWorker(t, "w2", nil)
	defer drainWorker(t, survivor)
	joinWorker(t, coord, "w1", victim.ts.URL)
	joinWorker(t, coord, "w2", survivor.ts.URL)

	victimOwns := 0
	for _, req := range gridRequests(t) {
		if owner, ok := coord.srv.members.Owner(req.key, nil); ok && owner.ID == "w1" {
			victimOwns++
		}
	}
	if victimOwns == 0 {
		t.Skip("ring assigned no cells to the victim; no retry to trace")
	}

	var accepted struct {
		ID string `json:"id"`
	}
	if code := doJSON(t, "POST", coord.ts.URL+"/grid", gridBody, &accepted); code != http.StatusAccepted {
		t.Fatalf("POST /grid = %d", code)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		queued := 0
		victim.srv.jobs.Range(func(_, _ any) bool { queued++; return true })
		if queued >= victimOwns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never received its %d cells", victimOwns)
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.ts.CloseClientConnections()
	victim.ts.Close()
	close(gate)
	defer drainWorker(t, victim)

	var view gridView
	for deadline = time.Now().Add(60 * time.Second); ; {
		if code := doJSON(t, "GET", coord.ts.URL+"/grid/"+accepted.ID, "", &view); code != http.StatusOK {
			t.Fatalf("GET /grid/%s = %d", accepted.ID, code)
		}
		if view.Summary.Done+view.Summary.Failed == view.Summary.Entries {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("grid stuck: %+v", view.Summary)
		}
		time.Sleep(20 * time.Millisecond)
	}
	if view.Summary.Done != 6 || view.Summary.Failed != 0 {
		t.Fatalf("grid = %+v, want 6 done", view.Summary)
	}

	// The grid root span is ended by a goroutine watching g.Done(), so it
	// can land an instant after the summary turns terminal: poll for it.
	var recs []span.Record
	for deadline = time.Now().Add(10 * time.Second); ; {
		recs = fetchSpans(t, coord.ts.URL+"/trace/"+accepted.ID)
		rooted := false
		for _, r := range recs {
			if r.Name == "grid" {
				rooted = true
				break
			}
		}
		if rooted {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("grid root span never recorded: %v", names(recs))
		}
		time.Sleep(5 * time.Millisecond)
	}
	index := make(map[span.SpanID]span.Record, len(recs))
	var grid span.Record
	var dispatches, failed, retries []span.Record
	perNode := map[string]int{}
	for _, r := range recs {
		index[r.ID] = r
		perNode[r.Node]++
		switch r.Name {
		case "grid":
			grid = r
		case "dispatch":
			dispatches = append(dispatches, r)
			if r.Err != "" {
				failed = append(failed, r)
			}
			if strings.Contains(spanAttr(r, "excluded"), "w1") {
				retries = append(retries, r)
			}
		}
	}
	if grid.Name == "" {
		t.Fatalf("no grid span in assembled trace: %v", names(recs))
	}
	if spanAttr(grid, "done") != "6" || spanAttr(grid, "failed") != "0" {
		t.Errorf("grid span summary attrs = done=%q failed=%q",
			spanAttr(grid, "done"), spanAttr(grid, "failed"))
	}
	// One dispatch per attempt: 6 successes plus every failed try.
	if len(dispatches) != 6+len(failed) || len(failed) == 0 {
		t.Errorf("%d dispatch spans with %d failures, want 6+failures and >=1 failure",
			len(dispatches), len(failed))
	}
	if len(retries) == 0 {
		t.Error("no dispatch span carries the excluded=w1 retry marker")
	}
	for _, d := range dispatches {
		if d.Parent != grid.ID {
			t.Errorf("dispatch %s parents %s, want grid %s", spanAttr(d, "key"), d.Parent, grid.ID)
		}
		if d.Trace != grid.Trace {
			t.Errorf("dispatch left the grid trace: %s != %s", d.Trace, grid.Trace)
		}
	}
	if perNode["w2"] == 0 {
		t.Fatalf("no surviving-worker spans in assembled trace; per-node %v", perNode)
	}

	// Walk a surviving worker's run span back to the grid root: run ->
	// worker server span -> (traceparent hop) -> dispatch -> grid.
	walked := 0
	for _, r := range recs {
		if r.Name != "run" || r.Node != "w2" {
			continue
		}
		walked++
		hops := []string{}
		cur := r
		for cur.ID != grid.ID {
			parent, ok := index[cur.Parent]
			if !ok {
				t.Fatalf("run span %s: broken ancestry at %s (path %v)", r.ID, cur.Parent, hops)
			}
			hops = append(hops, parent.Name)
			cur = parent
			if len(hops) > 10 {
				t.Fatalf("run span %s: ancestry runaway %v", r.ID, hops)
			}
		}
		joined := strings.Join(hops, ",")
		if !strings.Contains(joined, "dispatch") || !strings.Contains(joined, "POST /run") {
			t.Errorf("run ancestry %v skips the dispatch or server span", hops)
		}
	}
	if walked != 6 {
		t.Errorf("assembled trace has %d w2 run spans, want 6", walked)
	}
	// queue-wait spans are siblings of runs under each worker server span.
	queueWaits := 0
	for _, r := range recs {
		if r.Name == "queue-wait" && r.Node == "w2" {
			queueWaits++
			if index[r.Parent].Name != "POST /run" {
				t.Errorf("queue-wait parents %q, want the worker server span", index[r.Parent].Name)
			}
		}
	}
	if queueWaits != 6 {
		t.Errorf("%d queue-wait spans, want 6", queueWaits)
	}

	// The same assembly renders as a valid Chrome trace with both
	// processes named.
	chromeResp, err := http.Get(coord.ts.URL + "/trace/" + accepted.ID + "?format=chrome")
	if err != nil {
		t.Fatal(err)
	}
	defer chromeResp.Body.Close()
	var doc struct {
		TraceEvents []struct {
			Ph   string         `json:"ph"`
			Name string         `json:"name"`
			Args map[string]any `json:"args,omitempty"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(chromeResp.Body).Decode(&doc); err != nil {
		t.Fatalf("chrome assembly undecodable: %v", err)
	}
	procs := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "M" && ev.Name == "process_name" {
			procs[fmt.Sprint(ev.Args["name"])] = true
		}
	}
	if !procs["coord"] || !procs["w2"] {
		t.Errorf("chrome processes = %v, want coord and w2", procs)
	}

	if code := doJSON(t, "GET", coord.ts.URL+"/trace/grid-999", "", nil); code != http.StatusNotFound {
		t.Errorf("unknown grid trace = %d, want 404", code)
	}
}

// TestClusterMetricsFederation checks GET /cluster/metrics merges every
// node's series under its node= label and serves a dead worker's last
// scrape marked stale instead of dropping it.
func TestClusterMetricsFederation(t *testing.T) {
	coord := newClusterCoordinator(t)
	w1 := newClusterWorker(t, "w1", nil)
	w2 := newClusterWorker(t, "w2", nil)
	defer drainWorker(t, w1)
	joinWorker(t, coord, "w1", w1.ts.URL)
	joinWorker(t, coord, "w2", w2.ts.URL)

	var view gridView
	if code := doJSON(t, "POST", coord.ts.URL+"/grid?wait=1", gridBody, &view); code != http.StatusOK {
		t.Fatalf("POST /grid?wait=1 = %d", code)
	}

	type fedView struct {
		Nodes  []fedNode            `json:"nodes"`
		Series []obs.SnapshotSeries `json:"series"`
	}
	var fed fedView
	if code := doJSON(t, "GET", coord.ts.URL+"/cluster/metrics", "", &fed); code != http.StatusOK {
		t.Fatalf("GET /cluster/metrics = %d", code)
	}
	nodeByID := map[string]fedNode{}
	for _, n := range fed.Nodes {
		nodeByID[n.ID] = n
	}
	for _, id := range []string{"coord", "w1", "w2"} {
		n, ok := nodeByID[id]
		if !ok || !n.Scraped || n.Stale {
			t.Fatalf("node %s = %+v, want a fresh scrape", id, n)
		}
	}
	runsByNode := map[string]float64{}
	for _, s := range fed.Series {
		if s.Name == "edbpd_runs_ok_total" && s.Value != nil {
			runsByNode[s.Labels["node"]] += *s.Value
		}
	}
	if runsByNode["w1"]+runsByNode["w2"] != 6 {
		t.Errorf("federated runs_ok by node = %v, want w1+w2 = 6", runsByNode)
	}

	// Kill w2: the next federation response serves its cached series,
	// marked stale with the scrape error, instead of losing the node.
	w2.ts.CloseClientConnections()
	w2.ts.Close()
	drainWorker(t, w2)
	var after fedView
	if code := doJSON(t, "GET", coord.ts.URL+"/cluster/metrics", "", &after); code != http.StatusOK {
		t.Fatalf("GET /cluster/metrics after kill = %d", code)
	}
	staleRuns := map[string]float64{}
	for _, s := range after.Series {
		if s.Name == "edbpd_runs_ok_total" && s.Value != nil {
			staleRuns[s.Labels["node"]] += *s.Value
		}
	}
	for _, n := range after.Nodes {
		if n.ID != "w2" {
			continue
		}
		if !n.Stale || n.Error == "" {
			t.Errorf("dead worker node entry = %+v, want stale with an error", n)
		}
	}
	if staleRuns["w2"] != runsByNode["w2"] {
		t.Errorf("stale w2 runs_ok = %g, want cached %g", staleRuns["w2"], runsByNode["w2"])
	}
}

// syncBuffer is a goroutine-safe log sink for asserting on captured
// slog output while the server is still writing.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Test5xxEmitsStructuredLog pins the satellite guarantee: every 5xx
// response produces exactly one structured error line carrying the
// request's trace ID. A drained server's 503 is the deterministic trigger.
func Test5xxEmitsStructuredLog(t *testing.T) {
	sink := &syncBuffer{}
	logger, err := olog.New(olog.Options{Component: "edbpd", Format: "json", Node: "n1", W: sink})
	if err != nil {
		t.Fatal(err)
	}
	s, ts := testServer(t, serverOptions{logger: logger})
	if err := s.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	rejected, err := http.Post(ts.URL+"/run?stream=1", "application/json",
		strings.NewReader(`{"app":"crc32","scheme":"edbp","scale":0.05}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, rejected.Body)
	rejected.Body.Close()
	if rejected.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("stream to a drained server = %d, want 503", rejected.StatusCode)
	}
	tp, ok := span.ParseTraceparent(rejected.Header.Get(span.Header))
	if !ok {
		t.Fatalf("503 response traceparent %q unparsable", rejected.Header.Get(span.Header))
	}

	// The access log write happens just after the response; poll briefly.
	deadline := time.Now().Add(5 * time.Second)
	var line map[string]any
	for line == nil {
		for _, l := range strings.Split(sink.String(), "\n") {
			if !strings.Contains(l, "request failed") || !strings.Contains(l, tp.Trace.String()) {
				continue
			}
			line = map[string]any{}
			if err := json.Unmarshal([]byte(l), &line); err != nil {
				t.Fatalf("error line is not JSON: %q (%v)", l, err)
			}
		}
		if line == nil {
			if time.Now().After(deadline) {
				t.Fatalf("no structured error line for trace %s in:\n%s", tp.Trace, sink.String())
			}
			time.Sleep(5 * time.Millisecond)
		}
	}
	if line["level"] != "ERROR" || line["component"] != "edbpd" || line["node"] != "n1" {
		t.Errorf("error line fields = %v", line)
	}
	if line["status"] != float64(http.StatusServiceUnavailable) || line["trace_id"] != tp.Trace.String() {
		t.Errorf("error line status/trace = %v/%v", line["status"], line["trace_id"])
	}
}
