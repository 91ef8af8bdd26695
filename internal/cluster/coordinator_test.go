package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edbp/internal/obs"
)

// stubWorker emulates the slice of edbpd's surface the coordinator uses:
// POST /run?stream=1, answered with gauge frames and one terminal frame.
// Every other request is logged and answered 404.
type stubWorker struct {
	id string
	ts *httptest.Server

	runDelay      time.Duration
	failCode      string       // non-empty: every run ends in an error frame with this code
	cutStream     bool         // every stream ends without a complete terminal frame
	queueFullLeft atomic.Int32 // respond 503 queue_full this many times
	runs          atomic.Int32 // runs actually executed

	mu       sync.Mutex
	requests []string // "METHOD /path" of every request, in arrival order

	lastTraceparent atomic.Value // last traceparent header seen on /run
}

func newStubWorker(t *testing.T, id string) *stubWorker {
	t.Helper()
	w := &stubWorker{id: id}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /run", w.handleRun)
	mux.HandleFunc("/", func(rw http.ResponseWriter, r *http.Request) {
		w.logRequest(r)
		rw.WriteHeader(http.StatusNotFound)
	})
	w.ts = httptest.NewServer(mux)
	t.Cleanup(w.ts.Close)
	return w
}

func (w *stubWorker) node() Node { return Node{ID: w.id, URL: w.ts.URL} }

func (w *stubWorker) logRequest(r *http.Request) {
	w.mu.Lock()
	w.requests = append(w.requests, r.Method+" "+r.URL.Path)
	w.mu.Unlock()
}

func (w *stubWorker) requestLog() []string {
	w.mu.Lock()
	defer w.mu.Unlock()
	return append([]string(nil), w.requests...)
}

func writeStubError(rw http.ResponseWriter, status int, code, msg string) {
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(ErrorBody{Error: msg, Code: code})
}

func (w *stubWorker) handleRun(rw http.ResponseWriter, r *http.Request) {
	w.logRequest(r)
	w.lastTraceparent.Store(r.Header.Get("traceparent"))
	if r.URL.Query().Get("stream") == "" {
		writeStubError(rw, http.StatusBadRequest, CodeBadRequest, "stub serves only ?stream=1")
		return
	}
	if w.queueFullLeft.Load() > 0 {
		w.queueFullLeft.Add(-1)
		writeStubError(rw, http.StatusServiceUnavailable, CodeQueueFull, "queue full (1 deep)")
		return
	}
	var req map[string]any
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeStubError(rw, http.StatusBadRequest, CodeBadRequest, "bad body")
		return
	}
	fl := rw.(http.Flusher)
	rw.Header().Set("Content-Type", "text/event-stream")
	rw.WriteHeader(http.StatusOK)
	fl.Flush()

	done := time.After(w.runDelay)
	tick := time.NewTicker(2 * time.Millisecond)
	defer tick.Stop()
	seq := 0
	for running := true; running; {
		select {
		case <-r.Context().Done():
			return
		case <-done:
			running = false
		case <-tick.C:
			seq++
			fmt.Fprintf(rw, "event: gauge\ndata: {\"node\":%q,\"seq\":%d}\n\n", w.id, seq)
			fl.Flush()
		}
	}
	w.runs.Add(1)
	fmt.Fprintf(rw, "event: gauge\ndata: {\"node\":%q,\"seq\":%d,\"final\":true}\n\n", w.id, seq+1)
	result, _ := json.Marshal(map[string]any{"node": w.id, "app": req["app"], "seed": req["seed"]})
	switch {
	case w.cutStream:
		// The connection drops mid-frame: the result's blank line never
		// arrives.
		fmt.Fprintf(rw, "event: result\ndata: %s\n", result)
	case w.failCode != "":
		data, _ := json.Marshal(ErrorBody{Error: "stub simulation exploded", Code: w.failCode})
		fmt.Fprintf(rw, "event: error\ndata: %s\n\n", data)
	default:
		fmt.Fprintf(rw, "event: result\ndata: %s\n\n", result)
	}
	fl.Flush()
}

func testFleet(t *testing.T, n int) (*Coordinator, []*stubWorker) {
	t.Helper()
	m := NewMembership(0, 16)
	workers := make([]*stubWorker, n)
	for i := range workers {
		workers[i] = newStubWorker(t, fmt.Sprintf("w%d", i+1))
		m.Join(workers[i].node())
	}
	c := &Coordinator{Members: m, SubmitBackoff: 2 * time.Millisecond}
	return c, workers
}

func findWorker(workers []*stubWorker, id string) *stubWorker {
	for _, w := range workers {
		if w.id == id {
			return w
		}
	}
	return nil
}

// TestExecuteRoutesByRing: the same key always lands on its ring owner.
func TestExecuteRoutesByRing(t *testing.T) {
	c, workers := testFleet(t, 3)
	body := []byte(`{"app":"crc32","seed":1}`)
	owner, ok := c.Members.Owner("some-config-hash", nil)
	if !ok {
		t.Fatal("no owner")
	}
	for i := 0; i < 3; i++ {
		raw, node, attempts, err := c.Execute(context.Background(), "some-config-hash", body, nil)
		if err != nil {
			t.Fatalf("execute: %v", err)
		}
		if attempts != 1 {
			t.Fatalf("run %d took %d attempts on a healthy fleet", i, attempts)
		}
		if node != owner.ID {
			t.Fatalf("run %d landed on %s, ring owner is %s", i, node, owner.ID)
		}
		var res struct {
			Node string `json:"node"`
		}
		if json.Unmarshal(raw, &res) != nil || res.Node != owner.ID {
			t.Fatalf("result %s not from owner %s", raw, owner.ID)
		}
	}
	if n := findWorker(workers, owner.ID).runs.Load(); n != 3 {
		t.Errorf("owner ran %d jobs, want 3", n)
	}
}

// TestExecuteRetryWithExclusion: killing the owner mid-fleet re-routes the
// run to the next ring member and marks the dead node.
func TestExecuteRetryWithExclusion(t *testing.T) {
	reg := obs.NewRegistry()
	c, workers := testFleet(t, 3)
	c.Metrics = &Metrics{
		Dispatches: reg.CounterVec("dispatch_total", "", "node"),
		Retries:    reg.Counter("retries_total", ""),
		Deaths:     reg.Counter("deaths_total", ""),
	}
	key := "dead-owner-key"
	owner, _ := c.Members.Owner(key, nil)
	findWorker(workers, owner.ID).ts.Close() // the owner is gone before dispatch

	raw, node, attempts, err := c.Execute(context.Background(), key, []byte(`{"app":"aes","seed":2}`), nil)
	if err != nil {
		t.Fatalf("execute after owner death: %v", err)
	}
	if node == owner.ID {
		t.Fatalf("run still reported dead owner %s", node)
	}
	if attempts != 2 {
		t.Errorf("attempts = %d, want 2 (dead owner, then fallback)", attempts)
	}
	var res struct {
		Node string `json:"node"`
	}
	if json.Unmarshal(raw, &res) != nil || res.Node != node {
		t.Fatalf("result %s not from fallback %s", raw, node)
	}
	if got := c.Metrics.Deaths.Value(); got != 1 {
		t.Errorf("deaths = %g, want 1", got)
	}
	if got := c.Metrics.Retries.Value(); got != 1 {
		t.Errorf("retries = %g, want 1", got)
	}
	// The dead node no longer owns anything.
	if n, ok := c.Members.Owner(key, nil); !ok || n.ID == owner.ID {
		t.Errorf("dead node still routable: %+v ok=%v", n, ok)
	}
}

// TestExecuteQueueFullBackoff: a queue_full 503 is a busy shard owner, not
// a dead one — the coordinator backs off and resubmits to the same node.
func TestExecuteQueueFullBackoff(t *testing.T) {
	c, workers := testFleet(t, 2)
	c.Metrics = &Metrics{Deaths: obs.NewRegistry().Counter("deaths_total", "")}
	key := "busy-key"
	owner, _ := c.Members.Owner(key, nil)
	busy := findWorker(workers, owner.ID)
	busy.queueFullLeft.Store(3)

	_, node, attempts, err := c.Execute(context.Background(), key, []byte(`{"app":"fft"}`), nil)
	if err != nil {
		t.Fatalf("execute through full queue: %v", err)
	}
	if node != owner.ID || attempts != 1 {
		t.Fatalf("queue-full run ended on %s after %d attempts; must stay on owner %s in one", node, attempts, owner.ID)
	}
	if got := len(busy.requestLog()); got != 4 {
		t.Errorf("owner saw %d POST /run, want 4 (3 refused, 1 run)", got)
	}
	if got := c.Metrics.Deaths.Value(); got != 0 {
		t.Errorf("deaths = %g, want 0: a busy owner is alive", got)
	}
}

// TestExecuteTerminalFailure: a failed simulation is not retried on other
// workers — the config would fail there identically.
func TestExecuteTerminalFailure(t *testing.T) {
	c, workers := testFleet(t, 2)
	for _, w := range workers {
		w.failCode = CodeRunFailed
	}
	_, _, _, err := c.Execute(context.Background(), "some-key", []byte(`{"app":"crc32"}`), nil)
	var term *TerminalError
	if err == nil || !errors.As(err, &term) {
		t.Fatalf("err = %v, want TerminalError", err)
	}
	total := workers[0].runs.Load() + workers[1].runs.Load()
	if total != 1 {
		t.Errorf("failed run executed %d times, want exactly 1 (no cross-worker retry)", total)
	}
}

// TestExecuteErrorFrameTerminal: an "error" frame with a config code is a
// *TerminalError carrying that code, and no other worker is asked.
func TestExecuteErrorFrameTerminal(t *testing.T) {
	c, workers := testFleet(t, 3)
	key := "bad-config-key"
	owner, _ := c.Members.Owner(key, nil)
	findWorker(workers, owner.ID).failCode = CodeBadRequest

	_, node, attempts, err := c.Execute(context.Background(), key, []byte(`{"app":"crc32"}`), nil)
	var term *TerminalError
	if !errors.As(err, &term) {
		t.Fatalf("err = %v, want TerminalError", err)
	}
	if term.Code != CodeBadRequest || term.Node != owner.ID {
		t.Errorf("TerminalError = %+v, want code %q from %s", term, CodeBadRequest, owner.ID)
	}
	if node != owner.ID || attempts != 1 {
		t.Errorf("node=%s attempts=%d, want %s/1", node, attempts, owner.ID)
	}
	for _, w := range workers {
		if w.id != owner.ID && len(w.requestLog()) != 0 {
			t.Errorf("%s was asked %v after a terminal error frame", w.id, w.requestLog())
		}
	}
	if n, ok := c.Members.Owner(key, nil); !ok || n.ID != owner.ID {
		t.Errorf("owner after a terminal error = %+v ok=%v, want %s still routable", n, ok, owner.ID)
	}
}

// TestExecuteStreamCut: a stream that ends before its terminal frame is
// complete is the worker's failure — it is marked dead and the next ring
// owner runs the cell.
func TestExecuteStreamCut(t *testing.T) {
	reg := obs.NewRegistry()
	c, workers := testFleet(t, 3)
	c.Metrics = &Metrics{Deaths: reg.Counter("deaths_total", ""), Retries: reg.Counter("retries_total", "")}
	key := "cut-stream-key"
	owner, _ := c.Members.Owner(key, nil)
	victim := findWorker(workers, owner.ID)
	victim.cutStream = true
	next, _ := c.Members.Owner(key, map[string]bool{owner.ID: true})

	raw, node, attempts, err := c.Execute(context.Background(), key, []byte(`{"app":"aes","seed":3}`), nil)
	if err != nil {
		t.Fatalf("execute after a cut stream: %v", err)
	}
	if node != next.ID || attempts != 2 {
		t.Fatalf("node=%s attempts=%d, want the next ring owner %s on attempt 2", node, attempts, next.ID)
	}
	var res struct {
		Node string `json:"node"`
	}
	if json.Unmarshal(raw, &res) != nil || res.Node != next.ID {
		t.Fatalf("result %s not from %s: the truncated result frame leaked through", raw, next.ID)
	}
	if victim.runs.Load() != 1 || len(victim.requestLog()) != 1 {
		t.Errorf("victim ran %d times over %v, want one POST /run", victim.runs.Load(), victim.requestLog())
	}
	if c.Metrics.Deaths.Value() != 1 || c.Metrics.Retries.Value() != 1 {
		t.Errorf("deaths=%g retries=%g, want 1 and 1", c.Metrics.Deaths.Value(), c.Metrics.Retries.Value())
	}
	if n, ok := c.Members.Owner(key, nil); !ok || n.ID == owner.ID {
		t.Errorf("worker with the cut stream still owns the key: %+v ok=%v", n, ok)
	}
}

// TestClassify pins the coordinator's response to every status and code
// pair a worker (or something in front of it) can answer with. Status 200
// stands for a run stream's "error" frame.
func TestClassify(t *testing.T) {
	cases := []struct {
		status int
		code   string
		want   disposition
	}{
		{http.StatusServiceUnavailable, CodeQueueFull, backOff},
		{http.StatusServiceUnavailable, CodeDraining, retryElsewhere},
		{http.StatusServiceUnavailable, CodeNoWorkers, retryElsewhere},
		{http.StatusServiceUnavailable, "", retryElsewhere}, // a proxy in between
		{http.StatusBadGateway, "", retryElsewhere},
		{http.StatusInternalServerError, CodeInternal, retryElsewhere},
		{http.StatusInternalServerError, CodeRunFailed, giveUp},
		{http.StatusInternalServerError, "", retryElsewhere},
		{http.StatusGatewayTimeout, CodeTimeout, giveUp},
		{http.StatusBadRequest, CodeBadRequest, giveUp},
		{http.StatusBadRequest, "", giveUp},
		{http.StatusNotFound, CodeNotFound, giveUp},
		{http.StatusUnprocessableEntity, CodeBadRequest, giveUp},
		{http.StatusOK, CodeRunFailed, giveUp},
		{http.StatusOK, CodeTimeout, giveUp},
		{http.StatusOK, CodeBadRequest, giveUp},
		{http.StatusOK, CodeDrainAborted, retryElsewhere},
	}
	for _, tc := range cases {
		if got := classify(tc.status, tc.code); got != tc.want {
			t.Errorf("classify(%d, %q) = %d, want %d", tc.status, tc.code, got, tc.want)
		}
	}
}

// TestExecuteOneRequestPerCell: every dispatched grid cell is exactly one
// POST /run — no job polls, no separate stream.
func TestExecuteOneRequestPerCell(t *testing.T) {
	c, workers := testFleet(t, 2)
	entries := make([]GridEntry, 8)
	for i := range entries {
		entries[i] = GridEntry{Key: fmt.Sprintf("cell-%d", i), Body: []byte(fmt.Sprintf(`{"app":"crc32","seed":%d}`, i+1))}
	}
	g := c.StartGrid(context.Background(), "grid-1", entries, nil)
	<-g.Done()
	if sum := g.Summary(); sum.Done != len(entries) {
		t.Fatalf("grid = %+v, want %d done", sum, len(entries))
	}
	total := 0
	for _, w := range workers {
		for _, req := range w.requestLog() {
			if req != "POST /run" {
				t.Errorf("%s saw %q; a cell must make no request but POST /run", w.id, req)
			}
			total++
		}
	}
	if total != len(entries) {
		t.Errorf("fleet saw %d requests for %d cells, want one each", total, len(entries))
	}
}

// TestExecuteNoWorkers: an empty fleet is ErrNoWorkers, the signal for
// local fallback.
func TestExecuteNoWorkers(t *testing.T) {
	c := &Coordinator{Members: NewMembership(0, 16)}
	_, _, _, err := c.Execute(context.Background(), "k", []byte(`{}`), nil)
	if err != ErrNoWorkers {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// TestGridFanIn: a sharded grid completes every entry, relays gauge frames
// wrapped with node+key provenance, emits one entry event per cell, and
// terminates the hub with a done summary.
func TestGridFanIn(t *testing.T) {
	c, workers := testFleet(t, 2)
	for _, w := range workers {
		w.runDelay = 10 * time.Millisecond
	}
	entries := make([]GridEntry, 6)
	for i := range entries {
		entries[i] = GridEntry{
			Key:  fmt.Sprintf("hash-%d", i),
			Body: []byte(fmt.Sprintf(`{"app":"crc32","seed":%d}`, i+1)),
		}
	}
	var results sync.Map
	g := c.StartGrid(context.Background(), "grid-1", entries, func(key string, res json.RawMessage) {
		results.Store(key, res)
	})
	ch, cancel := g.Subscribe()
	defer cancel()

	var gauges, entryEvents, doneEvents int
	timeout := time.After(10 * time.Second)
	for {
		var ev Event
		var open bool
		select {
		case ev, open = <-ch:
		case <-timeout:
			t.Fatal("grid stream never finished")
		}
		if !open {
			goto finished
		}
		switch ev.Type {
		case "gauge":
			var env gaugeEnvelope
			if err := json.Unmarshal(ev.Data, &env); err != nil || env.Node == "" || env.Key == "" || len(env.Gauge) == 0 {
				t.Fatalf("bad gauge envelope %s: %v", ev.Data, err)
			}
			gauges++
		case "entry":
			var st EntryStatus
			if err := json.Unmarshal(ev.Data, &st); err != nil || st.Status != "done" {
				t.Fatalf("bad entry event %s: %v", ev.Data, err)
			}
			entryEvents++
		case "done":
			var sum GridSummary
			if err := json.Unmarshal(ev.Data, &sum); err != nil || sum.Done != 6 || sum.Failed != 0 {
				t.Fatalf("bad done summary %s: %v", ev.Data, err)
			}
			doneEvents++
		}
	}
finished:
	<-g.Done()
	if gauges == 0 {
		t.Error("no gauge frames relayed")
	}
	if entryEvents != 6 || doneEvents != 1 {
		t.Errorf("entry events = %d, done events = %d; want 6 and 1", entryEvents, doneEvents)
	}
	for _, st := range g.Snapshot() {
		if st.Status != "done" || st.Node == "" {
			t.Errorf("entry %s finished %q on %q", st.Key, st.Status, st.Node)
		}
		if _, ok := results.Load(st.Key); !ok {
			t.Errorf("onResult never saw %s", st.Key)
		}
	}
	// Shard exclusivity: every key's node must equal its ring owner.
	for _, st := range g.Snapshot() {
		owner, _ := c.Members.Owner(st.Key, nil)
		if st.Node != owner.ID {
			t.Errorf("entry %s ran on %s, ring owner is %s", st.Key, st.Node, owner.ID)
		}
	}
}

// TestWorkerLoop: the worker joins, heartbeats, re-joins after the
// coordinator forgets it, and leaves cleanly.
func TestWorkerLoop(t *testing.T) {
	var mu sync.Mutex
	joins, beats, leaves := 0, 0, 0
	forget := true // answer the first heartbeat 404 to force a re-join
	mux := http.NewServeMux()
	mux.HandleFunc("POST /cluster/join", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		joins++
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /cluster/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		beats++
		if forget {
			forget = false
			mu.Unlock()
			w.WriteHeader(http.StatusNotFound)
			return
		}
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
	mux.HandleFunc("POST /cluster/leave", func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		leaves++
		mu.Unlock()
		w.WriteHeader(http.StatusOK)
	})
	ts := httptest.NewServer(mux)
	defer ts.Close()

	w := &Worker{
		Node:           Node{ID: "w1", URL: "http://127.0.0.1:0"},
		CoordinatorURL: ts.URL,
		Heartbeat:      5 * time.Millisecond,
	}
	ctx, cancel := context.WithCancel(context.Background())
	loopDone := make(chan struct{})
	go func() { defer close(loopDone); w.Run(ctx) }()

	deadline := time.Now().Add(5 * time.Second)
	for {
		mu.Lock()
		ok := joins >= 2 && beats >= 2
		mu.Unlock()
		if ok {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker loop stuck: joins=%d beats=%d", joins, beats)
		}
		time.Sleep(time.Millisecond)
	}
	cancel()
	<-loopDone
	if err := w.Leave(context.Background()); err != nil {
		t.Fatalf("leave: %v", err)
	}
	mu.Lock()
	defer mu.Unlock()
	if leaves != 1 {
		t.Errorf("leaves = %d, want 1", leaves)
	}
}

// TestParseSSE: the parser handles multi-field events, default event
// names, and multi-line data, and drops an event cut off before its
// blank line.
func TestParseSSE(t *testing.T) {
	input := "event: gauge\ndata: {\"a\":1}\n\n" +
		"data: plain\n\n" +
		"event: done\ndata: {}\ndata: more\n\n" +
		"event: result\ndata: {\"cut\":true}\n"
	var got []string
	ParseSSE(strings.NewReader(input), func(event string, data []byte) {
		got = append(got, event+"|"+string(data))
	})
	want := []string{`gauge|{"a":1}`, "message|plain", "done|{}\nmore"}
	if len(got) != len(want) {
		t.Fatalf("events = %q, want %q", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d = %q, want %q", i, got[i], want[i])
		}
	}
}

// TestHubLifecycle: cancel and close are idempotent and never deadlock;
// late subscribers to a closed hub get an immediately closed channel.
func TestHubLifecycle(t *testing.T) {
	h := NewHub()
	ch1, cancel1 := h.Subscribe()
	ch2, cancel2 := h.Subscribe()
	h.Emit(Event{Type: "x", Data: []byte("1")})
	if ev := <-ch1; ev.Type != "x" {
		t.Fatalf("sub1 got %+v", ev)
	}
	cancel1()
	cancel1() // idempotent
	if _, open := <-ch1; open {
		t.Fatal("canceled subscriber channel still open")
	}
	if ev := <-ch2; ev.Type != "x" {
		t.Fatalf("sub2 got %+v, want the broadcast x", ev)
	}
	h.Emit(Event{Type: "y", Data: []byte("2")})
	if ev := <-ch2; ev.Type != "y" {
		t.Fatalf("sub2 got %+v", ev)
	}
	h.Close()
	h.Close()
	if _, open := <-ch2; open {
		t.Fatal("closed hub left subscriber open")
	}
	ch3, cancel3 := h.Subscribe()
	if _, open := <-ch3; open {
		t.Fatal("late subscriber to closed hub got an open channel")
	}
	cancel3()
	cancel2()
}
