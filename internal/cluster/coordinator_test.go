package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"net/http/httptest"
	"strconv"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"edbp/internal/obs"
)

// stubWorker emulates the slice of edbpd's surface the coordinator uses:
// POST /run, answered after runDelay with one JSON body, the Result or
// the error. Every other request is logged and answered 404.
type stubWorker struct {
	id string
	ts *httptest.Server

	runDelay      time.Duration
	failCode      string       // non-empty: every run fails with this code
	cutAnswer     bool         // every result stops short of its Content-Length
	notJSON       bool         // every 200 answer is not JSON
	queueFullLeft atomic.Int32 // respond 503 queue_full this many times
	runs          atomic.Int32 // runs actually executed
	conns         atomic.Int32 // TCP connections accepted

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
	w.ts = httptest.NewUnstartedServer(mux)
	w.ts.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			w.conns.Add(1)
		}
	}
	w.ts.Start()
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

// runErrorStatus is the status edbpd answers a failed run's code with.
var runErrorStatus = map[string]int{
	CodeBadRequest:   http.StatusBadRequest,
	CodeRunFailed:    http.StatusInternalServerError,
	CodeTimeout:      http.StatusGatewayTimeout,
	CodeDrainAborted: http.StatusServiceUnavailable,
}

func (w *stubWorker) handleRun(rw http.ResponseWriter, r *http.Request) {
	w.logRequest(r)
	w.lastTraceparent.Store(r.Header.Get("traceparent"))
	if len(r.URL.Query()) > 0 {
		writeStubError(rw, http.StatusBadRequest, CodeBadRequest, "POST /run takes no query parameter")
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
	select {
	case <-r.Context().Done():
		return
	case <-time.After(w.runDelay):
	}
	w.runs.Add(1)
	if w.failCode != "" {
		writeStubError(rw, runErrorStatus[w.failCode], w.failCode, "stub simulation exploded")
		return
	}
	result, _ := json.Marshal(map[string]any{"node": w.id, "app": req["app"], "seed": req["seed"]})
	switch {
	case w.cutAnswer:
		// The connection drops mid-body: the answer stops short of the
		// length its header declares.
		rw.Header().Set("Content-Length", strconv.Itoa(len(result)))
		rw.WriteHeader(http.StatusOK)
		rw.Write(result[:len(result)/2])
	case w.notJSON:
		rw.WriteHeader(http.StatusOK)
		rw.Write([]byte("<html>upstream reset</html>"))
	default:
		rw.Header().Set("Content-Type", "application/json")
		rw.Write(result)
	}
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
		raw, node, attempts, err := c.Execute(context.Background(), "some-config-hash", body)
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

	raw, node, attempts, err := c.Execute(context.Background(), key, []byte(`{"app":"aes","seed":2}`))
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

	_, node, attempts, err := c.Execute(context.Background(), key, []byte(`{"app":"fft"}`))
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
	_, _, _, err := c.Execute(context.Background(), "some-key", []byte(`{"app":"crc32"}`))
	var term *TerminalError
	if err == nil || !errors.As(err, &term) {
		t.Fatalf("err = %v, want TerminalError", err)
	}
	total := workers[0].runs.Load() + workers[1].runs.Load()
	if total != 1 {
		t.Errorf("failed run executed %d times, want exactly 1 (no cross-worker retry)", total)
	}
}

// TestExecuteErrorFrameTerminal: an error answer with a config code is a
// *TerminalError carrying that code and status, and no other worker is
// asked.
func TestExecuteErrorFrameTerminal(t *testing.T) {
	c, workers := testFleet(t, 3)
	key := "bad-config-key"
	owner, _ := c.Members.Owner(key, nil)
	findWorker(workers, owner.ID).failCode = CodeBadRequest

	_, node, attempts, err := c.Execute(context.Background(), key, []byte(`{"app":"crc32"}`))
	var term *TerminalError
	if !errors.As(err, &term) {
		t.Fatalf("err = %v, want TerminalError", err)
	}
	if term.Code != CodeBadRequest || term.Status != http.StatusBadRequest || term.Node != owner.ID {
		t.Errorf("TerminalError = %+v, want 400 %q from %s", term, CodeBadRequest, owner.ID)
	}
	if node != owner.ID || attempts != 1 {
		t.Errorf("node=%s attempts=%d, want %s/1", node, attempts, owner.ID)
	}
	for _, w := range workers {
		if w.id != owner.ID && len(w.requestLog()) != 0 {
			t.Errorf("%s was asked %v after a terminal error answer", w.id, w.requestLog())
		}
	}
	if n, ok := c.Members.Owner(key, nil); !ok || n.ID != owner.ID {
		t.Errorf("owner after a terminal error = %+v ok=%v, want %s still routable", n, ok, owner.ID)
	}
}

// TestExecuteStreamCut: a 200 answer that is cut short of its
// Content-Length or that is not JSON, like a 503 drain_aborted, is the
// worker's failure — it is marked dead and the next ring owner runs the
// cell. The broken answer never passes for a result.
func TestExecuteStreamCut(t *testing.T) {
	for _, tc := range []struct {
		name    string
		breakIt func(*stubWorker)
	}{
		{"cut", func(w *stubWorker) { w.cutAnswer = true }},
		{"not JSON", func(w *stubWorker) { w.notJSON = true }},
		{"drain aborted", func(w *stubWorker) { w.failCode = CodeDrainAborted }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			reg := obs.NewRegistry()
			c, workers := testFleet(t, 3)
			c.Metrics = &Metrics{Deaths: reg.Counter("deaths_total", ""), Retries: reg.Counter("retries_total", "")}
			key := "cut-answer-key"
			owner, _ := c.Members.Owner(key, nil)
			victim := findWorker(workers, owner.ID)
			tc.breakIt(victim)
			next, _ := c.Members.Owner(key, map[string]bool{owner.ID: true})

			raw, node, attempts, err := c.Execute(context.Background(), key, []byte(`{"app":"aes","seed":3}`))
			if err != nil {
				t.Fatalf("execute after a broken answer: %v", err)
			}
			if node != next.ID || attempts != 2 {
				t.Fatalf("node=%s attempts=%d, want the next ring owner %s on attempt 2", node, attempts, next.ID)
			}
			var res struct {
				Node string `json:"node"`
			}
			if json.Unmarshal(raw, &res) != nil || res.Node != next.ID {
				t.Fatalf("result %s not from %s: the broken answer leaked through", raw, next.ID)
			}
			if victim.runs.Load() != 1 || len(victim.requestLog()) != 1 {
				t.Errorf("victim ran %d times over %v, want one POST /run", victim.runs.Load(), victim.requestLog())
			}
			if c.Metrics.Deaths.Value() != 1 || c.Metrics.Retries.Value() != 1 {
				t.Errorf("deaths=%g retries=%g, want 1 and 1", c.Metrics.Deaths.Value(), c.Metrics.Retries.Value())
			}
			if n, ok := c.Members.Owner(key, nil); !ok || n.ID == owner.ID {
				t.Errorf("worker with the broken answer still owns the key: %+v ok=%v", n, ok)
			}
		})
	}
}

// TestExecuteResultExactSize: the Result bytes Execute returns have no
// spare capacity. A grid keeps every cell's Result, so io.ReadAll's
// 512-byte buffer kept with each would stay resident on the coordinator.
func TestExecuteResultExactSize(t *testing.T) {
	c, _ := testFleet(t, 1)
	raw, _, _, err := c.Execute(context.Background(), "sized-key", []byte(`{"app":"crc32","seed":1}`))
	if err != nil {
		t.Fatalf("execute: %v", err)
	}
	if len(raw) == 0 || cap(raw) != len(raw) {
		t.Errorf("result has len %d and cap %d, want them equal", len(raw), cap(raw))
	}
}

// TestClassify pins the coordinator's response to every status and code
// pair a worker (or something in front of it) can answer with.
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
		{http.StatusServiceUnavailable, CodeDrainAborted, retryElsewhere},
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
	_, _, _, err := c.Execute(context.Background(), "k", []byte(`{}`))
	if err != ErrNoWorkers {
		t.Fatalf("err = %v, want ErrNoWorkers", err)
	}
}

// TestGridFanIn: a sharded grid completes every entry, each on its ring
// owner, and hands every completed cell to onResult.
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
	select {
	case <-g.Done():
	case <-time.After(10 * time.Second):
		t.Fatal("grid never finished")
	}
	if sum := g.Summary(); sum.Done != 6 || sum.Failed != 0 {
		t.Fatalf("summary = %+v, want 6 done", sum)
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

// TestGridReusesConnections: a grid sending one worker more concurrent
// cells than http.DefaultTransport keeps idle per host (2) leaves its
// connections open for the next grid, which dials none.
func TestGridReusesConnections(t *testing.T) {
	c, workers := testFleet(t, 1)
	w := workers[0]
	w.runDelay = 10 * time.Millisecond
	grid := func(id string) {
		t.Helper()
		entries := make([]GridEntry, 6)
		for i := range entries {
			entries[i] = GridEntry{
				Key:  fmt.Sprintf("%s-%d", id, i),
				Body: []byte(fmt.Sprintf(`{"app":"crc32","seed":%d}`, i+1)),
			}
		}
		g := c.StartGrid(context.Background(), id, entries, nil)
		select {
		case <-g.Done():
		case <-time.After(10 * time.Second):
			t.Fatalf("%s never finished", id)
		}
		if sum := g.Summary(); sum.Done != 6 {
			t.Fatalf("%s: %+v, want 6 cells done", id, sum)
		}
	}
	grid("grid-1")
	opened := w.conns.Load()
	if opened <= 2 {
		t.Fatalf("the first grid opened %d connections; its 6 concurrent cells should need more than 2", opened)
	}
	grid("grid-2")
	if n := w.conns.Load() - opened; n != 0 {
		t.Errorf("the second grid opened %d new connections, want 0 (the first grid's %d stay idle for reuse)", n, opened)
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
