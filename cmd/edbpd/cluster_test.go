package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"edbp/internal/cluster"
	"edbp/internal/obs"
	"edbp/internal/store"
)

// clusterNode is one in-process fleet member: the server, its HTTP front,
// its private registry (to read per-node counters) and its store shard.
type clusterNode struct {
	srv *server
	ts  *httptest.Server
	reg *obs.Registry
	st  *store.Store
}

func newClusterWorker(t *testing.T, id string, hold chan struct{}) *clusterNode {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	reg := obs.NewRegistry()
	srv := newServer(serverOptions{
		workers: 2, registry: reg, store: st, commit: "test",
		nodeID: id, holdJobs: hold,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return &clusterNode{srv: srv, ts: ts, reg: reg, st: st}
}

func newClusterCoordinator(t *testing.T) *clusterNode {
	t.Helper()
	reg := obs.NewRegistry()
	srv := newServer(serverOptions{
		workers: 2, registry: reg, coordinator: true, nodeID: "coord",
		// Tests don't run heartbeat loops; effectively-infinite liveness
		// keeps un-heartbeated workers routable. MarkDead (the dispatch
		// failure path) is unaffected.
		liveness: time.Hour,
	})
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	})
	return &clusterNode{srv: srv, ts: ts, reg: reg}
}

func joinWorker(t *testing.T, coord *clusterNode, id, url string) {
	t.Helper()
	body := fmt.Sprintf(`{"id":%q,"url":%q}`, id, url)
	if code := doJSON(t, "POST", coord.ts.URL+"/cluster/join", body, nil); code != http.StatusOK {
		t.Fatalf("join %s = %d", id, code)
	}
}

// drainWorkers drains worker servers so their pools exit before stores
// close (the coordinator cleanup from newClusterCoordinator handles itself).
func drainWorker(t *testing.T, n *clusterNode) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := n.srv.Drain(ctx); err != nil {
		t.Errorf("worker drain: %v", err)
	}
}

// gridBody is a small deterministic grid: 1 app x 3 schemes x 2 seeds.
const gridBody = `{"base":{"app":"crc32","scale":0.05},"schemes":["baseline","edbp","decay"],"seeds":[1,2]}`

// gridRequests mirrors gridBody's expansion for reference runs.
func gridRequests() []runRequest {
	var out []runRequest
	for _, scheme := range []string{"baseline", "edbp", "decay"} {
		for _, seed := range []uint64{1, 2} {
			out = append(out, runRequest{App: "crc32", Scale: 0.05, Scheme: scheme, Seed: seed}.normalize())
		}
	}
	return out
}

// TestClusterGridShardExclusivity is the tentpole acceptance test: a
// coordinator and three workers complete a full grid with every cell
// simulated exactly once, each worker's result cache and store holding
// exactly the shard the ring routed to it, and per-node metrics labeled.
func TestClusterGridShardExclusivity(t *testing.T) {
	coord := newClusterCoordinator(t)
	workers := map[string]*clusterNode{}
	for _, id := range []string{"w1", "w2", "w3"} {
		w := newClusterWorker(t, id, nil)
		workers[id] = w
		defer drainWorker(t, w)
		joinWorker(t, coord, id, w.ts.URL)
	}

	var view gridView
	if code := doJSON(t, "POST", coord.ts.URL+"/grid?wait=1", gridBody, &view); code != http.StatusOK {
		t.Fatalf("POST /grid?wait=1 = %d", code)
	}
	if view.Summary.Entries != 6 || view.Summary.Done != 6 || view.Summary.Failed != 0 {
		t.Fatalf("grid summary = %+v, want 6/6 done", view.Summary)
	}

	// Every cell carries its producing node and a result, and the node is
	// exactly the ring owner of its key.
	perNode := map[string]int{}
	for _, e := range view.Entries {
		if e.Node == "" || len(e.Result) == 0 {
			t.Fatalf("entry %s missing node/result: %+v", e.Key, e)
		}
		if e.Attempts != 1 {
			t.Errorf("entry %s took %d attempts with a healthy fleet", e.Key, e.Attempts)
		}
		owner, ok := coord.srv.members.Owner(e.Key, nil)
		if !ok || owner.ID != e.Node {
			t.Errorf("entry %s ran on %s, ring owner is %s", e.Key, e.Node, owner.ID)
		}
		perNode[e.Node]++
	}

	// Zero duplicate simulations: each worker simulated exactly the cells
	// attributed to it, and the fleet total is the entry count.
	total := 0.0
	for id, w := range workers {
		got := w.srv.met.runsOK.Value()
		if got != float64(perNode[id]) {
			t.Errorf("worker %s simulated %g runs, grid attributes %d", id, got, perNode[id])
		}
		total += got
	}
	if total != 6 {
		t.Errorf("fleet simulated %g runs for 6 cells", total)
	}
	if coord.srv.met.runsOK.Value() != 0 {
		t.Errorf("coordinator simulated %g runs locally despite a live fleet", coord.srv.met.runsOK.Value())
	}

	// Store shards are pairwise disjoint and cover the grid.
	union := map[string]string{}
	for id, w := range workers {
		for _, h := range w.st.ConfigHashes() {
			if prev, dup := union[h]; dup {
				t.Errorf("config hash %s persisted on both %s and %s", h, prev, id)
			}
			union[h] = id
		}
	}
	if len(union) != 6 {
		t.Errorf("fleet stores hold %d distinct configs, want 6", len(union))
	}

	// Worker metrics carry the node label; the coordinator counted the
	// dispatches per worker.
	var b strings.Builder
	workers["w1"].reg.WritePrometheus(&b)
	if !strings.Contains(b.String(), `node="w1"`) {
		t.Error("worker metrics missing node=\"w1\" const label")
	}
	for id, n := range perNode {
		if got := coord.srv.cmet.coord.Dispatches.With(id).Value(); got != float64(n) {
			t.Errorf("dispatch_total{worker=%q} = %g, want %d", id, got, n)
		}
	}
}

// TestClusterWorkerDeathMidGrid kills one worker while its cells are
// still queued on it. The coordinator must mark it dead, re-dispatch its
// cells to the surviving owners (retry-with-exclusion), and the finished
// grid must be byte-identical to single-node reference runs.
func TestClusterWorkerDeathMidGrid(t *testing.T) {
	coord := newClusterCoordinator(t)
	gate := make(chan struct{}) // freezes the victim so it never completes a cell
	victim := newClusterWorker(t, "w1", gate)
	w2 := newClusterWorker(t, "w2", nil)
	w3 := newClusterWorker(t, "w3", nil)
	defer drainWorker(t, w2)
	defer drainWorker(t, w3)
	joinWorker(t, coord, "w1", victim.ts.URL)
	joinWorker(t, coord, "w2", w2.ts.URL)
	joinWorker(t, coord, "w3", w3.ts.URL)

	// The grid must actually exercise the victim: with 6 deterministic
	// keys over 3 nodes the victim owns some cells unless hashing is
	// pathological — assert rather than assume.
	victimOwns := 0
	for _, req := range gridRequests() {
		if owner, ok := coord.srv.members.Owner(req.hash(), nil); ok && owner.ID == "w1" {
			victimOwns++
		}
	}
	if victimOwns == 0 {
		t.Skip("ring assigned no cells to the victim; grid would not exercise recovery")
	}

	var accepted struct {
		ID      string `json:"id"`
		Entries int    `json:"entries"`
	}
	if code := doJSON(t, "POST", coord.ts.URL+"/grid", gridBody, &accepted); code != http.StatusAccepted {
		t.Fatalf("POST /grid = %d", code)
	}
	if accepted.Entries != 6 {
		t.Fatalf("grid accepted %d entries, want 6", accepted.Entries)
	}

	// Wait until the victim has cells queued (submitted but frozen), then
	// kill it mid-grid: open connections die, the listener goes away.
	deadline := time.Now().Add(30 * time.Second)
	for {
		queued := 0
		victim.srv.jobs.Range(func(_, _ any) bool { queued++; return true })
		if queued >= victimOwns {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("victim never received its %d cells (has %d)", victimOwns, queued)
		}
		time.Sleep(5 * time.Millisecond)
	}
	victim.ts.CloseClientConnections()
	victim.ts.Close()
	close(gate) // release the (now unreachable) victim's pool for cleanup
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
	if view.Summary.Failed != 0 || view.Summary.Done != 6 {
		t.Fatalf("grid after worker death = %+v, want all 6 done", view.Summary)
	}

	retried := 0
	for _, e := range view.Entries {
		if e.Node == "w1" {
			t.Errorf("entry %s attributed to the dead worker", e.Key)
		}
		if e.Attempts > 1 {
			retried++
		}
	}
	if retried == 0 {
		t.Error("no entry recorded a retry despite the victim owning cells")
	}
	if coord.srv.cmet.coord.Deaths.Value() == 0 {
		t.Error("edbpd_cluster_deaths_total stayed 0 after killing a worker")
	}
	if coord.srv.cmet.coord.Retries.Value() == 0 {
		t.Error("edbpd_cluster_retries_total stayed 0 after re-dispatch")
	}

	// Byte-identical acceptance: every recovered cell must equal a fresh
	// single-node run of the same request (the simulator is deterministic;
	// only provenance fields may differ).
	single, singleTS := testServer(t, serverOptions{})
	_ = single
	want := map[string]runOutput{}
	for _, req := range gridRequests() {
		var out runOutput
		body, _ := json.Marshal(req)
		if code := doJSON(t, "POST", singleTS.URL+"/run", string(body), &out); code != http.StatusOK {
			t.Fatalf("reference run = %d", code)
		}
		out.CacheHit, out.Node = false, ""
		want[req.hash()] = out
	}
	for _, e := range view.Entries {
		var got runOutput
		if err := json.Unmarshal(e.Result, &got); err != nil {
			t.Fatalf("entry %s: bad result: %v", e.Key, err)
		}
		got.CacheHit, got.Node = false, ""
		ref, ok := want[e.Key]
		if !ok {
			t.Fatalf("entry %s has no reference run", e.Key)
		}
		if !reflect.DeepEqual(got, ref) {
			t.Errorf("entry %s diverged from single-node run:\ngrid:   %+v\nsingle: %+v", e.Key, got, ref)
		}
	}
}

// TestClusterSingleRunDispatch covers the coordinator's /run path: local
// fallback with no fleet, remote dispatch once a worker joins (with node
// provenance and a coordinator-side cache), and the membership endpoints'
// status codes.
func TestClusterSingleRunDispatch(t *testing.T) {
	coord := newClusterCoordinator(t)

	// No workers: the coordinator simulates locally.
	var local runOutput
	if code := doJSON(t, "POST", coord.ts.URL+"/run", `{"app":"crc32","scheme":"baseline","scale":0.05}`, &local); code != http.StatusOK {
		t.Fatalf("local fallback run = %d", code)
	}
	if local.Node != "" {
		t.Errorf("local run attributed to node %q", local.Node)
	}
	if coord.srv.met.runsOK.Value() != 1 {
		t.Errorf("coordinator runs_ok = %g, want 1 (local fallback)", coord.srv.met.runsOK.Value())
	}

	// Heartbeat before join: 404 tells the worker to re-join.
	if code := doJSON(t, "POST", coord.ts.URL+"/cluster/heartbeat", `{"id":"w1","url":"x"}`, nil); code != http.StatusNotFound {
		t.Errorf("heartbeat before join = %d, want 404", code)
	}

	w := newClusterWorker(t, "w1", nil)
	defer drainWorker(t, w)
	joinWorker(t, coord, "w1", w.ts.URL)
	if code := doJSON(t, "POST", coord.ts.URL+"/cluster/heartbeat", `{"id":"w1","url":"x"}`, nil); code != http.StatusOK {
		t.Errorf("heartbeat after join = %d, want 200", code)
	}
	var nodes []cluster.MemberStatus
	if code := doJSON(t, "GET", coord.ts.URL+"/cluster/nodes", "", &nodes); code != http.StatusOK || len(nodes) != 1 || !nodes[0].Alive {
		t.Fatalf("/cluster/nodes = %d %+v", code, nodes)
	}

	// A fresh config now dispatches to the worker.
	var remote runOutput
	if code := doJSON(t, "POST", coord.ts.URL+"/run", `{"app":"crc32","scheme":"edbp","scale":0.05}`, &remote); code != http.StatusOK {
		t.Fatalf("dispatched run = %d", code)
	}
	if remote.Node != "w1" {
		t.Errorf("dispatched run node = %q, want w1", remote.Node)
	}
	if w.srv.met.runsOK.Value() != 1 {
		t.Errorf("worker runs_ok = %g, want 1", w.srv.met.runsOK.Value())
	}
	if coord.srv.met.runsOK.Value() != 1 {
		t.Errorf("coordinator runs_ok = %g after dispatch, want still 1", coord.srv.met.runsOK.Value())
	}

	// The dispatched result is cached coordinator-side.
	var again runOutput
	doJSON(t, "POST", coord.ts.URL+"/run", `{"app":"crc32","scheme":"edbp","scale":0.05}`, &again)
	if !again.CacheHit {
		t.Error("repeat of dispatched run missed the coordinator cache")
	}
	if w.srv.met.runsOK.Value() != 1 {
		t.Errorf("worker re-simulated a cached run (runs_ok = %g)", w.srv.met.runsOK.Value())
	}

	// Leave: the worker stops owning shards; new configs run locally again.
	if code := doJSON(t, "POST", coord.ts.URL+"/cluster/leave", `{"id":"w1","url":"x"}`, nil); code != http.StatusOK {
		t.Fatalf("leave = %d", code)
	}
	var back runOutput
	doJSON(t, "POST", coord.ts.URL+"/run", `{"app":"crc32","scheme":"decay","scale":0.05}`, &back)
	if back.Node != "" {
		t.Errorf("post-leave run attributed to %q, want local", back.Node)
	}
	if code := doJSON(t, "POST", coord.ts.URL+"/cluster/heartbeat", `{"id":"w1","url":"x"}`, nil); code != http.StatusNotFound {
		t.Errorf("heartbeat after leave = %d, want 404", code)
	}
}

// TestClusterGridStream subscribes to the fan-in SSE feed mid-grid and
// checks the event grammar: gauge envelopes carry node+key provenance,
// every cell yields one "entry", and the stream terminates with "done".
func TestClusterGridStream(t *testing.T) {
	coord := newClusterCoordinator(t)
	// The worker holds every cell until the stream is subscribed: a cell
	// can finish in a millisecond, and the hub replays nothing.
	gate := make(chan struct{})
	w := newClusterWorker(t, "w1", gate)
	defer drainWorker(t, w)
	release := sync.OnceFunc(func() { close(gate) })
	defer release()
	joinWorker(t, coord, "w1", w.ts.URL)

	var accepted struct {
		ID string `json:"id"`
	}
	body := `{"base":{"app":"crc32","scale":0.05},"schemes":["baseline","edbp"]}`
	if code := doJSON(t, "POST", coord.ts.URL+"/grid", body, &accepted); code != http.StatusAccepted {
		t.Fatalf("POST /grid = %d", code)
	}

	resp, err := http.Get(coord.ts.URL + "/grid/" + accepted.ID + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type = %q", ct)
	}
	release()

	entries, done := 0, false
	err = func() error {
		type evt struct {
			typ  string
			data []byte
		}
		ch := make(chan evt, 64)
		go func() {
			cluster.ParseSSE(resp.Body, func(event string, data []byte) {
				d := make([]byte, len(data))
				copy(d, data)
				ch <- evt{event, d}
			})
			close(ch)
		}()
		timeout := time.After(60 * time.Second)
		for {
			select {
			case e, ok := <-ch:
				if !ok {
					return nil
				}
				switch e.typ {
				case "gauge":
					var env struct {
						Node  string          `json:"node"`
						Key   string          `json:"key"`
						Gauge json.RawMessage `json:"gauge"`
					}
					if err := json.Unmarshal(e.data, &env); err != nil || env.Node != "w1" || env.Key == "" || len(env.Gauge) == 0 {
						return fmt.Errorf("bad gauge envelope %s (err %v)", e.data, err)
					}
				case "entry":
					entries++
				case "done":
					done = true
					return nil
				}
			case <-timeout:
				return fmt.Errorf("stream never finished (entries %d)", entries)
			}
		}
	}()
	if err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Error("stream ended without a done event")
	}
	if entries != 2 {
		t.Errorf("saw %d entry events, want 2", entries)
	}
}
