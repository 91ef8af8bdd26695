package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"edbp/internal/cluster"
	"edbp/internal/obs"
	"edbp/internal/sim"
	"edbp/internal/span"
)

// maxGridEntries bounds one POST /grid expansion: a full paper matrix is
// ~13 apps x 12 schemes x a few seeds, so this is generous while still
// refusing a runaway cross product. It also bounds what a server keeps:
// the result cache holds that many results and the finished grids it
// remembers hold that many cells, so the largest grid stays whole.
const maxGridEntries = 4096

// clusterMetrics is the coordinator's instrument set over the server
// registry, alongside the cluster package's own dispatch counters.
type clusterMetrics struct {
	coord       cluster.Metrics
	grids       *obs.Counter
	gridEntries *obs.Counter
}

// initCluster wires coordinator mode into the server: membership, the
// consistent-hash dispatcher, the /cluster/* registration endpoints, and
// the /grid sharded-dispatch API. Called from newServer.
func (s *server) initCluster() {
	liveness := s.opts.liveness
	if liveness <= 0 {
		liveness = 6 * time.Second
	}
	s.members = cluster.NewMembership(liveness, cluster.DefaultVnodes)
	s.cmet = &clusterMetrics{
		coord: cluster.Metrics{
			Dispatches: s.reg.CounterVec("edbpd_cluster_dispatch_total",
				"Runs completed on a remote worker, by worker id.", "worker"),
			Retries: s.reg.Counter("edbpd_cluster_retries_total",
				"Run re-dispatches after a worker failed mid-job."),
			Deaths: s.reg.Counter("edbpd_cluster_deaths_total",
				"Workers marked dead by a failed dispatch."),
			Failed: s.reg.Counter("edbpd_grid_entries_failed_total",
				"Grid cells that exhausted retry-with-exclusion and failed."),
		},
		grids: s.reg.Counter("edbpd_grids_total",
			"Sharded grids accepted via POST /grid."),
		gridEntries: s.reg.Counter("edbpd_grid_entries_total",
			"Grid cells dispatched across all grids."),
	}
	// Dispatch relays no gauge frames; the series stays registered, at 0,
	// because perfbench's grid layer reads it.
	s.reg.Counter("edbpd_cluster_frames_total",
		"Gauge frames relayed from workers; always 0, as dispatch reads one JSON answer per run.")
	s.reg.GaugeFunc("edbpd_cluster_workers",
		"Live (routable) workers registered with this coordinator.",
		func() float64 { return float64(s.members.AliveCount()) })
	s.coord = &cluster.Coordinator{Members: s.members, Metrics: &s.cmet.coord, Spans: s.spans}

	s.mux.HandleFunc("POST /cluster/join", s.handleClusterJoin)
	s.mux.HandleFunc("POST /cluster/heartbeat", s.handleClusterHeartbeat)
	s.mux.HandleFunc("POST /cluster/leave", s.handleClusterLeave)
	s.mux.HandleFunc("GET /cluster/nodes", s.handleClusterNodes)
	s.mux.HandleFunc("GET /cluster/metrics", s.handleClusterMetrics)
	s.mux.HandleFunc("POST /grid", s.handleGrid)
	s.mux.HandleFunc("GET /grid/{id}", s.handleGridStatus)
	s.mux.HandleFunc("GET /trace/{id}", s.handleGridTrace)
}

// dispatch routes one run to the worker fleet when this server is a
// coordinator with live workers. handled=false means the caller should
// simulate locally: not a coordinator, or an empty fleet (ErrNoWorkers) —
// a coordinator alone is still a working single-node edbpd.
func (s *server) dispatch(ctx context.Context, spec runSpec) (out *runOutput, handled bool, err error) {
	if s.coord == nil {
		return nil, false, nil
	}
	body, err := json.Marshal(spec.knobs)
	if err != nil {
		return nil, true, err
	}
	raw, node, _, err := s.coord.Execute(ctx, spec.key, body)
	if errors.Is(err, cluster.ErrNoWorkers) {
		return nil, false, nil
	}
	if err != nil {
		return nil, true, err
	}
	out = &runOutput{}
	if err := json.Unmarshal(raw, out); err != nil {
		return nil, true, fmt.Errorf("cluster: bad result from %s: %w", node, err)
	}
	out.Node = node
	return out, true, nil
}

func (s *server) decodeNode(w http.ResponseWriter, r *http.Request) (cluster.Node, bool) {
	var n cluster.Node
	if err := json.NewDecoder(r.Body).Decode(&n); err != nil {
		httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "bad node body: %v", err)
		return n, false
	}
	if n.ID == "" || n.URL == "" {
		httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "node needs id and url, got %+v", n)
		return n, false
	}
	return n, true
}

func (s *server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	n, ok := s.decodeNode(w, r)
	if !ok {
		return
	}
	s.members.Join(n)
	writeJSON(w, http.StatusOK, map[string]string{"status": "joined", "id": n.ID})
}

func (s *server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	n, ok := s.decodeNode(w, r)
	if !ok {
		return
	}
	if !s.members.Heartbeat(n.ID) {
		// Unknown worker (we restarted, or it never joined): 404 tells it
		// to re-join rather than keep heartbeating into the void.
		httpError(w, http.StatusNotFound, cluster.CodeNotFound, "unknown worker %q — re-join", n.ID)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleClusterLeave(w http.ResponseWriter, r *http.Request) {
	n, ok := s.decodeNode(w, r)
	if !ok {
		return
	}
	s.members.Leave(n.ID)
	writeJSON(w, http.StatusOK, map[string]string{"status": "left", "id": n.ID})
}

func (s *server) handleClusterNodes(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.members.All())
}

// gridRequest is the POST /grid body: either an explicit list of runs, or
// a cross product of apps x schemes x seeds over a base request. Every
// expanded cell is validated and deduplicated by config hash before
// dispatch.
type gridRequest struct {
	Runs    []sim.Knobs `json:"runs,omitempty"`
	Base    sim.Knobs   `json:"base,omitempty"`
	Apps    []string    `json:"apps,omitempty"`
	Schemes []string    `json:"schemes,omitempty"`
	Seeds   []uint64    `json:"seeds,omitempty"`
}

// expand materializes the grid cells. Cross-product axes left empty
// default to the base request's value.
func (g gridRequest) expand() ([]sim.Knobs, error) {
	if len(g.Runs) > 0 {
		if len(g.Apps) > 0 || len(g.Schemes) > 0 || len(g.Seeds) > 0 {
			return nil, errors.New("give either runs or a base cross product, not both")
		}
		return g.Runs, nil
	}
	apps := g.Apps
	if len(apps) == 0 {
		apps = []string{g.Base.App}
	}
	schemes := g.Schemes
	if len(schemes) == 0 {
		schemes = []string{g.Base.Scheme}
	}
	seeds := g.Seeds
	if len(seeds) == 0 {
		seeds = []uint64{g.Base.Seed}
	}
	if n := len(apps) * len(schemes) * len(seeds); n > maxGridEntries {
		return nil, fmt.Errorf("grid expands to %d cells (max %d)", n, maxGridEntries)
	}
	out := make([]sim.Knobs, 0, len(apps)*len(schemes)*len(seeds))
	for _, app := range apps {
		for _, scheme := range schemes {
			for _, seed := range seeds {
				req := g.Base
				req.App = app
				if scheme != "" {
					req.Scheme = scheme
				}
				req.Seed = seed
				out = append(out, req)
			}
		}
	}
	return out, nil
}

// gridView is the GET /grid/{id} (and POST /grid?wait=1) response shape.
type gridView struct {
	Summary cluster.GridSummary   `json:"summary"`
	Entries []cluster.EntryStatus `json:"entries"`
}

func gridViewOf(g *cluster.Grid) gridView {
	return gridView{Summary: g.Summary(), Entries: g.Snapshot()}
}

// handleGrid serves POST /grid: expand, validate, dedupe, and dispatch
// every cell to the worker owning its config hash. An unknown key, at the
// top level or in a cell, or a cell sim rejects makes the whole grid a
// 400. The default response is 202 with the grid id for GET /grid/{id};
// ?wait=1 blocks until every cell is terminal and returns the full result
// set.
func (s *server) handleGrid(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		httpUnavailable(w, drainRetryAfterSeconds, cluster.CodeDraining, "draining")
		return
	}
	var greq gridRequest
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&greq); err != nil {
		httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "bad grid body: %v", err)
		return
	}
	cells, err := greq.expand()
	if err != nil {
		httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "%v", err)
		return
	}
	if len(cells) == 0 {
		httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "empty grid")
		return
	}
	if len(cells) > maxGridEntries {
		httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "grid has %d cells (max %d)", len(cells), maxGridEntries)
		return
	}
	seen := make(map[string]bool, len(cells))
	entries := make([]cluster.GridEntry, 0, len(cells))
	for i, k := range cells {
		spec, err := newRunSpec(k)
		if err != nil {
			httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "cell %d: %v", i, err)
			return
		}
		if seen[spec.key] {
			continue
		}
		seen[spec.key] = true
		body, err := json.Marshal(k)
		if err != nil {
			httpError(w, http.StatusInternalServerError, cluster.CodeInternal, "cell %d: %v", i, err)
			return
		}
		entries = append(entries, cluster.GridEntry{Key: spec.key, Body: body})
	}
	if s.members.AliveCount() == 0 {
		httpUnavailable(w, drainRetryAfterSeconds, cluster.CodeNoWorkers, "no live workers — grids need a fleet (POST /cluster/join)")
		return
	}

	g := s.startGrid(span.FromCtx(r.Context()), entries)
	if r.URL.Query().Get("wait") == "" {
		writeJSON(w, http.StatusAccepted, map[string]any{"id": g.ID, "entries": len(entries)})
		return
	}
	select {
	case <-g.Done():
		writeJSON(w, http.StatusOK, gridViewOf(g))
	case <-r.Context().Done():
		// The client gave up; the grid keeps running and stays pollable.
	}
}

// startGrid dispatches entries as a new grid and records it for
// GET /grid/{id} and /trace/{id}. Grids outlive their submitting request:
// dispatch runs under the server's lifetime, bounded per entry by the run
// timeout the workers enforce. The grid root span, a child of parent,
// anchors the cross-node trace: every dispatch span
// (and, over the traceparent header, every worker-side span) descends
// from it, so GET /trace/{grid-id} can assemble the whole picture.
func (s *server) startGrid(parent span.Context, entries []cluster.GridEntry) *cluster.Grid {
	id := fmt.Sprintf("grid-%d", s.nextGrid.Add(1))
	s.cmet.grids.Inc()
	s.cmet.gridEntries.Add(float64(len(entries)))
	gctx := context.Background()
	rec := &gridRecord{cells: len(entries)}
	gsp := s.spans.Start(parent, "grid")
	if gsp != nil {
		gsp.Attr("grid", id).Attr("entries", strconv.Itoa(len(entries)))
		gctx = span.With(gctx, gsp.Ctx())
		rec.trace = gsp.Ctx().Trace
	}
	rec.grid = s.coord.StartGrid(gctx, id, entries, func(key string, result json.RawMessage) {
		out := &runOutput{}
		if err := json.Unmarshal(result, out); err == nil {
			s.cache.put(key, out)
		}
	})
	s.grids.add(rec)
	go func() {
		<-rec.grid.Done()
		if gsp != nil {
			sum := rec.grid.Summary()
			gsp.Attr("done", strconv.Itoa(sum.Done)).Attr("failed", strconv.Itoa(sum.Failed))
			gsp.End()
		}
		s.grids.finish(rec)
	}()
	return rec.grid
}

// gridRecord is a coordinator-side grid plus the trace that spans it —
// the handle GET /trace/{grid-id} assembles the cross-node view from.
// cells, its entry count, counts against the bound once it finishes.
type gridRecord struct {
	grid  *cluster.Grid
	trace span.TraceID
	cells int
}

// gridRecords holds the grids GET /grid/{id} and /trace/{id} read. A grid
// in flight is always kept. Finished grids are kept newest first while
// their cells total at most maxGridEntries, so the largest grid a
// coordinator accepts stays readable once it finishes; an older finished
// grid is forgotten, and its id is a 404.
type gridRecords struct {
	mu       sync.Mutex
	byID     map[string]*gridRecord
	finished []*gridRecord // in the order they finished, oldest first
	cells    int           // the cells of finished
}

func (gs *gridRecords) get(id string) (*gridRecord, bool) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	rec, ok := gs.byID[id]
	return rec, ok
}

func (gs *gridRecords) add(rec *gridRecord) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	if gs.byID == nil {
		gs.byID = make(map[string]*gridRecord)
	}
	gs.byID[rec.grid.ID] = rec
}

// finish marks rec finished and forgets the oldest finished grids past
// the bound.
func (gs *gridRecords) finish(rec *gridRecord) {
	gs.mu.Lock()
	defer gs.mu.Unlock()
	gs.finished = append(gs.finished, rec)
	gs.cells += rec.cells
	for gs.cells > maxGridEntries {
		old := gs.finished[0]
		gs.finished[0] = nil
		gs.finished = gs.finished[1:]
		gs.cells -= old.cells
		delete(gs.byID, old.grid.ID)
	}
}

func (s *server) loadGrid(w http.ResponseWriter, r *http.Request) (*cluster.Grid, bool) {
	id := r.PathValue("id")
	rec, ok := s.grids.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, cluster.CodeNotFound, "unknown grid %q", id)
		return nil, false
	}
	return rec.grid, true
}

func (s *server) handleGridStatus(w http.ResponseWriter, r *http.Request) {
	g, ok := s.loadGrid(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, gridViewOf(g))
}
