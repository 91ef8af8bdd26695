package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"edbp/internal/cluster"
	"edbp/internal/obs"
	"edbp/internal/span"
)

// scrapeTimeout bounds one federation fetch of a worker's /metrics or
// /trace. Workers are LAN peers; a second of silence means dead-enough.
const scrapeTimeout = 2 * time.Second

// handleTrace serves GET /trace on every node: this process's recorded
// service spans, newest-window, optionally filtered with ?trace=<32 hex>
// and rendered as JSONL (default) or a Chrome trace_event document with
// ?format=chrome. The coordinator's federation endpoints scrape it.
func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	if s.spans == nil {
		httpError(w, http.StatusNotFound, cluster.CodeNotFound, "span recording disabled (start edbpd without -span-off)")
		return
	}
	var filter span.TraceID
	if v := r.URL.Query().Get("trace"); v != "" {
		t, ok := span.ParseTraceID(v)
		if !ok {
			httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "bad trace id %q (want 32 hex chars)", v)
			return
		}
		filter = t
	}
	writeSpans(w, r, s.spans.Snapshot(filter))
}

// writeSpans renders an assembled span set in the requested format.
func writeSpans(w http.ResponseWriter, r *http.Request, recs []span.Record) {
	span.SortRecords(recs)
	switch r.URL.Query().Get("format") {
	case "", "jsonl":
		w.Header().Set("Content-Type", "application/x-ndjson")
		span.WriteJSONL(w, recs)
	case "chrome":
		w.Header().Set("Content-Type", "application/json")
		span.WriteChromeTrace(w, recs)
	default:
		httpError(w, http.StatusBadRequest, cluster.CodeBadRequest, "bad format %q (want jsonl or chrome)", r.URL.Query().Get("format"))
	}
}

// fedNode is one fleet member's scrape status in GET /cluster/metrics.
type fedNode struct {
	ID    string `json:"id"`
	URL   string `json:"url,omitempty"`
	Alive bool   `json:"alive"`
	// Scraped: this response carries fresh series from the node.
	// Stale: the node was unreachable (or dead) and its series are the
	// cached last-successful scrape — absent entirely when there is no
	// cache either (Error says why).
	Scraped     bool   `json:"scraped"`
	Stale       bool   `json:"stale,omitempty"`
	ScrapedUnix int64  `json:"scraped_unix,omitempty"`
	Error       string `json:"error,omitempty"`
}

// scrapeCacheEntry is the last successful scrape of one worker, served
// stale-marked while the worker is unreachable so a dead node's final
// counters stay visible instead of vanishing from dashboards.
type scrapeCacheEntry struct {
	series []obs.SnapshotSeries
	at     time.Time
}

// handleClusterMetrics serves GET /cluster/metrics on the coordinator:
// the merged metrics snapshot of the whole fleet — its own registry
// plus every registered worker's /metrics?format=json — as
// {"nodes":[…scrape statuses…],"series":[…]}. Series are merged by
// concatenation: every node's series already carry its node="…" const
// label, so the union is collision-free and group-by-node works
// downstream.
func (s *server) handleClusterMetrics(w http.ResponseWriter, r *http.Request) {
	type scrape struct {
		node   fedNode
		series []obs.SnapshotSeries
	}
	members := s.members.All()
	results := make([]scrape, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		wg.Add(1)
		go func(i int, m cluster.MemberStatus) {
			defer wg.Done()
			res := scrape{node: fedNode{ID: m.ID, URL: m.URL, Alive: m.Alive}}
			series, err := s.scrapeWorkerMetrics(r.Context(), m.Node)
			if err == nil {
				res.node.Scraped = true
				res.node.ScrapedUnix = time.Now().Unix()
				res.series = series
				s.scrapes.Store(m.ID, &scrapeCacheEntry{series: series, at: time.Now()})
			} else {
				res.node.Error = err.Error()
				if v, ok := s.scrapes.Load(m.ID); ok {
					c := v.(*scrapeCacheEntry)
					res.node.Stale = true
					res.node.ScrapedUnix = c.at.Unix()
					res.series = c.series
				}
			}
			results[i] = res
		}(i, m)
	}
	wg.Wait()

	self := fedNode{ID: s.opts.nodeID, Alive: true, Scraped: true, ScrapedUnix: time.Now().Unix()}
	nodes := []fedNode{self}
	series := s.reg.Snapshot()
	for _, res := range results {
		nodes = append(nodes, res.node)
		series = append(series, res.series...)
	}
	sort.Slice(nodes[1:], func(i, j int) bool { return nodes[1+i].ID < nodes[1+j].ID })
	writeJSON(w, http.StatusOK, map[string]any{"nodes": nodes, "series": series})
}

// scrapeWorkerMetrics fetches one worker's JSON metrics snapshot.
func (s *server) scrapeWorkerMetrics(ctx context.Context, n cluster.Node) ([]obs.SnapshotSeries, error) {
	raw, err := s.scrapeWorker(ctx, n, "/metrics?format=json")
	if err != nil {
		return nil, err
	}
	var series []obs.SnapshotSeries
	if err := json.Unmarshal(raw, &series); err != nil {
		return nil, fmt.Errorf("bad metrics body from %s: %v", n.ID, err)
	}
	return series, nil
}

func (s *server) scrapeWorker(ctx context.Context, n cluster.Node, path string) ([]byte, error) {
	ctx, cancel := context.WithTimeout(ctx, scrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, n.URL+path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<24))
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape %s%s: HTTP %d", n.ID, path, resp.StatusCode)
	}
	return raw, nil
}

// handleGridTrace serves GET /trace/{grid-id} on the coordinator: the
// assembled cross-node trace of one grid — the coordinator's own spans
// (request, grid root, one dispatch span per attempt) merged with every
// live worker's spans for the grid's trace ID, scraped over /trace.
// Formats as in /trace (?format=jsonl|chrome). Spans on workers that
// died mid-grid are gone with the process; the coordinator's failed
// dispatch spans still record that the attempts happened.
func (s *server) handleGridTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	gr, ok := s.grids.get(id)
	if !ok {
		httpError(w, http.StatusNotFound, cluster.CodeNotFound, "unknown grid %q", id)
		return
	}
	if gr.trace.IsZero() || s.spans == nil {
		httpError(w, http.StatusNotFound, cluster.CodeNotFound, "grid %q has no trace (span recording disabled)", id)
		return
	}

	recs := s.spans.Snapshot(gr.trace)
	members := s.members.All()
	remote := make([][]span.Record, len(members))
	var wg sync.WaitGroup
	for i, m := range members {
		if !m.Alive {
			continue
		}
		wg.Add(1)
		go func(i int, n cluster.Node) {
			defer wg.Done()
			raw, err := s.scrapeWorker(r.Context(), n, "/trace?trace="+gr.trace.String())
			if err != nil {
				s.log.Warn("trace scrape failed", "worker", n.ID, "grid", id, "err", err.Error())
				return
			}
			got, err := span.ReadJSONL(bytes.NewReader(raw))
			if err != nil {
				s.log.Warn("trace scrape unparsable", "worker", n.ID, "grid", id, "err", err.Error())
				return
			}
			remote[i] = got
		}(i, m.Node)
	}
	wg.Wait()
	for _, rs := range remote {
		recs = append(recs, rs...)
	}
	writeSpans(w, r, recs)
}
