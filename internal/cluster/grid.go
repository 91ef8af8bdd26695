package cluster

import (
	"context"
	"encoding/json"
	"sync"
)

// GridEntry is one cell of a sharded experiment grid: the routing key (the
// run's config hash) and the normalized run-request body to execute.
type GridEntry struct {
	Key  string
	Body []byte
}

// EntryStatus is the public state of one grid cell.
type EntryStatus struct {
	Key      string          `json:"key"`
	Node     string          `json:"node,omitempty"` // worker that produced (or last attempted) it
	Status   string          `json:"status"`         // pending | running | done | failed
	Attempts int             `json:"attempts"`
	Result   json.RawMessage `json:"result,omitempty"`
	Error    string          `json:"error,omitempty"`
}

// GridSummary is the header of GET /grid/{id} responses.
type GridSummary struct {
	ID      string `json:"id"`
	Entries int    `json:"entries"`
	Done    int    `json:"done"`
	Failed  int    `json:"failed"`
	Running int    `json:"running"`
	Pending int    `json:"pending"`
}

// Grid is one sharded experiment grid in flight (or finished).
type Grid struct {
	ID string

	mu      sync.Mutex
	entries []*EntryStatus

	done chan struct{}
}

// StartGrid dispatches every entry concurrently — each to the worker
// owning its key, with retry-with-exclusion — and returns immediately.
// Entries are independent: one cell's failure never cancels the rest (the
// grid is the unit a client retries, the cell is the unit the cluster
// retries). onResult, when non-nil, observes each completed cell (the
// coordinator feeds its own result cache with it). Progress is read by
// polling Summary and Snapshot; Done closes when every cell is terminal.
func (c *Coordinator) StartGrid(ctx context.Context, id string, entries []GridEntry, onResult func(key string, result json.RawMessage)) *Grid {
	gctx, cancel := context.WithCancel(ctx)
	g := &Grid{
		ID:      id,
		entries: make([]*EntryStatus, len(entries)),
		done:    make(chan struct{}),
	}
	var wg sync.WaitGroup
	for i, e := range entries {
		st := &EntryStatus{Key: e.Key, Status: "pending"}
		g.entries[i] = st
		wg.Add(1)
		go func(e GridEntry, st *EntryStatus) {
			defer wg.Done()
			g.setStatus(st, func() { st.Status = "running" })
			result, node, attempts, err := c.Execute(gctx, e.Key, e.Body)
			// A failed cell is counted under the grid lock, so whoever
			// reads it failed (Summary, Done) reads it counted.
			g.setStatus(st, func() {
				st.Node = node
				st.Attempts = attempts
				if err != nil {
					st.Status = "failed"
					st.Error = err.Error()
					c.Metrics.cellFailed()
				} else {
					st.Status = "done"
					st.Result = result
				}
			})
			if err == nil && onResult != nil {
				onResult(e.Key, result)
			}
		}(e, st)
	}
	go func() {
		wg.Wait()
		close(g.done)
		cancel()
	}()
	return g
}

// setStatus mutates one entry under the grid lock.
func (g *Grid) setStatus(st *EntryStatus, fn func()) {
	g.mu.Lock()
	fn()
	g.mu.Unlock()
}

// Snapshot returns a copy of every entry's current state.
func (g *Grid) Snapshot() []EntryStatus {
	g.mu.Lock()
	defer g.mu.Unlock()
	out := make([]EntryStatus, len(g.entries))
	for i, st := range g.entries {
		out[i] = *st
	}
	return out
}

// Summary aggregates entry states.
func (g *Grid) Summary() GridSummary {
	g.mu.Lock()
	defer g.mu.Unlock()
	s := GridSummary{ID: g.ID, Entries: len(g.entries)}
	for _, st := range g.entries {
		switch st.Status {
		case "done":
			s.Done++
		case "failed":
			s.Failed++
		case "running":
			s.Running++
		default:
			s.Pending++
		}
	}
	return s
}

// Done closes when every entry is terminal.
func (g *Grid) Done() <-chan struct{} { return g.done }
