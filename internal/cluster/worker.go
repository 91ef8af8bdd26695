package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"time"
)

// Worker is the worker-side membership loop: join the coordinator, renew
// with heartbeats, re-join if the coordinator forgot us (it restarted),
// and deregister on drain.
type Worker struct {
	Node           Node   // this process's id + advertise URL
	CoordinatorURL string // base URL of the coordinator

	Heartbeat time.Duration // renewal cadence (default 2s)
	Logf      func(format string, args ...any)
}

func (w *Worker) heartbeat() time.Duration {
	if w.Heartbeat > 0 {
		return w.Heartbeat
	}
	return 2 * time.Second
}

func (w *Worker) logf(format string, args ...any) {
	if w.Logf != nil {
		w.Logf(format, args...)
	}
}

// post sends a small JSON body and returns the response status. Transport
// errors return status 0.
func (w *Worker) post(ctx context.Context, path string, v any) (int, error) {
	body, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.CoordinatorURL+path, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return 0, err
	}
	io.Copy(io.Discard, io.LimitReader(resp.Body, 4096))
	resp.Body.Close()
	return resp.StatusCode, nil
}

// Join registers this worker once.
func (w *Worker) Join(ctx context.Context) error {
	code, err := w.post(ctx, "/cluster/join", w.Node)
	if err != nil {
		return fmt.Errorf("cluster: join %s: %w", w.CoordinatorURL, err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("cluster: join %s: HTTP %d", w.CoordinatorURL, code)
	}
	return nil
}

// Run joins (retrying until it succeeds) and then heartbeats until ctx is
// canceled. A heartbeat answered 404/410 means the coordinator does not
// know this worker anymore — it re-joins on the next tick. Transport
// errors are logged and retried; the worker never gives up while running.
func (w *Worker) Run(ctx context.Context) {
	joined := false
	tick := time.NewTicker(w.heartbeat())
	defer tick.Stop()
	for {
		if !joined {
			if err := w.Join(ctx); err != nil {
				w.logf("cluster: %v (will retry)", err)
			} else {
				joined = true
				w.logf("cluster: joined %s as %s", w.CoordinatorURL, w.Node.ID)
			}
		} else {
			code, err := w.post(ctx, "/cluster/heartbeat", w.Node)
			switch {
			case err != nil:
				w.logf("cluster: heartbeat: %v (will retry)", err)
			case code == http.StatusNotFound || code == http.StatusGone:
				w.logf("cluster: coordinator forgot %s; re-joining", w.Node.ID)
				joined = false
			case code != http.StatusOK:
				w.logf("cluster: heartbeat: HTTP %d", code)
			}
		}
		select {
		case <-ctx.Done():
			return
		case <-tick.C:
		}
	}
}

// Leave deregisters this worker so the coordinator stops routing to it —
// the first step of a graceful drain, before finishing queued jobs.
func (w *Worker) Leave(ctx context.Context) error {
	code, err := w.post(ctx, "/cluster/leave", w.Node)
	if err != nil {
		return fmt.Errorf("cluster: leave: %w", err)
	}
	if code != http.StatusOK {
		return fmt.Errorf("cluster: leave: HTTP %d", code)
	}
	return nil
}
