package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"time"

	"edbp/internal/obs"
	"edbp/internal/span"
)

// ErrNoWorkers means the fleet has no live worker at all — the caller
// (edbpd's coordinator mode) falls back to simulating locally.
var ErrNoWorkers = errors.New("cluster: no live workers")

// TerminalError is a dispatch failure that retrying on another worker
// cannot fix: the worker rejected the config (4xx), or the simulation
// itself failed or timed out. Every other failure is the worker's, not the
// run's: it marks the worker dead and moves the run to the next ring
// owner (see classify).
type TerminalError struct {
	Node   string
	Status int    // HTTP status; 200 for a run stream's "error" frame
	Code   string // the error code, one of the Code constants
	Msg    string
}

func (e *TerminalError) Error() string {
	return fmt.Sprintf("cluster: %s on %s (HTTP %d, code %q)", e.Msg, e.Node, e.Status, e.Code)
}

// Error codes: the "code" field of edbpd's error JSON (ErrorBody) and of a
// run stream's "error" frame. They are stable API. The coordinator chooses
// between backing off, retrying elsewhere and giving up from the HTTP
// status and this code alone (classify), never from the message.
const (
	CodeBadRequest   = "bad_request"   // 4xx: the request or its config is invalid
	CodeNotFound     = "not_found"     // 404: no such job, grid, worker or stored run
	CodeQueueFull    = "queue_full"    // 503: the bounded queue is full; retry this node later
	CodeDraining     = "draining"      // 503: the node is shutting down
	CodeNoWorkers    = "no_workers"    // 503: a coordinator has no live worker for a grid
	CodeRunFailed    = "run_failed"    // the simulation returned an error
	CodeTimeout      = "timeout"       // the run hit its deadline or was canceled
	CodeDrainAborted = "drain_aborted" // a drain gave up before the run finished
	CodeInternal     = "internal"      // any other failure on the server's side
)

// ErrorBody is edbpd's error JSON: the body of every error response and
// the data of a run stream's "error" frame.
type ErrorBody struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// parseErrorBody decodes edbpd's error JSON. Any other body, such as a
// proxy's error page, becomes the message with no code.
func parseErrorBody(raw []byte) ErrorBody {
	var e ErrorBody
	if json.Unmarshal(raw, &e) != nil || e.Error == "" {
		return ErrorBody{Error: strings.TrimSpace(string(raw))}
	}
	return e
}

// disposition is what the coordinator does after a worker fails a run.
type disposition int

const (
	retryElsewhere disposition = iota // mark the worker dead; the next ring owner takes the run
	backOff                           // the owner is busy: wait, then resubmit to it
	giveUp                            // the run would fail on any worker: *TerminalError
)

// classify maps a failed answer to a disposition. status is the HTTP
// status, 200 for a run stream's "error" frame; code is the error code,
// empty when the body was not edbpd's error JSON. A 5xx without a code
// comes from something between the coordinator and the worker, such as
// a proxy whose backend is gone, so the run moves elsewhere.
func classify(status int, code string) disposition {
	switch {
	case code == CodeQueueFull:
		return backOff
	case code == CodeDraining, code == CodeDrainAborted:
		return retryElsewhere
	case code == CodeRunFailed, code == CodeTimeout, status < 500:
		return giveUp
	default:
		return retryElsewhere
	}
}

// Metrics is the coordinator's instrument set, wired by cmd/edbpd against
// its obs.Registry. Every field is nil-safe (obs instruments no-op when
// nil), so a zero Metrics disables observation.
type Metrics struct {
	Dispatches *obs.CounterVec // label: node — runs completed remotely
	Retries    *obs.Counter    // re-dispatches after a worker failure
	Deaths     *obs.Counter    // workers marked dead by a failed dispatch
	Frames     *obs.Counter    // SSE gauge frames relayed from workers
	Failed     *obs.Counter    // grid cells that ended failed
}

func (m *Metrics) dispatched(node string) {
	if m != nil {
		m.Dispatches.With(node).Inc()
	}
}

func (m *Metrics) retried() {
	if m != nil {
		m.Retries.Inc()
	}
}

func (m *Metrics) died() {
	if m != nil {
		m.Deaths.Inc()
	}
}

func (m *Metrics) framed() {
	if m != nil {
		m.Frames.Inc()
	}
}

func (m *Metrics) cellFailed() {
	if m != nil {
		m.Failed.Inc()
	}
}

// dispatchIdlePerWorker is how many idle connections the default dispatch
// client keeps open to each worker: edbpd's default -queue depth, the most
// cells one worker holds at once. http.DefaultTransport keeps 2, so every
// grid that sent a worker more concurrent cells dialed new connections
// for the rest and closed them again afterwards.
const dispatchIdlePerWorker = 64

// dispatchClient is the client every Coordinator dispatches over: the
// default transport's settings, with dispatchIdlePerWorker idle
// connections kept per worker and no fleet-wide idle cap.
var dispatchClient = func() *http.Client {
	tr := http.DefaultTransport.(*http.Transport).Clone()
	tr.MaxIdleConns = 0
	tr.MaxIdleConnsPerHost = dispatchIdlePerWorker
	return &http.Client{Transport: tr}
}()

// Coordinator routes runs to the worker owning their config hash and
// supervises them to completion.
type Coordinator struct {
	Members *Membership

	// SubmitBackoff is how long to wait before re-submitting to a worker
	// whose bounded queue was full (default 50ms).
	SubmitBackoff time.Duration

	Metrics *Metrics

	// Spans, when non-nil, records one "dispatch" span per attempt —
	// annotated with the target node, the attempt number, and the
	// exclusion set accumulated by prior failures — and propagates the
	// span context to the worker via the traceparent header so the
	// worker's queue-wait and run spans nest under the attempt.
	Spans *span.Recorder
}

func (c *Coordinator) submitBackoff() time.Duration {
	if c.SubmitBackoff > 0 {
		return c.SubmitBackoff
	}
	return 50 * time.Millisecond
}

// EventFunc receives relayed SSE events from the worker running a
// dispatched run: node is the worker id, event the SSE event name
// ("gauge"), data the frame's JSON payload.
type EventFunc func(node, event string, data []byte)

// Execute runs one request body (a normalized edbpd run request) on the
// worker owning key, retrying with exclusion when a worker fails rather
// than the run (see classify). It returns the worker's Result JSON, the
// id of the node that produced it, and how many workers were tried (>1
// means the run survived at least one worker failure). onEvent, when
// non-nil, receives the run's gauge frames while it is in flight.
func (c *Coordinator) Execute(ctx context.Context, key string, body []byte, onEvent EventFunc) (json.RawMessage, string, int, error) {
	excluded := make(map[string]bool)
	var lastErr error
	for attempt := 0; ; attempt++ {
		node, ok := c.Members.Owner(key, excluded)
		if !ok {
			if attempt == 0 {
				return nil, "", 0, ErrNoWorkers
			}
			return nil, "", attempt, fmt.Errorf("cluster: no workers left for %s after %d attempts: %w",
				shortKey(key), attempt, lastErr)
		}
		if attempt > 0 {
			c.Metrics.retried()
		}
		dctx := ctx
		sp := c.Spans.Start(span.FromCtx(ctx), "dispatch")
		if sp != nil {
			sp.Attr("key", shortKey(key)).Attr("node", node.ID).
				Attr("attempt", strconv.Itoa(attempt+1))
			if len(excluded) > 0 {
				sp.Attr("excluded", joinSorted(excluded))
			}
			dctx = span.With(ctx, sp.Ctx())
		}
		raw, err := c.execOn(dctx, node, body, onEvent)
		if err == nil {
			sp.End()
			c.Metrics.dispatched(node.ID)
			return raw, node.ID, attempt + 1, nil
		}
		sp.Fail(err)
		sp.End()
		var term *TerminalError
		if errors.As(err, &term) {
			return nil, node.ID, attempt + 1, err
		}
		if ctx.Err() != nil {
			return nil, node.ID, attempt + 1, ctx.Err()
		}
		// The worker failed: it is unreachable, draining, or its stream
		// was cut. Exclude it and let the next ring owner take the shard.
		c.Members.MarkDead(node.ID)
		c.Metrics.died()
		excluded[node.ID] = true
		lastErr = err
	}
}

func shortKey(key string) string {
	if len(key) > 12 {
		return key[:12]
	}
	return key
}

// joinSorted renders an exclusion set deterministically for span attrs.
func joinSorted(set map[string]bool) string {
	ids := make([]string, 0, len(set))
	for id := range set {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return strings.Join(ids, ",")
}

// execOn runs body on one worker over a single POST /run?stream=1 and
// returns the Result JSON of the stream's terminal "result" frame. While
// the worker's queue is full it backs off and resubmits. An error is a
// *TerminalError when the run would fail on any worker; any other error
// is this worker's failure.
func (c *Coordinator) execOn(ctx context.Context, node Node, body []byte, onEvent EventFunc) (json.RawMessage, error) {
	for {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, node.URL+"/run?stream=1", bytes.NewReader(body))
		if err != nil {
			return nil, err
		}
		req.Header.Set("Content-Type", "application/json")
		if sc := span.FromCtx(ctx); sc.Valid() {
			req.Header.Set(span.Header, sc.Traceparent())
		}
		resp, err := dispatchClient.Do(req)
		if err != nil {
			return nil, fmt.Errorf("cluster: run on %s: %w", node.ID, err)
		}
		if resp.StatusCode == http.StatusOK {
			result, err := c.readRun(node, resp.Body, onEvent)
			resp.Body.Close()
			return result, err
		}
		raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
		if err != nil {
			return nil, fmt.Errorf("cluster: run on %s: %w", node.ID, err)
		}
		e := parseErrorBody(raw)
		switch classify(resp.StatusCode, e.Code) {
		case backOff:
			select {
			case <-ctx.Done():
				return nil, ctx.Err()
			case <-time.After(c.submitBackoff()):
			}
		case giveUp:
			return nil, &TerminalError{Node: node.ID, Status: resp.StatusCode, Code: e.Code, Msg: e.Error}
		default:
			return nil, fmt.Errorf("cluster: run on %s: HTTP %d: %s", node.ID, resp.StatusCode, e.Error)
		}
	}
}

// readRun reads one run stream to its end: gauge frames go to onEvent,
// counted, and the terminal "result" or "error" frame decides the
// outcome. A stream that ends without a terminal frame means the
// connection dropped or the worker died: that is the worker's failure.
func (c *Coordinator) readRun(node Node, body io.Reader, onEvent EventFunc) (json.RawMessage, error) {
	var (
		result  json.RawMessage
		failure *ErrorBody
	)
	ParseSSE(body, func(event string, data []byte) {
		switch event {
		case "gauge":
			if onEvent != nil {
				c.Metrics.framed()
				onEvent(node.ID, event, data)
			}
		case "result":
			result = data
		case "error":
			e := parseErrorBody(data)
			failure = &e
		}
	})
	switch {
	case result != nil:
		return result, nil
	case failure == nil:
		return nil, fmt.Errorf("cluster: run on %s: stream ended without a terminal frame", node.ID)
	case classify(http.StatusOK, failure.Code) == giveUp:
		return nil, &TerminalError{Node: node.ID, Status: http.StatusOK, Code: failure.Code, Msg: failure.Error}
	default:
		return nil, fmt.Errorf("cluster: run on %s: %s (code %q)", node.ID, failure.Error, failure.Code)
	}
}
