package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"time"

	"edbp/internal/span"
)

// gridCells is how many new configs each POST /grid carries. It is small
// enough that both workers' shares nearly always finish before the
// coordinator's first 25 ms job poll, so op_ms_p99 measures that poll
// rather than the rare grid that waits for a second one: with 12 cells
// up to one grid in ten took two polls on a 2-vCPU host, which made p99
// jump between runs.
const gridCells = 6

// setUpGrid launches an edbpd coordinator and two workers that simulate
// one run at a time each, waits until both workers are alive on the
// coordinator, warms each worker on every kernel and harvest trace of the
// serve space, and sends one warm-up grid through the coordinator.
func setUpGrid(o options, c *http.Client) (fleet, error) {
	coord, err := startNode(o.edbpd, o.workdir, "coordinator", "-coordinator")
	if err != nil {
		return nil, err
	}
	f := fleet{coord}
	fail := func(err error) (fleet, error) {
		f.kill()
		return nil, err
	}
	if err := coord.waitHealthy(c, 30*time.Second); err != nil {
		return fail(err)
	}
	for _, name := range []string{"worker1", "worker2"} {
		w, err := startNode(o.edbpd, o.workdir, name, "-join", coord.url, "-workers", "1")
		if err != nil {
			return fail(err)
		}
		f = append(f, w)
	}
	for _, w := range f[1:] {
		if err := w.waitHealthy(c, 30*time.Second); err != nil {
			return fail(err)
		}
	}
	if err := waitWorkers(c, coord, len(f)-1, 30*time.Second); err != nil {
		return fail(err)
	}
	for _, w := range f[1:] {
		if err := warm(c, w, warmupRequests(32)); err != nil {
			return fail(err)
		}
	}
	if _, _, err := postGrid(c, coord, warmupRequests(64), span.Context{}); err != nil {
		return fail(fmt.Errorf("warm-up grid: %w", err))
	}
	return f, nil
}

// waitWorkers polls GET /cluster/nodes until want workers are alive.
func waitWorkers(c *http.Client, coord *node, want int, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		raw, err := getBody(c, coord.url+"/cluster/nodes")
		if err == nil {
			var members []struct {
				Alive bool `json:"alive"`
			}
			if err := json.Unmarshal(raw, &members); err != nil {
				return fmt.Errorf("GET /cluster/nodes: %w", err)
			}
			alive := 0
			for _, m := range members {
				if m.Alive {
					alive++
				}
			}
			if alive >= want {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d workers not alive on %s after %v", want, coord.name, timeout)
		}
		time.Sleep(time.Millisecond)
	}
}

// gridEntry is one cell of a POST /grid?wait=1 response.
type gridEntry struct {
	Status   string          `json:"status"`
	Attempts int             `json:"attempts"`
	Result   json.RawMessage `json:"result"`
	Error    string          `json:"error"`
}

// postGrid sends reqs as one grid and waits for it. It returns the grid id
// and the cells, in request order, once every cell is done.
func postGrid(c *http.Client, coord *node, reqs []runRequest, tp span.Context) (string, []gridEntry, error) {
	code, raw, err := postJSON(c, coord.url+"/grid?wait=1", map[string]any{"runs": reqs}, tp)
	if err != nil {
		return "", nil, err
	}
	if code != http.StatusOK {
		return "", nil, fmt.Errorf("POST /grid: HTTP %d: %s", code, raw)
	}
	var g struct {
		Summary struct {
			ID     string `json:"id"`
			Done   int    `json:"done"`
			Failed int    `json:"failed"`
		} `json:"summary"`
		Entries []gridEntry `json:"entries"`
	}
	if err := json.Unmarshal(raw, &g); err != nil {
		return "", nil, fmt.Errorf("POST /grid: %w", err)
	}
	if len(g.Entries) != len(reqs) || g.Summary.Done != len(reqs) {
		return g.Summary.ID, nil, fmt.Errorf("grid %s: %d of %d cells done, %d failed", g.Summary.ID, g.Summary.Done, len(reqs), g.Summary.Failed)
	}
	return g.Summary.ID, g.Entries, nil
}

// gridFixedOps is the grid workload's fixed op count: a timed phase sends
// at least this many grids, peak_rss_mb is read when they are done, and the
// digest covers their cells.
const gridFixedOps = 1000

// gridLoop sends grids of new configs, one at a time, until p stops it.
// onDone, when non-nil, observes each grid's id.
func gridLoop(c *http.Client, coord *node, draw *configDraw, chk *outputChecker, p phase,
	onDone func(id string)) loopStats {
	return closedLoop(1, p, func() (func() error, error) {
		seqs := make([]int, gridCells)
		reqs := make([]runRequest, gridCells)
		for i := range reqs {
			seqs[i], reqs[i] = draw.next()
		}
		id, cells, err := postGrid(c, coord, reqs, span.Context{})
		if err != nil {
			return nil, err
		}
		if onDone != nil {
			onDone(id)
		}
		return func() error {
			for i, e := range cells {
				if e.Attempts != 1 {
					return fmt.Errorf("grid %s cell %d took %d attempts", id, i, e.Attempts)
				}
				if err := chk.check(seqs[i], reqs[i], e.Result); err != nil {
					return fmt.Errorf("grid %s: %w", id, err)
				}
			}
			return nil
		}, nil
	})
}

func runGrid(o options) (*report, error) {
	c := newClient(4)
	chk, err := newOutputChecker()
	if err != nil {
		return nil, err
	}
	f, setups, err := setUpRepeatedly(c, func() (fleet, error) { return setUpGrid(o, c) })
	if err != nil {
		return nil, err
	}
	p, rss := timedPhase(o, gridFixedOps, f.peakRSSMB)
	st := gridLoop(c, f[0], newConfigDraw(o.seed), chk, p, nil)
	return finishFleet(c, f, st, setups, rss, chk, gridFixedOps*gridCells)
}
