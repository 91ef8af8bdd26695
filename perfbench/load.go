package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"edbp/internal/span"
	"edbp/internal/workload"
)

// loopStats is what a closed-loop phase measured.
type loopStats struct {
	lat       []float64 // per-op latency, ms
	wall      time.Duration
	attempted int
	failed    int
	firstErr  error
}

func (s *loopStats) record(d time.Duration, err error) {
	s.attempted++
	s.lat = append(s.lat, ms(d))
	if err != nil {
		s.failed++
		if s.firstErr == nil {
			s.firstErr = err
		}
	}
}

// phase says how a closed loop is driven.
type phase struct {
	slowdown float64          // sensitivity mode: busy-wait this fraction of each op
	stop     func(i int) bool // true when the i-th op should not be issued
	after    func(done int)   // when non-nil, called after each op with the count done so far
}

// closedLoop runs op from conns goroutines, each sending its next op only
// when the previous one returned, until p.stop(i) is true for the i-th op to
// be issued. An op's latency is the time op takes; the output check it
// returns runs after that, inside the phase's wall time. With p.slowdown > 0
// every op busy-waits that fraction of its own time on top, counted in its
// latency: the sensitivity check's stand-in for a slower program.
func closedLoop(conns int, p phase, op func() (verify func() error, err error)) loopStats {
	var (
		mu     sync.Mutex
		st     loopStats
		wg     sync.WaitGroup
		issued atomic.Int64
	)
	start := time.Now()
	for range conns {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !p.stop(int(issued.Add(1) - 1)) {
				t0 := time.Now()
				verify, err := op()
				if p.slowdown > 0 {
					spin(time.Duration(p.slowdown * float64(time.Since(t0))))
				}
				d := time.Since(t0)
				if err == nil && verify != nil {
					err = verify()
				}
				mu.Lock()
				st.record(d, err)
				if p.after != nil {
					p.after(st.attempted)
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	st.wall = time.Since(start)
	return st
}

// maxPhase is how long a timed phase may run when the host is too slow to
// complete its minimum op count in the asked-for time.
const maxPhase = 150 * time.Second

// timedPhase is a workload's timed phase: it lasts o's duration and at least
// minOps ops, so that op_ms_p99 always has enough samples beyond it. It reads
// peak memory with readRSS the moment the minOps-th op completes, so
// peak_rss_mb covers the same work in every run, however fast the host is.
func timedPhase(o options, minOps int, readRSS func() (float64, error)) (phase, *rssReading) {
	rss := &rssReading{err: fmt.Errorf("the timed phase completed fewer than %d ops in %v", minOps, maxPhase)}
	start := time.Now()
	deadline, limit := start.Add(o.duration()), start.Add(max(o.duration(), maxPhase))
	return phase{
		slowdown: o.slowdown,
		stop: func(i int) bool {
			now := time.Now()
			return !now.Before(limit) || (!now.Before(deadline) && i >= minOps)
		},
		after: func(done int) {
			if done == minOps {
				rss.mb, rss.err = readRSS()
			}
		},
	}, rss
}

// rssReading is peak memory (VmHWM) read during a timed phase.
type rssReading struct {
	mb  float64
	err error
}

// count stops a closed loop after n ops.
func count(n int) func(int) bool { return func(i int) bool { return i >= n } }

// outputChecker validates edbpd run outputs (POST /run responses and grid
// cell results) and collects them, by draw, for the workload digest.
type outputChecker struct {
	instr map[string]uint64 // kernel -> recorded instruction count

	mu     sync.Mutex
	hashes map[int]string // draw index -> hash of the request and its output
}

func newOutputChecker() (*outputChecker, error) {
	c := &outputChecker{instr: make(map[string]uint64), hashes: make(map[int]string)}
	for _, app := range serveApps {
		tr, err := workload.Cached(app, serveScale)
		if err != nil {
			return nil, err
		}
		c.instr[app] = tr.Instructions
	}
	return c, nil
}

// check verifies the output of draw seq: every recorded instruction of the
// kernel retired, the run completed, and it was simulated afresh. The
// digest entry pairs the request with the output minus its serving-side
// fields.
func (c *outputChecker) check(seq int, req runRequest, raw []byte) error {
	var out struct {
		App          string `json:"app"`
		Instructions uint64 `json:"instructions"`
		Truncated    bool   `json:"truncated"`
		CacheHit     bool   `json:"cache_hit"`
	}
	if err := json.Unmarshal(raw, &out); err != nil {
		return fmt.Errorf("bad output for %+v: %w", req, err)
	}
	switch want := c.instr[req.App]; {
	case out.App != req.App:
		return fmt.Errorf("asked for %s, got %s", req.App, out.App)
	case out.Instructions != want:
		return fmt.Errorf("%+v: %d instructions, kernel recorded %d", req, out.Instructions, want)
	case out.Truncated:
		return fmt.Errorf("%+v: truncated", req)
	case out.CacheHit:
		return fmt.Errorf("%+v: answered from the result cache", req)
	}
	var fields map[string]any
	if err := json.Unmarshal(raw, &fields); err != nil {
		return err
	}
	delete(fields, "cache_hit")
	delete(fields, "node")
	canon, err := json.Marshal([]any{req, fields})
	if err != nil {
		return err
	}
	sum := sha256.Sum256(canon)
	c.mu.Lock()
	c.hashes[seq] = hex.EncodeToString(sum[:])
	c.mu.Unlock()
	return nil
}

// digest is sha256 over the outputs of the first n draws. Every run of a
// seed sends those, so the digest depends on the seed and the simulator
// only, not on how many ops the host got through.
func (c *outputChecker) digest(n int) (string, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	hs := make([]string, 0, n)
	for i := range n {
		h, ok := c.hashes[i]
		if !ok {
			return "", fmt.Errorf("no checked output for draw %d", i)
		}
		hs = append(hs, h)
	}
	return digestOf(hs), nil
}

// postRun sends one synchronous POST /run and returns its output.
func postRun(c *http.Client, n *node, req runRequest, tp span.Context) ([]byte, error) {
	code, raw, err := postJSON(c, n.url+"/run", req, tp)
	if err != nil {
		return nil, err
	}
	if code != http.StatusOK {
		return nil, fmt.Errorf("POST /run %+v: HTTP %d: %s", req, code, raw)
	}
	return raw, nil
}

// warm sends requests one at a time, without output checks.
func warm(c *http.Client, n *node, reqs []runRequest) error {
	for _, r := range reqs {
		if _, err := postRun(c, n, r, span.Context{}); err != nil {
			return fmt.Errorf("warm-up on %s: %w", n.name, err)
		}
	}
	return nil
}

// setUpRepeatedly runs setUp setupReps times, stopping (and checking) every
// fleet but the last, which it returns with each set-up's time in seconds.
func setUpRepeatedly(c *http.Client, setUp func() (fleet, error)) (fleet, []float64, error) {
	var times []float64
	for rep := 1; ; rep++ {
		start := time.Now()
		f, err := setUp()
		if err != nil {
			return nil, nil, err
		}
		times = append(times, time.Since(start).Seconds())
		if rep == setupReps {
			return f, times, nil
		}
		if err := f.stop(c); err != nil {
			return nil, nil, err
		}
	}
}
