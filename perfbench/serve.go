package main

import (
	"fmt"
	"net/http"
	"time"

	"edbp/internal/span"
)

// serveConns is how many connections send POST /run in the serve workload.
const serveConns = 2

// setUpServe launches one edbpd with its flags at their defaults (plus
// -store) and warms it on every kernel and harvest trace of the serve
// space.
func setUpServe(o options, c *http.Client) (fleet, error) {
	n, err := startNode(o.edbpd, o.workdir, "edbpd")
	if err != nil {
		return nil, err
	}
	f := fleet{n}
	if err := n.waitHealthy(c, 30*time.Second); err != nil {
		f.kill()
		return nil, err
	}
	if err := warm(c, n, warmupRequests(32)); err != nil {
		f.kill()
		return nil, err
	}
	return f, nil
}

// serveFixedOps is the serve workload's fixed op count: a timed phase sends
// at least this many requests, peak_rss_mb is read when they are done, and
// the digest covers their outputs.
const serveFixedOps = 10000

// serveLoop sends configs the server has not seen from serveConns
// connections until p stops it. onDone, when non-nil, observes each
// request's traceparent and round trip.
func serveLoop(c *http.Client, n *node, draw *configDraw, chk *outputChecker, p phase,
	onDone func(tp span.Context, rtt time.Duration)) loopStats {
	return closedLoop(serveConns, p, func() (func() error, error) {
		seq, req := draw.next()
		var tp span.Context
		if onDone != nil {
			tp = newTraceparent()
		}
		t0 := time.Now()
		raw, err := postRun(c, n, req, tp)
		if onDone != nil && err == nil {
			onDone(tp, time.Since(t0))
		}
		return func() error { return chk.check(seq, req, raw) }, err
	})
}

func runServe(o options) (*report, error) {
	c := newClient(serveConns)
	chk, err := newOutputChecker()
	if err != nil {
		return nil, err
	}
	f, setups, err := setUpRepeatedly(c, func() (fleet, error) { return setUpServe(o, c) })
	if err != nil {
		return nil, err
	}
	p, rss := timedPhase(o, serveFixedOps, f.peakRSSMB)
	st := serveLoop(c, f[0], newConfigDraw(o.seed), chk, p, nil)
	return finishFleet(c, f, st, setups, rss, chk, serveFixedOps)
}

// finishFleet stops the fleet with SIGTERM and builds the end-to-end
// report, with the digest over the outputs of the first draws configs.
func finishFleet(c *http.Client, f fleet, st loopStats, setups []float64, rss *rssReading,
	chk *outputChecker, draws int) (*report, error) {
	if err := f.stop(c); err != nil {
		return nil, err
	}
	if rss.err != nil {
		return nil, rss.err
	}
	rep := endToEnd(st, wallTimings(st), setups, rss.mb)
	if d, err := chk.digest(draws); err != nil {
		rep.fail("digest: %v", err)
	} else {
		rep.note("digest", fmt.Sprintf("%s (outputs of the first %d configs drawn)", d, draws))
	}
	rep.flags = flagsOf(f)
	return rep, nil
}
