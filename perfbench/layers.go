package main

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"strings"
	"sync"
	"time"

	"edbp/internal/energy"
	"edbp/internal/sim"
	"edbp/internal/span"
	"edbp/internal/store"
	"edbp/internal/trace"
	"edbp/internal/workload"
)

// Sizes of the traced run. Every phase has a fixed amount of work, so the
// per-layer numbers of two runs cover the same samples.
const (
	layerReps       = 5    // repetitions of the kernel-recording and trace-generation timings
	enginePasses    = 3    // passes over the replay cells, each timing every cell twice
	recorderConfigs = 96   // serve configs timed with and without a device recorder
	recorderReps    = 3    // passes over them
	storeAppends    = 1200 // store.PutResult calls
	tracedServeOps  = 1200 // POST /run requests read back from GET /trace
	tracedGrids     = 180  // grids read back from GET /trace/{grid-id}
)

// runLayers is the traced run. It times calls into each module's public
// functions in process, then reads the spans and counters edbpd exports
// during a serve phase and a grid phase, and reports every per-layer
// metric.
func runLayers(o options) (*report, error) {
	rep := newReport()
	if err := hostCacheLayers(rep); err != nil {
		return nil, err
	}
	results, err := engineLayers(rep)
	if err != nil {
		return nil, err
	}
	if err := storeLayer(rep, o, results); err != nil {
		return nil, err
	}
	if err := recorderLayer(rep, o); err != nil {
		return nil, err
	}
	if err := serveLayers(rep, o); err != nil {
		return nil, err
	}
	if err := gridLayers(rep, o); err != nil {
		return nil, err
	}
	return rep, nil
}

// op counts one traced-run operation and its check.
func (r *report) op(err error) {
	r.Attempted++
	if err != nil {
		r.Failed++
		r.fail("%v", err)
	}
}

// hostCacheLayers times what the host-side caches hold: kernel recording
// (workload.App.Record over the replay kernels) and harvest-trace
// generation (energy.NewTrace per environment and seed of the serve space).
func hostCacheLayers(rep *report) error {
	var record []float64
	for range layerReps {
		total := time.Duration(0)
		for _, app := range replayApps {
			a, err := workload.ByName(app)
			if err != nil {
				return err
			}
			t0 := time.Now()
			a.Record(replayScale)
			total += time.Since(t0)
		}
		record = append(record, ms(total))
	}
	rep.set("workload.record_ms", "ms", median(record), len(record))
	rep.note("workload.record_ms spread %", spreadPct(record))

	var gen []float64
	for range layerReps {
		for _, k := range energy.TraceKinds {
			for _, seed := range serveSeeds {
				t0 := time.Now()
				energy.NewTrace(k, seed)
				gen = append(gen, ms(time.Since(t0)))
			}
		}
	}
	rep.set("energy.trace_gen_ms", "ms", median(gen), len(gen))
	return nil
}

// enginePass is one pass over the replay cells.
type enginePass struct {
	rf, loop []time.Duration // host time per scheme: RFHome, always-on
	events   []int64         // trace events per scheme
	outages  int64
}

// engineLayers runs every replay cell alone, enginePasses times, twice per
// pass: on its RFHome trace and on energy.ConstantSource{P: 1}, which never
// browns out and so isolates the event loop, cache probes and predictor
// hooks. It returns the last pass's RFHome Results.
func engineLayers(rep *report) ([]*sim.Result, error) {
	if _, err := replaySetup(replayApps, replaySeeds, replayScale, 1); err != nil {
		return nil, err
	}
	chk, err := newReplayChecker(replayApps, replayScale)
	if err != nil {
		return nil, err
	}
	idx := make(map[sim.Scheme]int)
	for i, s := range schemes {
		idx[s.scheme] = i
	}
	cells := cellsFor(replayApps, replaySeeds, replayScale)
	var passes []enginePass
	var results []*sim.Result
	for p := range enginePasses {
		ps := enginePass{
			rf: make([]time.Duration, len(schemes)), loop: make([]time.Duration, len(schemes)),
			events: make([]int64, len(schemes)),
		}
		results = results[:0]
		for _, cl := range cells {
			i := idx[cl.scheme]
			tr, err := workload.Cached(cl.app, cl.scale)
			if err != nil {
				return nil, err
			}
			cfg := cl.config()
			t0 := time.Now()
			res, err := sim.Run(cfg)
			ps.rf[i] += time.Since(t0)
			if err == nil {
				err = chk.check(cl, res)
			}
			rep.op(err)
			if err != nil {
				continue
			}
			ps.events[i] += int64(len(tr.Events))
			ps.outages += int64(res.Outages)
			results = append(results, res)

			cfg.Source = energy.ConstantSource{P: 1}
			t0 = time.Now()
			res, err = sim.Run(cfg)
			ps.loop[i] += time.Since(t0)
			if err == nil && res.Outages != 0 {
				err = fmt.Errorf("%v: %d outages on a constant 1 W source", cl, res.Outages)
			}
			rep.op(err)
		}
		passes = append(passes, ps)
		if p > 0 && (ps.outages != passes[0].outages || sum(ps.events) != sum(passes[0].events)) {
			rep.fail("pass %d counted %d events and %d outages, pass 0 %d and %d",
				p, sum(ps.events), ps.outages, sum(passes[0].events), passes[0].outages)
		}
	}

	var worst float64
	for i, s := range schemes {
		var rf, loop []float64
		for _, ps := range passes {
			rf = append(rf, float64(ps.rf[i])/float64(ps.events[i]))
			loop = append(loop, float64(ps.loop[i])/float64(ps.events[i]))
		}
		rep.set("sim.ns_per_event."+s.metric, "ns/event", median(rf), len(rf))
		rep.set("sim.loop_ns_per_event."+s.metric, "ns/event", median(loop), len(loop))
		worst = math.Max(worst, math.Max(spreadPct(rf), spreadPct(loop)))
	}
	rep.set("sim.ns_per_event_spread_pct", "%", worst, len(passes))

	var outage, ideal []float64
	for _, ps := range passes {
		outage = append(outage, us(sumDur(ps.rf)-sumDur(ps.loop))/float64(ps.outages))
		ideal = append(ideal, float64(ps.rf[idx[sim.Ideal]])/float64(ps.rf[idx[sim.Baseline]]))
	}
	rep.set("sim.outage_us", "us", median(outage), len(outage))
	rep.set("sim.ideal_ratio", "ratio", median(ideal), len(ideal))
	rep.note("sim.events", fmt.Sprintf("%d per pass (the recorded traces' length)", sum(passes[0].events)))
	rep.set("sim.outages", "count", float64(passes[0].outages), len(cells))

	var enc []float64
	bytes := 0
	for range layerReps {
		for _, r := range results {
			t0 := time.Now()
			data, err := sim.EncodeResult(r)
			enc = append(enc, us(time.Since(t0)))
			if err != nil {
				return nil, err
			}
			bytes += len(data)
		}
	}
	rep.set("sim.encode_us", "us", median(enc), len(enc))
	rep.set("sim.encode_bytes", "B", float64(bytes)/float64(len(enc)), len(enc))
	return results, nil
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

func sumDur(ds []time.Duration) time.Duration {
	var t time.Duration
	for _, d := range ds {
		t += d
	}
	return t
}

// storeLayer appends Results to a fresh store, one store.PutResult at a
// time.
func storeLayer(rep *report, o options, results []*sim.Result) error {
	dir, err := os.MkdirTemp(o.workdir, "store-")
	if err != nil {
		return err
	}
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	lat := make([]float64, 0, storeAppends)
	for i := range storeAppends {
		r := results[i%len(results)]
		t0 := time.Now()
		err := st.PutResult(store.KeyFor(r.Config, "perfbench"), r, time.Now().Unix())
		lat = append(lat, us(time.Since(t0)))
		if err != nil {
			st.Close()
			return fmt.Errorf("store append: %w", err)
		}
	}
	if err := st.Close(); err != nil {
		return err
	}
	rep.set("store.append_us_p50", "us", quantile(lat, 0.50), len(lat))
	rep.set("store.append_us_p99", "us", quantile(lat, 0.99), len(lat))
	return nil
}

// recorderLayer times sim.Run on serve configs with and without the device
// recorder edbpd attaches to every run, alternating which goes first.
func recorderLayer(rep *report, o options) error {
	chk, err := newOutputChecker() // records the serve kernels
	if err != nil {
		return err
	}
	draw := newConfigDraw(o.seed)
	cfgs := make([]sim.Config, recorderConfigs)
	for i := range cfgs {
		_, req := draw.next()
		if cfgs[i], err = simConfig(req); err != nil {
			return err
		}
		energy.CachedTrace(cfgs[i].TraceKind, cfgs[i].SourceSeed)
	}
	timed := func(cfg sim.Config) time.Duration {
		t0 := time.Now()
		res, err := sim.Run(cfg)
		d := time.Since(t0)
		if err == nil && (res.Truncated || res.Instructions != chk.instr[cfg.App]) {
			err = fmt.Errorf("%s/%v: truncated=%v, %d instructions", cfg.App, cfg.Scheme, res.Truncated, res.Instructions)
		}
		rep.op(err)
		return d
	}
	var pct []float64
	for r := range recorderReps {
		var with, without time.Duration
		for i, cfg := range cfgs {
			traced := cfg
			// edbpd's options for the recorder it attaches to each run.
			traced.Recorder = trace.NewRecorder(trace.Options{Label: "perfbench", EventCap: 4096, SampleCap: 256, SampleEvery: 1e-3})
			if (i+r)%2 == 0 {
				without += timed(cfg)
				with += timed(traced)
			} else {
				with += timed(traced)
				without += timed(cfg)
			}
		}
		pct = append(pct, 100*float64(with-without)/float64(without))
	}
	rep.set("trace.recorder_overhead_pct", "%", median(pct), len(pct))
	return nil
}

// newTraceparent mints a random client span context, so the server's spans
// for one request can be told apart and matched to its round trip.
func newTraceparent() span.Context {
	var c span.Context
	binary.LittleEndian.PutUint64(c.Trace[:8], rand.Uint64()|1)
	binary.LittleEndian.PutUint64(c.Trace[8:], rand.Uint64())
	binary.LittleEndian.PutUint64(c.Span[:], rand.Uint64()|1)
	return c
}

// serveLayers runs the serve workload for a fixed number of requests and
// splits each round trip along the spans edbpd recorded for it.
func serveLayers(rep *report, o options) error {
	c := newClient(serveConns)
	chk, err := newOutputChecker()
	if err != nil {
		return err
	}
	f, err := setUpServe(o, c)
	if err != nil {
		return err
	}
	n := f[0]
	counters := func() (hits, misses float64, err error) {
		if hits, err = metricValue(c, n, "edbpd_cache_hits_total"); err != nil {
			return 0, 0, err
		}
		misses, err = metricValue(c, n, "edbpd_cache_misses_total")
		return hits, misses, err
	}
	hits0, misses0, err := counters()
	if err != nil {
		f.kill()
		return err
	}
	var mu sync.Mutex
	rtt := make(map[span.TraceID]time.Duration)
	st := serveLoop(c, n, newConfigDraw(o.seed), chk, phase{stop: count(tracedServeOps)}, func(tp span.Context, d time.Duration) {
		mu.Lock()
		rtt[tp.Trace] = d
		mu.Unlock()
	})
	rep.add(st)
	hits1, misses1, err := counters()
	if err != nil {
		f.kill()
		return err
	}
	dropped, err := metricValue(c, n, "edbpd_spans_dropped_total")
	if err != nil {
		f.kill()
		return err
	}
	recs, err := spansOf(c, n.url+"/trace")
	if err != nil {
		f.kill()
		return err
	}
	if err := f.stop(c); err != nil {
		return err
	}
	rep.flags = append(rep.flags, flagsOf(f)...)

	set := newSpanSet(recs)
	var total, wire, handler, runSelf, lookup, simulate, appendMs []float64
	for _, post := range set.named("POST /run") {
		d, ok := rtt[post.Trace]
		if !ok {
			continue // a warm-up request
		}
		run, ok := set.child(post, "run")
		cl, ok1 := set.child(run, "cache-lookup")
		sm, ok2 := set.child(run, "simulate")
		sa, ok3 := set.child(run, "store-append")
		if !ok || !ok1 || !ok2 || !ok3 {
			continue
		}
		total = append(total, ms(d))
		wire = append(wire, ms(d-post.Dur))
		handler = append(handler, ms(selfTime(post, set.childrenOf(post))))
		runSelf = append(runSelf, ms(selfTime(run, set.childrenOf(run))))
		lookup = append(lookup, us(cl.Dur))
		simulate = append(simulate, ms(sm.Dur))
		appendMs = append(appendMs, ms(sa.Dur))
	}
	if len(total) != st.attempted {
		rep.fail("spans found for %d of %d serve requests", len(total), st.attempted)
	}
	if len(total) == 0 {
		return fmt.Errorf("no serve request could be matched to its spans")
	}
	n1 := len(total)
	rep.set("edbpd.wire_ms_p50", "ms", median(wire), n1)
	rep.set("edbpd.handler_self_ms_p50", "ms", median(handler), n1)
	rep.set("edbpd.run_self_ms_p50", "ms", median(runSelf), n1)
	rep.set("edbpd.cache_lookup_us_p50", "us", median(lookup), n1)
	rep.set("edbpd.simulate_ms_p50", "ms", median(simulate), n1)
	rep.set("edbpd.simulate_ms_p99", "ms", quantile(simulate, 0.99), n1)
	rep.set("edbpd.store_append_ms_p50", "ms", median(appendMs), n1)
	// Checks, not measurements: every request must miss the result cache,
	// and the span ring must have held every span of the phase.
	missRatio := (misses1 - misses0) / (misses1 - misses0 + hits1 - hits0)
	rep.note("edbpd.cache_miss_ratio", missRatio)
	if missRatio != 1 {
		rep.fail("edbpd.cache_miss_ratio is %g, want 1", missRatio)
	}
	rep.note("edbpd.spans_dropped", dropped)

	// The parts partition the round trip, so their means must add up to it.
	parts := mean(wire) + mean(handler) + mean(runSelf) + mean(lookup)/1000 + mean(simulate) + mean(appendMs)
	gap := (parts - mean(total)) / mean(total)
	rep.note("serve accounting", fmt.Sprintf("parts %.4f ms vs round trip %.4f ms (%+.2f%%)", parts, mean(total), 100*gap))
	if math.Abs(gap) > 0.10 {
		rep.fail("serve span parts add to %.4f ms, round trip is %.4f ms", parts, mean(total))
	}
	return nil
}

// gridLayers runs the grid workload for a fixed number of grids and splits
// each cell's dispatch along its assembled cross-node trace.
func gridLayers(rep *report, o options) error {
	c := newClient(4)
	chk, err := newOutputChecker()
	if err != nil {
		return err
	}
	f, err := setUpGrid(o, c)
	if err != nil {
		return err
	}
	coord, workers := f[0], f[1:]
	counters := func() (polls, frames float64, err error) {
		for _, w := range workers {
			recs, err := spansOf(c, w.url+"/trace")
			if err != nil {
				return 0, 0, err
			}
			for _, r := range recs {
				if strings.HasPrefix(r.Name, "GET /jobs/") {
					polls++
				}
			}
		}
		frames, err = metricValue(c, coord, "edbpd_cluster_frames_total")
		return polls, frames, err
	}
	polls0, frames0, err := counters()
	if err != nil {
		f.kill()
		return err
	}
	var ids []string
	st := gridLoop(c, coord, newConfigDraw(o.seed), chk, phase{stop: count(tracedGrids)}, func(id string) {
		ids = append(ids, id)
	})
	rep.add(st)
	polls1, frames1, err := counters()
	if err != nil {
		f.kill()
		return err
	}
	var gridMs, dispatch, hop, queueWait, workerRun []float64
	attempts := 0 // dispatch spans: one per attempt at a cell
	for _, id := range ids {
		recs, err := spansOf(c, coord.url+"/trace/"+id)
		if err != nil {
			f.kill()
			return err
		}
		set := newSpanSet(recs)
		for _, g := range set.named("grid") {
			gridMs = append(gridMs, ms(g.Dur))
		}
		for _, d := range set.named("dispatch") {
			attempts++
			under := set.descendants(d, "queue-wait", "run")
			if len(under) != 2 {
				rep.fail("grid %s: dispatch with %d worker spans under it, want queue-wait and run", id, len(under))
				continue
			}
			dispatch = append(dispatch, ms(d.Dur))
			hop = append(hop, ms(d.Dur-covered(d, under)))
			for _, u := range under {
				if u.Name == "queue-wait" {
					queueWait = append(queueWait, ms(u.Dur))
				} else {
					workerRun = append(workerRun, ms(u.Dur))
				}
			}
		}
	}
	if err := f.stop(c); err != nil {
		return err
	}
	rep.flags = append(rep.flags, flagsOf(f)...)
	if len(dispatch) == 0 || len(gridMs) == 0 {
		return fmt.Errorf("no grid spans read back")
	}
	cells := float64(len(ids) * gridCells)
	rep.set("cluster.grid_ms_p50", "ms", median(gridMs), len(gridMs))
	rep.set("cluster.dispatch_ms_p50", "ms", median(dispatch), len(dispatch))
	rep.set("cluster.dispatch_ms_p99", "ms", quantile(dispatch, 0.99), len(dispatch))
	rep.set("cluster.hop_ms_p50", "ms", median(hop), len(hop))
	rep.set("cluster.hop_ms_p99", "ms", quantile(hop, 0.99), len(hop))
	rep.set("cluster.queue_wait_ms_p50", "ms", median(queueWait), len(queueWait))
	rep.set("cluster.worker_run_ms_p50", "ms", median(workerRun), len(workerRun))
	rep.set("cluster.polls_per_cell", "count", (polls1-polls0)/cells, int(cells))
	rep.set("cluster.relay_frames_per_cell", "count", (frames1-frames0)/cells, int(cells))
	// A check, not a measurement: gridLoop fails any cell that took more
	// than one attempt.
	rep.note("cluster.attempts_per_cell", float64(attempts)/cells)
	return nil
}
