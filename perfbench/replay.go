package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"

	"edbp/internal/energy"
	"edbp/internal/sim"
	"edbp/internal/workload"
)

// The replay cells are Figure 8's traffic at bench_test.go's benchOptions
// size: six kernels at scale 0.25 under every scheme, against three RFHome
// harvest traces.
var (
	replayApps  = []string{"crc32", "adpcm_d", "susan", "sha", "dijkstra", "rijndael"}
	replaySeeds = []uint64{1, 2, 3}
)

const replayScale = 0.25

type cell struct {
	app    string
	scheme sim.Scheme
	seed   uint64 // RFHome harvest-trace seed
	scale  float64
}

func (c cell) String() string {
	return fmt.Sprintf("%s@%g/%v/RFHome#%d", c.app, c.scale, c.scheme, c.seed)
}

func (c cell) config() sim.Config {
	cfg := sim.Default(c.app, c.scheme)
	cfg.Scale = c.scale
	cfg.SourceSeed = c.seed
	return cfg
}

func cellsFor(apps []string, seeds []uint64, scale float64) []cell {
	var out []cell
	for _, seed := range seeds {
		for _, app := range apps {
			for _, s := range schemes {
				out = append(out, cell{app, s.scheme, seed, scale})
			}
		}
	}
	return out
}

// replaySetup times the cold host-side caches the replay cells read: every
// kernel through workload.Cached and every RFHome trace through
// energy.CachedTrace. Those caches fill once per process, so repetitions
// after the first time the same work on their miss path (App.Record plus
// the columnar view, energy.NewTrace). It returns each repetition's time.
func replaySetup(apps []string, seeds []uint64, scale float64, reps int) ([]float64, error) {
	times := make([]float64, 0, reps)
	for rep := range reps {
		runtime.GC()
		start := time.Now()
		for _, app := range apps {
			if rep == 0 {
				if _, err := workload.Cached(app, scale); err != nil {
					return nil, err
				}
				continue
			}
			a, err := workload.ByName(app)
			if err != nil {
				return nil, err
			}
			a.Record(scale).Columns()
		}
		for _, seed := range seeds {
			if rep == 0 {
				energy.CachedTrace(energy.RFHome, seed)
			} else {
				energy.NewTrace(energy.RFHome, seed)
			}
		}
		times = append(times, time.Since(start).Seconds())
	}
	runtime.GC()
	return times, nil
}

// replayChecker validates every replay Result and collects the distinct
// outputs for the workload digest.
type replayChecker struct {
	instr map[string]uint64          // kernel -> recorded instruction count
	enc   map[cell][sha256.Size]byte // cell -> hash of its first encoding
}

func newReplayChecker(apps []string, scale float64) (*replayChecker, error) {
	c := &replayChecker{instr: make(map[string]uint64), enc: make(map[cell][sha256.Size]byte)}
	for _, app := range apps {
		tr, err := workload.Cached(app, scale)
		if err != nil {
			return nil, err
		}
		c.instr[app] = tr.Instructions
	}
	return c, nil
}

// relTol matches internal/fuzz's tolerance for the capacitor ledger, whose
// terms are independent running sums over the whole run.
const relTol = 1e-6

// check verifies one Result: complete, every recorded instruction retired,
// the capacitor ledger closed, and byte-identical to earlier runs of the
// same cell.
func (c *replayChecker) check(cl cell, r *sim.Result) error {
	if r.Truncated {
		return fmt.Errorf("%v: truncated", cl)
	}
	if want := c.instr[cl.app]; r.Instructions != want {
		return fmt.Errorf("%v: %d instructions, kernel recorded %d", cl, r.Instructions, want)
	}
	l := r.Cap
	lhs := l.Initial + l.Harvested - l.Wasted - r.Energy.CapacitorLeak - l.Drained
	if math.Abs(lhs-l.Final) > relTol*math.Max(l.Initial+l.Harvested, 1e-12) {
		return fmt.Errorf("%v: capacitor ledger off by %g J", cl, lhs-l.Final)
	}
	data, err := sim.EncodeResult(r)
	if err != nil {
		return fmt.Errorf("%v: %w", cl, err)
	}
	sum := sha256.Sum256(data)
	if prev, ok := c.enc[cl]; ok && prev != sum {
		return fmt.Errorf("%v: repeated run encodes differently", cl)
	}
	c.enc[cl] = sum
	return nil
}

// digest is sha256 over the sorted hashes of the distinct outputs seen.
func (c *replayChecker) digest() string {
	hs := make([]string, 0, len(c.enc))
	for _, h := range c.enc {
		hs = append(hs, hex.EncodeToString(h[:]))
	}
	return digestOf(hs)
}

func digestOf(hashes []string) string {
	sort.Strings(hashes)
	h := sha256.New()
	for _, s := range hashes {
		h.Write([]byte(s + "\n"))
	}
	return hex.EncodeToString(h.Sum(nil))
}

// replayFixedOps is the replay workload's fixed op count: a timed phase
// makes at least this many runs, and peak_rss_mb is read when they are done.
const replayFixedOps = 1000

// replayLoop runs cells one sim.Run at a time, in an order the seed
// shuffles afresh for each pass over them, until p stops it. It also
// returns the cell index of every op in issue order; with one run in
// flight, ops complete in that order, so ran[i] is the cell of the loop's
// lat[i].
func replayLoop(cells []cell, seed uint64, chk *replayChecker, p phase) (loopStats, []int) {
	rng := rand.New(rand.NewPCG(seed, 0x2e91a7))
	var order, ran []int
	st := closedLoop(1, p, func() (func() error, error) {
		if len(ran)%len(cells) == 0 {
			order = rng.Perm(len(cells))
		}
		i := order[len(ran)%len(cells)]
		ran = append(ran, i)
		cl := cells[i]
		res, err := sim.Run(cl.config())
		return func() error { return chk.check(cl, res) }, err
	})
	return st, ran
}

// bestTimings are replay's timings, taken from each cell's lowest latency
// over its runs in the phase: ops_per_s is the cells ÷ the sum of their
// bests, and the percentiles are over the bests. A cell's runs are
// identical work and the host's interference only ever slows one, so its
// best is its steadiest cost; on a shared host whose speed for the engine
// drifts for minutes at a time, wall-clock replay figures spread two to
// three times as far from run to run (README).
func bestTimings(ncells int, ran []int, lat []float64) (timings, error) {
	best := make([]float64, ncells)
	for i := range best {
		best[i] = math.Inf(1)
	}
	for i, c := range ran {
		best[c] = math.Min(best[c], lat[i])
	}
	sum := 0.0
	for c, b := range best {
		if math.IsInf(b, 1) {
			return timings{}, fmt.Errorf("replay cell %d never ran in the timed phase", c)
		}
		sum += b
	}
	return timings{opsPerS: float64(ncells) / (sum / 1e3), lat: best}, nil
}

func runReplay(o options) (*report, error) {
	setups, err := replaySetup(replayApps, replaySeeds, replayScale, setupReps)
	if err != nil {
		return nil, err
	}
	chk, err := newReplayChecker(replayApps, replayScale)
	if err != nil {
		return nil, err
	}
	cells := cellsFor(replayApps, replaySeeds, replayScale)
	// The repeated set-ups leave garbage behind: return it to the OS and
	// restart the high-water mark, so peak_rss_mb covers the timed phase.
	debug.FreeOSMemory()
	resetErr := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
	p, rss := timedPhase(o, replayFixedOps, func() (float64, error) { return vmHWM(os.Getpid()) })
	st, ran := replayLoop(cells, o.seed, chk, p)
	if rss.err != nil {
		return nil, rss.err
	}
	best, err := bestTimings(len(cells), ran, st.lat)
	if err != nil {
		return nil, err
	}
	rep := endToEnd(st, best, setups, rss.mb)
	wall := wallTimings(st)
	rep.note("wall clock", fmt.Sprintf("%.6g ops/s, op_ms_p50 %.6g, op_ms_p99 %.6g over %d ops (%.1f runs a cell)",
		wall.opsPerS, quantile(wall.lat, 0.50), quantile(wall.lat, 0.99), len(wall.lat), float64(len(ran))/float64(len(cells))))
	if resetErr != nil {
		rep.note("peak_rss_mb includes the set-ups; resetting VmHWM failed", resetErr)
	}
	rep.note("digest", chk.digest())
	return rep, nil
}
