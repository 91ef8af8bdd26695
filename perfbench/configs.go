package main

import (
	"fmt"
	"math/rand/v2"
	"sync"

	"edbp/internal/cache"
	"edbp/internal/energy"
	"edbp/internal/nvm"
	"edbp/internal/sim"
)

// schemes pairs every sim.Scheme (in sim.Schemes order) with the name edbpd
// accepts for it and the name per-layer metrics use.
var schemes = []struct {
	scheme sim.Scheme
	wire   string // edbpd's "scheme" request field
	metric string // suffix of sim.ns_per_event.<S>
}{
	{sim.Baseline, "baseline", "Baseline"},
	{sim.SDBP, "sdbp", "SDBP"},
	{sim.Decay, "decay", "Decay"},
	{sim.AMC, "amc", "AMC"},
	{sim.Counting, "counting", "Counting"},
	{sim.RefTrace, "reftrace", "RefTrace"},
	{sim.EDBP, "edbp", "EDBP"},
	{sim.DecayEDBP, "decay+edbp", "DecayEDBP"},
	{sim.AMCEDBP, "amc+edbp", "AMCEDBP"},
	{sim.CountingEDBP, "counting+edbp", "CountingEDBP"},
	{sim.RefTraceEDBP, "reftrace+edbp", "RefTraceEDBP"},
	{sim.Ideal, "ideal", "Ideal"},
}

// runRequest is the subset of edbpd's POST /run body the benchmark sends.
// Fields left zero take edbpd's defaults.
type runRequest struct {
	App        string  `json:"app"`
	Scheme     string  `json:"scheme"`
	Trace      string  `json:"trace,omitempty"`
	Scale      float64 `json:"scale,omitempty"`
	Seed       uint64  `json:"seed,omitempty"`
	CacheBytes int     `json:"cache_bytes,omitempty"`
	CacheWays  int     `json:"cache_ways,omitempty"`
	Policy     string  `json:"policy,omitempty"`
	NVM        string  `json:"nvm,omitempty"`
	MemMB      int64   `json:"mem_mb,omitempty"`
	CapUF      float64 `json:"cap_uf,omitempty"`
}

// The serve and grid config space: the small kernels (10–22k events at
// scale 0.25) under every scheme, harvest environment and seed, crossed
// with the data-cache, memory and capacitor request fields. It holds
// 233,280 configs, so a run never repeats one.
var (
	serveApps     = []string{"dijkstra", "mpeg2", "djpeg", "cjpeg"}
	serveSeeds    = []uint64{1, 2, 3}
	serveBytes    = []int{2048, 4096, 8192}
	serveWays     = []int{2, 4, 8}
	servePolicies = []string{"LRU", "PLRU", "FIFO", "Random", "DRRIP"}
	serveNVMs     = []string{"ReRAM", "FeRAM", "STTRAM"}
	serveCapsUF   = []float64{0.22, 0.47, 1.0}
)

const serveScale = 0.25

func serveSpaceSize() int {
	return len(serveApps) * len(schemes) * len(energy.TraceKinds) * len(serveSeeds) *
		len(serveBytes) * len(serveWays) * len(servePolicies) * len(serveNVMs) * len(serveCapsUF)
}

// serveConfig decodes index i of the config space (mixed radix).
func serveConfig(i int) runRequest {
	pick := func(n int) int { d := i % n; i /= n; return d }
	r := runRequest{Scale: serveScale}
	r.App = serveApps[pick(len(serveApps))]
	r.Scheme = schemes[pick(len(schemes))].wire
	r.Trace = energy.TraceKinds[pick(len(energy.TraceKinds))].String()
	r.Seed = serveSeeds[pick(len(serveSeeds))]
	r.CacheBytes = serveBytes[pick(len(serveBytes))]
	r.CacheWays = serveWays[pick(len(serveWays))]
	r.Policy = servePolicies[pick(len(servePolicies))]
	r.NVM = serveNVMs[pick(len(serveNVMs))]
	r.CapUF = serveCapsUF[pick(len(serveCapsUF))]
	return r
}

// configDraw hands out configs of the serve space in a seeded random order,
// never the same one twice. It is safe for concurrent use.
type configDraw struct {
	mu    sync.Mutex
	rng   *rand.Rand
	used  map[int]bool
	drawn int
}

func newConfigDraw(seed uint64) *configDraw {
	return &configDraw{rng: rand.New(rand.NewPCG(seed, 0x5e77e)), used: make(map[int]bool)}
}

// next returns the next config with its place in the draw order, which
// the seed alone fixes however the ops that send them interleave.
func (d *configDraw) next() (int, runRequest) {
	d.mu.Lock()
	defer d.mu.Unlock()
	n := serveSpaceSize()
	for {
		i := d.rng.IntN(n)
		if !d.used[i] {
			d.used[i] = true
			d.drawn++
			return d.drawn - 1, serveConfig(i)
		}
	}
}

// warmupRequests covers every kernel and every (environment, seed) harvest
// trace of the serve space once each, so a node has recorded and generated
// everything the timed phase uses. memMB marks them: timed configs keep
// edbpd's default memory size, so a warm-up config never collides with one.
func warmupRequests(memMB int64) []runRequest {
	var out []runRequest
	for i, k := range energy.TraceKinds {
		for j, seed := range serveSeeds {
			n := i*len(serveSeeds) + j
			out = append(out, runRequest{
				App: serveApps[n%len(serveApps)], Scheme: schemes[n%len(schemes)].wire,
				Trace: k.String(), Scale: serveScale, Seed: seed, MemMB: memMB,
			})
		}
	}
	return out
}

// simConfig translates a request into the sim.Config edbpd would run for
// it, so in-process layer timings see the same configurations.
func simConfig(r runRequest) (sim.Config, error) {
	var cfg sim.Config
	var scheme sim.Scheme
	found := false
	for _, s := range schemes {
		if s.wire == r.Scheme {
			scheme, found = s.scheme, true
		}
	}
	if !found {
		return cfg, fmt.Errorf("unknown scheme %q", r.Scheme)
	}
	cfg = sim.Default(r.App, scheme)
	cfg.Scale = r.Scale
	cfg.SourceSeed = r.Seed
	cfg.DCacheBytes = r.CacheBytes
	cfg.DCacheWays = r.CacheWays
	cfg.Capacitor.Capacitance = r.CapUF * 1e-6
	var err error
	if cfg.TraceKind, err = energy.ParseTraceKind(r.Trace); err != nil {
		return cfg, err
	}
	if cfg.DCachePolicy, err = cache.ParsePolicy(r.Policy); err != nil {
		return cfg, err
	}
	if cfg.MemTech, err = nvm.ParseTech(r.NVM); err != nil {
		return cfg, err
	}
	return cfg, nil
}
