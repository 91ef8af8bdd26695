// Package fuzz is the simulator's configuration-matrix fuzzer: it derives
// thousands of seeded-reproducible sim.Configs — sweeping capacitor size,
// checkpoint/restore thresholds, cache geometry, replacement policy, NVM
// technology, harvesting environment and batching — runs them through a
// fail-fast worker pool, and checks every result against a catalog of
// machine-verifiable invariants (see invariants.go). A sampled subset is
// additionally cancelled mid-run to prove partial results stay well-formed
// at every poll point. (Bit-exactness of the results themselves is pinned
// by the golden Result corpus in internal/sim, which includes the first
// 200 seed-1 cases this generator produces.)
//
// Everything is deterministic: the same master seed reproduces the same
// corpus, the same violations, and byte-identical reports (no wall-clock
// time ever reaches the output). On a violation, Shrink bisects the
// failing configuration dimension by dimension to a minimal reproducer
// and FormatConfig prints it as a ready-to-paste sim.Config literal.
package fuzz

import (
	"math"
	"runtime"
	"time"

	"edbp/internal/cache"
	"edbp/internal/energy"
	"edbp/internal/nvm"
	"edbp/internal/obs"
	"edbp/internal/sim"
	"edbp/internal/xrand"
)

// Options parameterize a fuzzing campaign. The zero value is usable and
// selects the documented defaults.
type Options struct {
	// Seed is the master seed; every case seed derives from it. 0 means 1.
	Seed uint64
	// Cases is the corpus size. 0 means 256.
	Cases int
	// Workers bounds parallel simulations; 0 means GOMAXPROCS.
	Workers int
	// Budget is the wall-clock budget; once exceeded, no new case is
	// dispatched and in-flight cases are cancelled (they count as skipped,
	// not as violations). 0 means unlimited. Note that a binding budget
	// makes the executed-corpus size timing-dependent; byte-for-byte
	// report determinism holds when the budget does not bind.
	Budget time.Duration
	// CancelEvery cancels every Nth case mid-run (at a seed-derived
	// powered-sample index) and validates the partial result. 0 means 8;
	// negative disables.
	CancelEvery int
	// Invariants filters the catalog by name; empty means all.
	Invariants []string
	// Extra appends campaign-specific invariants to the catalog. The
	// shrinker golden test injects a synthetic always-failing invariant
	// through this hook.
	Extra []Invariant
	// WCET enables the worst-case time-to-completion analysis (wcet.go).
	WCET bool
	// Registry, when non-nil, receives campaign counters (cases run,
	// violations by invariant, truncated runs, probe counts); Report
	// renders its snapshot as the observability table.
	Registry *obs.Registry
	// Log, when non-nil, receives coarse progress lines (not part of the
	// deterministic report).
	Log func(format string, args ...any)
}

func (o Options) normalize() Options {
	if o.Seed == 0 {
		o.Seed = 1
	}
	if o.Cases == 0 {
		o.Cases = 256
	}
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.CancelEvery == 0 {
		o.CancelEvery = 8
	}
	return o
}

// Case is one fuzzed configuration: Index orders the corpus, Seed is the
// per-case seed every random dimension (and the cancellation probe point)
// derives from, and Config is valid by construction — Generate never
// emits a config sim.Run would reject, which a generator test pins.
type Case struct {
	Index  int
	Seed   uint64
	Config sim.Config
}

// fuzzApps are the kernels the generator draws from: a spread over the
// suites (auto/network/security/telecomm/consumer) kept small enough that
// workload.Cached amortizes recording across the whole corpus.
var fuzzApps = []string{"adpcm_c", "bitcount", "crc32", "dijkstra", "fft", "qsort", "sha", "stringsearch"}

// fuzzScales shrink the kernels so a corpus of thousands stays in seconds;
// two sizes keep trace-length-dependent paths (batch windows, ring caps)
// honest.
var fuzzScales = []float64{0.02, 0.05}

// fuzzMaxSimTime bounds energy-starved configurations: a fuzzed capacitor
// can be too small to ever finish the kernel, and the truncation path is
// itself under test.
const fuzzMaxSimTime = 10

// caseSeed derives the per-case seed from the master seed.
func caseSeed(master uint64, index int) uint64 {
	return xrand.New(master^0x66757a7a5f763100).Next() + uint64(index)*0x9e3779b97f4a7c15
}

// Generate derives the corpus for the given options. Schemes round-robin
// so every corpus of at least len(sim.Schemes) cases covers all twelve;
// every other dimension is drawn from the case seed.
func Generate(opts Options) []Case {
	opts = opts.normalize()
	cases := make([]Case, opts.Cases)
	for i := range cases {
		seed := caseSeed(opts.Seed, i)
		cases[i] = Case{Index: i, Seed: seed, Config: genConfig(seed, i)}
	}
	return cases
}

// genConfig derives one configuration from a case seed. Validity is by
// construction: voltage ladders are built in order, cache geometries stay
// powers of two with ways dividing blocks (single-set geometries
// included), and PredictICache only ever rides on an SRAM I-cache.
func genConfig(seed uint64, index int) sim.Config {
	rng := xrand.New(seed)
	cfg := sim.Config{
		App:    fuzzApps[rng.Intn(len(fuzzApps))],
		Scale:  fuzzScales[rng.Intn(len(fuzzScales))],
		Scheme: sim.Schemes[index%len(sim.Schemes)],

		TraceKind:  energy.TraceKinds[rng.Intn(len(energy.TraceKinds))],
		SourceSeed: 1 + rng.Next()%8, // small range so energy.CachedTrace amortizes

		MemTech:    nvm.Techs[rng.Intn(len(nvm.Techs))],
		MaxSimTime: fuzzMaxSimTime,
	}

	// Capacitor + monitor: build the voltage ladder bottom-up so
	// VMin < VCkpt < VRst ≤ VMax always holds, then scale the capacitance
	// log-uniformly around the paper's 0.47 µF.
	vmin := 2.0 + 0.8*rng.Float()
	vckpt := vmin + 0.2 + 0.4*rng.Float()
	vrst := vckpt + 0.1 + 0.3*rng.Float()
	vmax := vrst + 0.1 + 0.4*rng.Float()
	capc := 0.2e-6 * math.Pow(10, rng.Float()) // 0.2 µF .. 2 µF, log-uniform
	leakTau := 5 + 45*rng.Float()
	if rng.Intn(8) == 0 {
		leakTau = 0 // self-discharge disabled
	}
	cfg.Capacitor = energy.CapacitorConfig{Capacitance: capc, VMax: vmax, VMin: vmin, LeakTau: leakTau}
	cfg.Monitor = energy.MonitorConfig{VCkpt: vckpt, VRst: vrst}

	// Data cache geometry: all powers of two, ways ≤ blocks. Drawing the
	// way exponent up to the block exponent includes direct-mapped
	// (ways=1) and single-set (ways=blocks) corners.
	blockBytes := 8 << rng.Intn(3)    // 8, 16, 32
	dcacheBytes := 512 << rng.Intn(5) // 512 .. 8192
	blockExp := log2(dcacheBytes / blockBytes)
	ways := 1 << rng.Intn(min(blockExp, 4)+1) // 1 .. min(blocks, 16)
	cfg.BlockBytes = blockBytes
	cfg.DCacheBytes = dcacheBytes
	cfg.DCacheWays = ways
	cfg.DCachePolicy = cache.PolicyKinds[rng.Intn(len(cache.PolicyKinds))]

	// Instruction cache: mostly the default ReRAM article, sometimes the
	// Section VI-I SRAM baseline, and sometimes with the predictor stack
	// applied to it too (Figure 18). Ideal is excluded: its two-pass
	// oracle records a data-cache schedule only, and sim rejects the
	// combination (Config.PredictICache validation).
	if rng.Intn(4) == 0 {
		cfg.ICacheSRAM = true
		cfg.PredictICache = rng.Intn(2) == 0 && cfg.Scheme != sim.Ideal
	}

	// Sweep the batch cap, including the degenerate and oversized ends.
	cfg.BatchCap = []int{0, 1, 3, 64, 1 << 20}[rng.Intn(5)]

	if rng.Intn(4) == 0 {
		cfg.DCacheLeakFactor = 0.2 // the paper's "80% leakage off" magic knob
	}
	if rng.Intn(8) == 0 {
		cfg.CollectZombieProfile = true
	}

	// Occasionally starve the system with a weak constant source well below
	// the ~10 mW active load: outage-dominated execution, and some
	// configurations hit the MaxSimTime horizon — the truncation path is
	// part of the invariant surface too.
	if rng.Intn(16) == 0 {
		cfg.Source = energy.ConstantSource{P: (0.3 + 2.7*rng.Float()) * 1e-3}
	}
	return cfg
}

// log2 returns floor(log2(n)) for n ≥ 1.
func log2(n int) int {
	e := 0
	for n > 1 {
		n >>= 1
		e++
	}
	return e
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
