// Package sim is the full-system simulator: it replays a recorded workload
// trace through the MCU, the SRAM data cache, the (ReRAM or SRAM)
// instruction cache and the NVM main memory, while integrating the
// capacitor against a harvesting source, taking JIT checkpoints at Vckpt,
// restoring at Vrst, and driving the configured dead block predictor
// stack. It is the equivalent of the paper's gem5+NVPsim setup
// (DESIGN.md §2 documents the substitution).
package sim

import (
	"fmt"
	"math"
	"strings"

	"edbp/internal/cache"
	"edbp/internal/checkpoint"
	"edbp/internal/core"
	"edbp/internal/cpu"
	"edbp/internal/energy"
	"edbp/internal/nvm"
	"edbp/internal/predictor"
	"edbp/internal/trace"
	"edbp/internal/workload"
)

// Scheme selects the predictor configuration under test — the paper's
// baseline, its two competitors, EDBP, the combinations, and the oracle.
type Scheme int

const (
	// Baseline is NVSRAMCache with no dead block prediction.
	Baseline Scheme = iota
	// SDBP filters the JIT checkpoint with dead block prediction [44].
	SDBP
	// Decay is Cache Decay [32] on the data cache.
	Decay
	// AMC is Adaptive Mode Control [74] on the data cache.
	AMC
	// EDBP is the paper's zombie block predictor alone.
	EDBP
	// DecayEDBP combines Cache Decay with EDBP (the paper's headline
	// configuration).
	DecayEDBP
	// AMCEDBP combines AMC with EDBP (Section VII-A generality).
	AMCEDBP
	// Counting is the counting-based dead block predictor [34].
	Counting
	// RefTrace is the trace-based dead block predictor [38].
	RefTrace
	// CountingEDBP combines the counting-based predictor with EDBP.
	CountingEDBP
	// RefTraceEDBP combines RefTrace with EDBP.
	RefTraceEDBP
	// Ideal is the oracle bound: every block gated right after its final
	// access, via a two-pass recording run.
	Ideal
)

// Schemes lists every scheme in presentation order.
var Schemes = []Scheme{Baseline, SDBP, Decay, AMC, Counting, RefTrace, EDBP, DecayEDBP, AMCEDBP, CountingEDBP, RefTraceEDBP, Ideal}

// String implements fmt.Stringer.
func (s Scheme) String() string {
	switch s {
	case Baseline:
		return "NVSRAMCache"
	case SDBP:
		return "SDBP"
	case Decay:
		return "CacheDecay"
	case AMC:
		return "AMC"
	case EDBP:
		return "EDBP"
	case DecayEDBP:
		return "CacheDecay+EDBP"
	case AMCEDBP:
		return "AMC+EDBP"
	case Counting:
		return "Counting"
	case RefTrace:
		return "RefTrace"
	case CountingEDBP:
		return "Counting+EDBP"
	case RefTraceEDBP:
		return "RefTrace+EDBP"
	case Ideal:
		return "Ideal"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}

// ParseScheme maps a scheme name to its Scheme, ignoring case. It accepts
// every String() form and the short aliases the command-line tools and
// edbpd's run requests use (baseline, decay, decay+edbp, ...).
func ParseScheme(s string) (Scheme, error) {
	switch strings.ToLower(s) {
	case "baseline", "nvsramcache", "none":
		return Baseline, nil
	case "sdbp":
		return SDBP, nil
	case "decay", "cachedecay":
		return Decay, nil
	case "amc":
		return AMC, nil
	case "edbp":
		return EDBP, nil
	case "decay+edbp", "cachedecay+edbp", "combined":
		return DecayEDBP, nil
	case "amc+edbp":
		return AMCEDBP, nil
	case "counting":
		return Counting, nil
	case "reftrace":
		return RefTrace, nil
	case "counting+edbp":
		return CountingEDBP, nil
	case "reftrace+edbp":
		return RefTraceEDBP, nil
	case "ideal":
		return Ideal, nil
	default:
		return 0, fmt.Errorf("sim: unknown scheme %q", s)
	}
}

// gates reports whether the scheme has gate-Vdd hardware on the data
// cache (and therefore powers only live blocks).
func (s Scheme) gates() bool {
	switch s {
	case Baseline, SDBP:
		return false
	default:
		return true
	}
}

// Config describes one simulation run. The zero value is not runnable;
// start from Default() and override.
type Config struct {
	// App names the workload (see workload.Names()); Trace, when non-nil,
	// overrides it with a pre-recorded trace (recording once and reusing
	// across schemes is both faster and exactly what the paper does).
	App   string
	Scale float64
	// Trace is runtime-only (a pre-recorded workload is reproducible from
	// App+Scale) and excluded from the portable encoding and ConfigHash,
	// like every `json:"-"` field below.
	Trace *workload.Trace `json:"-"`

	// Source supplies harvested power; when nil, a synthetic trace of
	// TraceKind with SourceSeed is generated.
	Source     energy.Source `json:"-"`
	TraceKind  energy.TraceKind
	SourceSeed uint64

	Capacitor energy.CapacitorConfig
	Monitor   energy.MonitorConfig
	CPU       cpu.Config

	// Data cache geometry (Table II defaults: 4 kB, 4-way, 16 B blocks,
	// LRU).
	DCacheBytes  int
	DCacheWays   int
	BlockBytes   int
	DCachePolicy cache.PolicyKind

	// Instruction cache geometry. ICacheSRAM switches the Section VI-I
	// baseline (SRAM I-cache, volatile, leaky) in place of the default
	// nonvolatile ReRAM I-cache.
	ICacheBytes int
	ICacheWays  int
	ICacheSRAM  bool
	// PredictICache additionally applies the scheme's predictor stack to
	// the (SRAM) instruction cache — Figure 18's "both caches" bars.
	PredictICache bool

	// Main memory.
	MemTech  nvm.Tech
	MemBytes int64

	Scheme Scheme

	// Predictor knobs; nil selects the documented defaults.
	DecayCfg *predictor.DecayConfig
	AMCCfg   *predictor.AMCConfig
	SDBPCfg  *predictor.SDBPConfig
	EDBPCfg  *core.Config

	Checkpoint checkpoint.Costs

	// DCacheLeakFactor scales the data-cache leakage power; 0.2 models
	// the paper's "80% Leakage Off" magic experiments. 0 means 1.0.
	DCacheLeakFactor float64

	// CacheDynScale and MemDynScale calibrate the per-access *dynamic*
	// energies (leakage powers are untouched). Table II's raw per-access
	// energies imply an active power an order of magnitude above what the
	// paper's 2.58 mW average power (Figure 9), 0.47 µF capacitor and
	// gradual zombie onset (Figure 4) jointly require; scaling dynamic
	// energies — preserving every relative cost — reconciles them.
	// Defaults: 1/16 for the caches, 0.3 for main memory (see DESIGN.md
	// §5). Zero means default.
	CacheDynScale float64
	MemDynScale   float64

	// CollectZombieProfile enables Figure 4 sampling (small overhead).
	CollectZombieProfile bool

	// Recorder, when non-nil, attaches the internal/trace observability
	// layer: the run's power-cycle timeline, discrete events and periodic
	// gauges are recorded into it and summarised in Result.TraceSummary.
	// sim.Run resets the recorder at engine construction, so one Recorder
	// can be reused across sequential runs. With Recorder nil, every
	// instrumentation site is a single untaken branch (zero allocations —
	// see alloc_test.go).
	Recorder *trace.Recorder `json:"-"`

	// VoltageSampler, when non-nil, observes the capacitor voltage over
	// simulated time: it is invoked after every simulation event while
	// powered (on=true) and at every hibernation step while recharging
	// (on=false). Timestamps are non-decreasing. Useful for plotting the
	// power-cycle dynamics (cmd/edbpsim -vtrace); it never influences the
	// simulation.
	VoltageSampler func(t, v float64, on bool) `json:"-"`

	// MaxSimTime aborts runs whose energy supply cannot finish the
	// workload (simulated seconds; default 600).
	MaxSimTime float64

	// BatchCap caps how many flushes the replay loop may run between
	// checkpoint-threshold checks (see batch.go); the loop also checks
	// whenever the energy banked at the last check may be spent. 0 means
	// DefaultBatchCap (4096); 1 degenerates to a check per flush. The cap
	// does not affect results — a skipped check is one the energy bound
	// proves would have passed — only the check amortization (the golden
	// Result corpus pins caps 1, 3, 64 and 2^20).
	BatchCap int
}

// DefaultBatchCap is the default upper bound on flushes per batch. It
// matches the cancellation poll cadence (cancelPollMask+1), so batching
// never lengthens the interval between poll opportunities.
const DefaultBatchCap = 4096

// Default returns the paper's Table II configuration for the given app
// and scheme, on the RFHome trace.
func Default(app string, scheme Scheme) Config {
	return Config{
		App:          app,
		Scale:        1.0,
		TraceKind:    energy.RFHome,
		SourceSeed:   1,
		Capacitor:    energy.DefaultCapacitor(),
		Monitor:      energy.DefaultMonitor(),
		CPU:          cpu.Default(),
		DCacheBytes:  4096,
		DCacheWays:   4,
		BlockBytes:   16,
		DCachePolicy: cache.LRU,
		ICacheBytes:  4096,
		ICacheWays:   4,
		MemTech:      nvm.ReRAM,
		MemBytes:     16 << 20,
		Scheme:       scheme,
		Checkpoint:   checkpoint.Default(),
		MaxSimTime:   600,
	}
}

// ConfigError reports a Config rejected by validation. Field names the
// offending Config field (dotted for nested configs, e.g.
// "Capacitor.Capacitance"); Reason says what is wrong with it; Err, when
// non-nil, carries the subsystem validation error the rejection wraps
// (energy, cache, cpu) and is exposed through Unwrap.
//
// Every invalid configuration — fuzz-generated ones included — must come
// back as a *ConfigError from Run/RunContext rather than panicking inside
// the engine or hanging in a degenerate simulation (config_error_test.go
// pins each rejection).
type ConfigError struct {
	Field  string
	Reason string
	Err    error
}

// Error implements error.
func (e *ConfigError) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("sim: invalid Config.%s: %v", e.Field, e.Err)
	}
	return fmt.Sprintf("sim: invalid Config.%s: %s", e.Field, e.Reason)
}

// Unwrap exposes the wrapped subsystem error for errors.Is/As.
func (e *ConfigError) Unwrap() error { return e.Err }

// cfgErrf builds a *ConfigError with a formatted reason.
func cfgErrf(field, format string, args ...any) *ConfigError {
	return &ConfigError{Field: field, Reason: fmt.Sprintf(format, args...)}
}

// normalize fills zero values with defaults and validates the result.
func (c Config) normalize() (Config, error) {
	// The bound workload.Cached records under; a caller's own Trace skips
	// Cached, so the check is made here too.
	if err := workload.CheckScale(c.Scale); err != nil {
		return c, &ConfigError{Field: "Scale", Err: err}
	}
	if c.Scale == 0 {
		c.Scale = 1.0
	}
	if c.Capacitor == (energy.CapacitorConfig{}) {
		c.Capacitor = energy.DefaultCapacitor()
	}
	if c.Monitor == (energy.MonitorConfig{}) {
		c.Monitor = energy.DefaultMonitor()
	}
	if c.CPU == (cpu.Config{}) {
		c.CPU = cpu.Default()
	}
	if c.DCacheBytes == 0 {
		c.DCacheBytes = 4096
	}
	if c.DCacheWays == 0 {
		c.DCacheWays = 4
	}
	if c.BlockBytes == 0 {
		c.BlockBytes = 16
	}
	if c.ICacheBytes == 0 {
		c.ICacheBytes = 4096
	}
	if c.ICacheWays == 0 {
		c.ICacheWays = 4
	}
	if c.MemBytes == 0 {
		c.MemBytes = 16 << 20
	}
	if c.Checkpoint == (checkpoint.Costs{}) {
		c.Checkpoint = checkpoint.Default()
	}
	if c.DCacheLeakFactor == 0 {
		c.DCacheLeakFactor = 1.0
	}
	if c.CacheDynScale == 0 {
		c.CacheDynScale = 1.0 / 16
	}
	if c.MemDynScale == 0 {
		c.MemDynScale = 0.3
	}
	if c.MaxSimTime == 0 {
		c.MaxSimTime = 600
	}
	if math.IsNaN(c.MaxSimTime) || c.MaxSimTime < 0 {
		return c, cfgErrf("MaxSimTime", "must be a positive simulation horizon in seconds, got %g", c.MaxSimTime)
	}
	if c.BatchCap == 0 {
		c.BatchCap = DefaultBatchCap
	}
	if c.BatchCap < 0 {
		return c, cfgErrf("BatchCap", "must be non-negative, got %d", c.BatchCap)
	}
	for _, s := range []struct {
		field string
		v     float64
	}{
		{"DCacheLeakFactor", c.DCacheLeakFactor},
		{"CacheDynScale", c.CacheDynScale},
		{"MemDynScale", c.MemDynScale},
	} {
		if math.IsNaN(s.v) || math.IsInf(s.v, 0) || s.v < 0 {
			return c, cfgErrf(s.field, "must be a finite non-negative scale, got %g", s.v)
		}
	}
	if err := c.Capacitor.Validate(); err != nil {
		return c, &ConfigError{Field: "Capacitor", Err: err}
	}
	if err := c.Monitor.Validate(c.Capacitor); err != nil {
		return c, &ConfigError{Field: "Monitor", Err: err}
	}
	if err := c.CPU.Validate(); err != nil {
		return c, &ConfigError{Field: "CPU", Err: err}
	}
	// Cache geometries and policies are validated here — not left to
	// cache.New inside the engine — so a zero-way, non-power-of-two,
	// over-wide or unknown-policy config is rejected with the offending
	// Config field named.
	if err := c.dcacheConfig().Validate(); err != nil {
		return c, &ConfigError{Field: "DCacheBytes/DCacheWays/BlockBytes/DCachePolicy", Err: err}
	}
	if err := c.icacheConfig().Validate(); err != nil {
		return c, &ConfigError{Field: "ICacheBytes/ICacheWays/BlockBytes", Err: err}
	}
	if c.MemBytes < 0 {
		return c, cfgErrf("MemBytes", "must be positive, got %d", c.MemBytes)
	}
	if c.Trace == nil {
		// An unknown App is rejected here, before workload.Cached sees it.
		if c.App == "" {
			return c, cfgErrf("App", "config needs App or Trace")
		}
		if _, err := workload.ByName(c.App); err != nil {
			return c, &ConfigError{Field: "App", Err: err}
		}
	}
	if c.Trace != nil && len(c.Trace.Events) == 0 {
		return c, cfgErrf("Trace", "trace %q has no events; a workload trace must contain at least one op", c.Trace.Name)
	}
	if c.PredictICache && !c.ICacheSRAM {
		return c, cfgErrf("PredictICache", "requires ICacheSRAM (the ReRAM I-cache neither leaks much nor gates)")
	}
	if c.PredictICache && c.Scheme == Ideal {
		// The two-pass oracle records a gating schedule for the data cache
		// only; there is no I-cache oracle to apply. Rejecting beats the
		// engine-construction failure this produced (found by fuzzing).
		return c, cfgErrf("PredictICache", "the Ideal oracle gates only the data cache; use a real predictor scheme")
	}
	return c, nil
}

// dcacheConfig builds the data cache configuration.
func (c Config) dcacheConfig() cache.Config {
	power := cache.AlwaysOn
	if c.Scheme.gates() {
		power = cache.GateInvalid
	}
	return cache.Config{
		SizeBytes:  c.DCacheBytes,
		BlockBytes: c.BlockBytes,
		Ways:       c.DCacheWays,
		Policy:     c.DCachePolicy,
		Power:      power,
	}
}

// icacheConfig builds the instruction cache configuration.
func (c Config) icacheConfig() cache.Config {
	power := cache.AlwaysOn
	if c.PredictICache && c.Scheme.gates() {
		power = cache.GateInvalid
	}
	return cache.Config{
		SizeBytes:  c.ICacheBytes,
		BlockBytes: c.BlockBytes,
		Ways:       c.ICacheWays,
		Policy:     cache.LRU,
		Power:      power,
	}
}
