package fuzz

import (
	"context"
	"fmt"
	"reflect"
	"strconv"
	"strings"

	"edbp/internal/cache"
	"edbp/internal/energy"
	"edbp/internal/nvm"
	"edbp/internal/sim"
)

// shrinkStep is one dimension-simplification the shrinker may apply: it
// rewrites the config toward the paper's Table II defaults. A step that
// leaves the config unchanged is a no-op for the fixpoint loop.
type shrinkStep struct {
	name  string
	apply func(*sim.Config)
}

// shrinkSteps is the fixed simplification order. Joint steps (capacitor
// with monitor, SRAM flag with its dependent predict flag) come before
// their parts, so dimensions whose validity is entangled can fall together
// before the shrinker tries them separately.
func shrinkSteps() []shrinkStep {
	def := sim.Default("crc32", sim.Baseline)
	return []shrinkStep{
		{"scale→0.02", func(c *sim.Config) { c.Scale = 0.02 }},
		{"app→crc32", func(c *sim.Config) { c.App = "crc32" }},
		{"source→trace", func(c *sim.Config) { c.Source = nil }},
		{"trace→RFHome/seed1", func(c *sim.Config) { c.TraceKind = energy.RFHome; c.SourceSeed = 1 }},
		{"scheme→Baseline", func(c *sim.Config) { c.Scheme = sim.Baseline }},
		{"power→defaults", func(c *sim.Config) { c.Capacitor = def.Capacitor; c.Monitor = def.Monitor }},
		{"capacitor→default", func(c *sim.Config) { c.Capacitor = def.Capacitor }},
		{"monitor→default", func(c *sim.Config) { c.Monitor = def.Monitor }},
		{"dcache→default", func(c *sim.Config) {
			c.DCacheBytes, c.DCacheWays, c.BlockBytes = def.DCacheBytes, def.DCacheWays, def.BlockBytes
		}},
		{"policy→LRU", func(c *sim.Config) { c.DCachePolicy = cache.LRU }},
		{"icache→default", func(c *sim.Config) {
			c.ICacheBytes, c.ICacheWays = def.ICacheBytes, def.ICacheWays
			c.ICacheSRAM, c.PredictICache = false, false
		}},
		{"predicticache→off", func(c *sim.Config) { c.PredictICache = false }},
		{"mem→ReRAM", func(c *sim.Config) { c.MemTech = nvm.ReRAM }},
		{"batchcap→default", func(c *sim.Config) { c.BatchCap = 0 }},
		{"leakfactor→default", func(c *sim.Config) { c.DCacheLeakFactor = 0 }},
		{"zombieprofile→off", func(c *sim.Config) { c.CollectZombieProfile = false }},
	}
}

// Shrink minimizes a violating case to the dimensions that matter: it
// repeatedly tries each simplification step in fixed order, keeping a step
// only when the simplified config still violates the *same* invariant, and
// iterates to a fixpoint. The process is deterministic — same violation,
// same options, same minimal reproducer — and the returned eval count
// says how many candidate evaluations it took. Candidate configs that the
// simulator rejects (a simplification can break an entangled validity
// constraint) simply fail the "same violation" test and are discarded.
func Shrink(ctx context.Context, v Violation, opts Options) (Case, int, error) {
	opts = opts.normalize()
	// Every candidate must run the probe: the violated invariant may be
	// cancel-partial, which only sampled cases exercise.
	opts.CancelEvery = 1
	catalog, err := activeCatalog(opts)
	if err != nil {
		return Case{}, 0, err
	}

	evals := 0
	failsSame := func(cfg sim.Config) bool {
		evals++
		a, err := Execute(ctx, Case{Index: v.Case.Index, Seed: v.Case.Seed, Config: cfg}, opts)
		if err != nil {
			return false // rejected or infrastructure failure: not the same bug
		}
		for _, got := range evaluate(a, catalog) {
			if got.Invariant == v.Invariant {
				return true
			}
		}
		return false
	}

	cur := v.Case.Config
	if !failsSame(cur) {
		return Case{}, evals, fmt.Errorf("fuzz: violation %q did not reproduce on re-execution", v.Invariant)
	}
	steps := shrinkSteps()
	for changed := true; changed; {
		changed = false
		for _, step := range steps {
			if err := ctx.Err(); err != nil {
				return Case{}, evals, err
			}
			cand := cur
			step.apply(&cand)
			if reflect.DeepEqual(cand, cur) {
				continue
			}
			if failsSame(cand) {
				cur = cand
				changed = true
			}
		}
	}
	return Case{Index: v.Case.Index, Seed: v.Case.Seed, Config: cur}, evals, nil
}

// FormatConfig renders the config as a ready-to-paste Go composite
// literal, listing only the fields that differ from the zero value (the
// package convention: zero means "Table II default"). Reproducers printed
// by cmd/edbpfuzz go through this.
func FormatConfig(cfg sim.Config) string {
	var b strings.Builder
	b.WriteString("sim.Config{\n")
	add := func(field, value string) { fmt.Fprintf(&b, "\t%s: %s,\n", field, value) }
	g := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

	if cfg.App != "" {
		add("App", strconv.Quote(cfg.App))
	}
	if cfg.Scale != 0 {
		add("Scale", g(cfg.Scale))
	}
	if cfg.TraceKind != energy.RFHome {
		add("TraceKind", "energy."+cfg.TraceKind.String())
	}
	if cfg.SourceSeed != 0 {
		add("SourceSeed", strconv.FormatUint(cfg.SourceSeed, 10))
	}
	if cs, ok := cfg.Source.(energy.ConstantSource); ok {
		add("Source", fmt.Sprintf("energy.ConstantSource{P: %s}", g(cs.P)))
	} else if cfg.Source != nil {
		add("Source", fmt.Sprintf("/* %s */ nil", cfg.Source.Name()))
	}
	if cfg.Capacitor != (energy.CapacitorConfig{}) {
		add("Capacitor", fmt.Sprintf("energy.CapacitorConfig{Capacitance: %s, VMax: %s, VMin: %s, LeakTau: %s}",
			g(cfg.Capacitor.Capacitance), g(cfg.Capacitor.VMax), g(cfg.Capacitor.VMin), g(cfg.Capacitor.LeakTau)))
	}
	if cfg.Monitor != (energy.MonitorConfig{}) {
		add("Monitor", fmt.Sprintf("energy.MonitorConfig{VCkpt: %s, VRst: %s}", g(cfg.Monitor.VCkpt), g(cfg.Monitor.VRst)))
	}
	if cfg.DCacheBytes != 0 {
		add("DCacheBytes", strconv.Itoa(cfg.DCacheBytes))
	}
	if cfg.DCacheWays != 0 {
		add("DCacheWays", strconv.Itoa(cfg.DCacheWays))
	}
	if cfg.BlockBytes != 0 {
		add("BlockBytes", strconv.Itoa(cfg.BlockBytes))
	}
	if cfg.DCachePolicy != cache.LRU {
		add("DCachePolicy", "cache."+cfg.DCachePolicy.String())
	}
	if cfg.ICacheBytes != 0 {
		add("ICacheBytes", strconv.Itoa(cfg.ICacheBytes))
	}
	if cfg.ICacheWays != 0 {
		add("ICacheWays", strconv.Itoa(cfg.ICacheWays))
	}
	if cfg.ICacheSRAM {
		add("ICacheSRAM", "true")
	}
	if cfg.PredictICache {
		add("PredictICache", "true")
	}
	if cfg.MemTech != nvm.ReRAM {
		add("MemTech", "nvm."+cfg.MemTech.String())
	}
	if cfg.MemBytes != 0 {
		add("MemBytes", strconv.FormatInt(cfg.MemBytes, 10))
	}
	add("Scheme", "sim."+schemeIdent(cfg.Scheme))
	if cfg.DCacheLeakFactor != 0 {
		add("DCacheLeakFactor", g(cfg.DCacheLeakFactor))
	}
	if cfg.CacheDynScale != 0 {
		add("CacheDynScale", g(cfg.CacheDynScale))
	}
	if cfg.MemDynScale != 0 {
		add("MemDynScale", g(cfg.MemDynScale))
	}
	if cfg.CollectZombieProfile {
		add("CollectZombieProfile", "true")
	}
	if cfg.MaxSimTime != 0 {
		add("MaxSimTime", g(cfg.MaxSimTime))
	}
	if cfg.BatchCap != 0 {
		add("BatchCap", strconv.Itoa(cfg.BatchCap))
	}
	b.WriteString("}")
	return b.String()
}

// schemeIdent returns the Go identifier of a scheme (Scheme.String returns
// presentation names like "NVSRAMCache" that do not compile).
func schemeIdent(s sim.Scheme) string {
	switch s {
	case sim.Baseline:
		return "Baseline"
	case sim.SDBP:
		return "SDBP"
	case sim.Decay:
		return "Decay"
	case sim.AMC:
		return "AMC"
	case sim.EDBP:
		return "EDBP"
	case sim.DecayEDBP:
		return "DecayEDBP"
	case sim.AMCEDBP:
		return "AMCEDBP"
	case sim.Counting:
		return "Counting"
	case sim.RefTrace:
		return "RefTrace"
	case sim.CountingEDBP:
		return "CountingEDBP"
	case sim.RefTraceEDBP:
		return "RefTraceEDBP"
	case sim.Ideal:
		return "Ideal"
	default:
		return fmt.Sprintf("Scheme(%d)", int(s))
	}
}
