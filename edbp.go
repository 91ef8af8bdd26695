// Package edbp is the public API of the EDBP reproduction: a full-system
// simulator for cache-equipped energy harvesting (intermittent computing)
// systems, together with the power-failure-aware dead block predictor the
// paper "Rethinking Dead Block Prediction for Intermittent Computing"
// (HPCA 2025) proposes.
//
// A minimal session:
//
//	base, _ := edbp.Run(edbp.Config{App: "crc32", Scheme: edbp.Baseline})
//	with, _ := edbp.Run(edbp.Config{App: "crc32", Scheme: edbp.EDBP})
//	fmt.Printf("speedup %.3f, energy ×%.3f\n",
//		with.SpeedupOver(base), with.EnergyRatioOver(base))
//
// Everything below delegates to the internal packages; see DESIGN.md for
// the system inventory and cmd/experiments for the full evaluation
// harness.
package edbp

import (
	"context"
	"errors"
	"fmt"

	"edbp/internal/sim"
	"edbp/internal/workload"
)

// Scheme selects the predictor configuration, mirroring the paper's
// evaluation (Section VI-A1). It is the simulator's own scheme type.
type Scheme = sim.Scheme

const (
	// Baseline is NVSRAMCache with no dead block prediction.
	Baseline = sim.Baseline
	// SDBP filters the JIT checkpoint with dead block prediction [44].
	SDBP = sim.SDBP
	// CacheDecay is Cache Decay [32] on the data cache.
	CacheDecay = sim.Decay
	// AMC is Adaptive Mode Control [74] on the data cache.
	AMC = sim.AMC
	// EDBP is the paper's zombie block predictor alone.
	EDBP = sim.EDBP
	// CacheDecayEDBP combines Cache Decay with EDBP — the paper's
	// headline configuration.
	CacheDecayEDBP = sim.DecayEDBP
	// AMCEDBP combines AMC with EDBP (Section VII-A).
	AMCEDBP = sim.AMCEDBP
	// Counting is the counting-based dead block predictor [34].
	Counting = sim.Counting
	// RefTrace is the trace-based dead block predictor [38].
	RefTrace = sim.RefTrace
	// CountingEDBP combines the counting-based predictor with EDBP.
	CountingEDBP = sim.CountingEDBP
	// RefTraceEDBP combines RefTrace with EDBP.
	RefTraceEDBP = sim.RefTraceEDBP
	// Ideal is the oracle bound of Figure 8 (two-pass replay).
	Ideal = sim.Ideal
)

// Schemes lists every scheme in presentation order.
var Schemes = []Scheme{Baseline, SDBP, CacheDecay, AMC, Counting, RefTrace, EDBP, CacheDecayEDBP, AMCEDBP, CountingEDBP, RefTraceEDBP, Ideal}

// Config describes one simulation. The zero value of every field selects
// the paper's Table II default.
type Config struct {
	// App is the workload name; see Apps(). Required.
	App string
	// Scheme is the predictor configuration under test.
	Scheme Scheme
	// Scale shrinks the workload for quick runs (1.0 = evaluation size).
	Scale float64
	// EnergyTrace is RFHome (default), RFOffice, Thermal or Solar.
	EnergyTrace string
	// Seed selects the synthetic energy trace instance (default 1).
	Seed uint64

	// CacheBytes / CacheWays / Policy configure the SRAM data cache
	// (defaults: 4096, 4, "LRU"; policies: LRU, PLRU, FIFO, Random,
	// DRRIP).
	CacheBytes int
	CacheWays  int
	Policy     string

	// NVM is the main-memory technology: ReRAM (default), FeRAM, STTRAM.
	NVM string
	// MemoryMB sizes the main memory in MB (default 16).
	MemoryMB int64
	// CapacitorUF sizes the energy buffer in µF (default 0.47).
	CapacitorUF float64

	// SRAMICache switches to the Section VI-I baseline (volatile SRAM
	// instruction cache); PredictICache additionally applies the scheme's
	// predictors to it (Figure 18 "both caches").
	SRAMICache    bool
	PredictICache bool

	// Leak80Off cuts data-cache leakage by 80%, the paper's "80% Leakage
	// Off" magic runs.
	Leak80Off bool
	// ZombieProfile collects the Figure 4 zombie-vs-voltage profile.
	ZombieProfile bool
}

// Prediction is the zombie-aware outcome classification (Section IV).
type Prediction struct {
	TP, FP, TN, FN uint64
	// MissedFN counts "missed prediction" false negatives: blocks kept
	// powered but lost to a power outage without reuse (zombies).
	MissedFN uint64
	Coverage float64 // Equation 1
	Accuracy float64 // Equation 2
}

// Energy is the consumed-energy breakdown in joules (Figure 7 buckets).
type Energy struct {
	DataCache        float64
	DataCacheLeak    float64 // included in DataCache
	InstructionCache float64
	Memory           float64
	Checkpoint       float64
	Others           float64 // MCU computation + capacitor leakage
	Total            float64
}

// ZombiePoint is one Figure 4 data point.
type ZombiePoint struct {
	Voltage     float64
	ZombieRatio float64
}

// Result reports one run.
type Result struct {
	App    string
	Scheme Scheme

	// WallSeconds includes recharge hibernation; ActiveSeconds does not.
	WallSeconds   float64
	ActiveSeconds float64
	Instructions  uint64

	Energy     Energy
	Prediction Prediction

	CacheMissRate float64
	PowerCycles   int
	// GatedBlockSeconds integrates block-time spent powered off.
	GatedBlockSeconds float64

	// ZombieProfile is populated when Config.ZombieProfile was set.
	ZombieProfile []ZombiePoint
	// Outages is the true number of power failures over the run.
	Outages int
	// OutageTimes lists when power failures struck. Recording stops after
	// the first 4096 failures; OutageTimesTruncated reports whether that
	// cap was hit (Outages always keeps the full count).
	OutageTimes []float64
	// OutageTimesTruncated is set when OutageTimes was capped and holds
	// only a prefix of the run's failures.
	OutageTimesTruncated bool

	// Truncated flags a run aborted for energy starvation.
	Truncated bool
}

// SpeedupOver returns base.WallSeconds / r.WallSeconds, the paper's
// performance metric.
func (r *Result) SpeedupOver(base *Result) float64 {
	if r.WallSeconds == 0 {
		return 0
	}
	return base.WallSeconds / r.WallSeconds
}

// EnergyRatioOver returns r's total energy normalized to base's (lower is
// better).
func (r *Result) EnergyRatioOver(base *Result) float64 {
	if base.Energy.Total == 0 {
		return 0
	}
	return r.Energy.Total / base.Energy.Total
}

// Apps lists the 20 available benchmark applications.
func Apps() []string { return workload.Names() }

// Canceled is returned by RunContext/RunAllContext when the context fires
// mid-simulation. It unwraps to the context's error (context.Canceled or
// context.DeadlineExceeded) and carries the state accumulated up to the
// cancellation point — useful for progress reporting, never a substitute
// for a completed run.
type Canceled struct {
	// Partial holds the result fields accumulated before cancellation.
	Partial *Result
	// Cause is the context's error.
	Cause error
}

// Error implements error.
func (c *Canceled) Error() string {
	return fmt.Sprintf("edbp: run %s/%s canceled: %v", c.Partial.App, c.Partial.Scheme, c.Cause)
}

// Unwrap lets errors.Is match context.Canceled / context.DeadlineExceeded.
func (c *Canceled) Unwrap() error { return c.Cause }

// translate rewraps a sim-layer error for the public API, converting the
// internal *sim.Canceled (and its partial result) into *Canceled.
func translate(c Config, err error) error {
	var sc *sim.Canceled
	if errors.As(err, &sc) {
		return &Canceled{Partial: wrap(c, sc.Partial), Cause: sc.Cause}
	}
	return err
}

// Run executes one simulation.
func Run(c Config) (*Result, error) {
	return RunContext(context.Background(), c)
}

// RunContext executes one simulation under ctx. Cancellation is polled
// inside the simulator's event loop and hibernation loops, so even a run
// stuck recharging under a weak harvest returns promptly; the error is a
// *Canceled carrying the partial result. A context that never fires
// leaves the result bit-identical to Run's.
func RunContext(ctx context.Context, c Config) (*Result, error) {
	cfg, err := c.internal()
	if err != nil {
		return nil, err
	}
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return nil, translate(c, err)
	}
	return wrap(c, res), nil
}

// RunAll executes one app under several schemes against the identical
// recorded trace (the simulator records each app and scale once per
// process), returning results in scheme order.
func RunAll(c Config, schemes ...Scheme) ([]*Result, error) {
	return RunAllContext(context.Background(), c, schemes...)
}

// RunAllContext is RunAll under a context; see RunContext for the
// cancellation contract. The first cancellation or failure aborts the
// remaining schemes.
func RunAllContext(ctx context.Context, c Config, schemes ...Scheme) ([]*Result, error) {
	if len(schemes) == 0 {
		return nil, fmt.Errorf("edbp: RunAll needs at least one scheme")
	}
	out := make([]*Result, len(schemes))
	for i, s := range schemes {
		c.Scheme = s
		r, err := RunContext(ctx, c)
		if err != nil {
			return nil, err
		}
		out[i] = r
	}
	return out, nil
}

// internal builds the run's sim.Config through sim.Knobs, the builder
// edbpd and edbpsim use, so one simulation has one ConfigHash whichever
// front door ran it.
func (c Config) internal() (sim.Config, error) {
	cfg, err := sim.Knobs{
		App: c.App, Scheme: c.Scheme.String(), Trace: c.EnergyTrace, Scale: c.Scale, Seed: c.Seed,
		CacheBytes: c.CacheBytes, CacheWays: c.CacheWays, Policy: c.Policy,
		NVM: c.NVM, MemMB: c.MemoryMB, CapUF: c.CapacitorUF,
		ICacheSRAM: c.SRAMICache, PredictICache: c.PredictICache, Leak80Off: c.Leak80Off,
	}.Config()
	cfg.CollectZombieProfile = c.ZombieProfile
	return cfg, err
}

func wrap(c Config, r *sim.Result) *Result {
	e := r.Energy
	out := &Result{
		App:           c.App,
		Scheme:        c.Scheme,
		WallSeconds:   r.WallTime,
		ActiveSeconds: r.ActiveTime,
		Instructions:  r.Instructions,
		Energy: Energy{
			DataCache:        e.DCache(),
			DataCacheLeak:    e.DCacheLeak,
			InstructionCache: e.ICache(),
			Memory:           e.Memory,
			Checkpoint:       e.Checkpoint,
			Others:           e.Others(),
			Total:            e.Total(),
		},
		Prediction: Prediction{
			TP: r.Prediction.TP, FP: r.Prediction.FP,
			TN: r.Prediction.TN, FN: r.Prediction.FN,
			MissedFN: r.Prediction.ZombieFN,
			Coverage: r.Prediction.Coverage(),
			Accuracy: r.Prediction.Accuracy(),
		},
		CacheMissRate:     r.DCacheStats.MissRate(),
		PowerCycles:       r.PowerCycles,
		GatedBlockSeconds: r.GatedBlockSeconds,
		Outages:           r.Outages,
		Truncated:         r.Truncated,
	}
	out.OutageTimes, out.OutageTimesTruncated = r.OutageSample()
	if r.ZombieProfile != nil {
		for _, p := range r.ZombieProfile.Points() {
			out.ZombieProfile = append(out.ZombieProfile, ZombiePoint{Voltage: p.Voltage, ZombieRatio: p.ZombieRatio})
		}
	}
	return out
}
