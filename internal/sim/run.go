package sim

import (
	"context"
	"fmt"

	"edbp/internal/predictor"
	"edbp/internal/workload"
)

// Canceled reports a run interrupted by its context. Partial holds the
// result accumulated up to the interruption point — finalized the same way
// a completed run's result is (open block generations flushed, energy
// totals closed), but covering only the simulated time actually executed.
// Cause is the context's error, so errors.Is(err, context.Canceled) and
// errors.Is(err, context.DeadlineExceeded) both work through the wrapper.
type Canceled struct {
	Partial *Result
	Cause   error
}

// Error implements error.
func (c *Canceled) Error() string {
	app, scheme := "?", "?"
	if c.Partial != nil {
		app = c.Partial.Config.App
		scheme = c.Partial.Config.Scheme.String()
	}
	return fmt.Sprintf("sim: run %s/%s canceled: %v", app, scheme, c.Cause)
}

// Unwrap exposes the context error for errors.Is/As.
func (c *Canceled) Unwrap() error { return c.Cause }

// Run executes one simulation according to cfg and returns its result.
//
// For Scheme == Ideal it performs the two-pass oracle protocol: a baseline
// recording pass builds the perfect gating schedule, then the replay pass
// produces the reported result.
//
// Run is RunContext with context.Background(): uncancellable, and — since
// the engine only ever polls a context between events without touching any
// simulation state — bit-identical to every undisturbed RunContext call
// (run_context_test.go pins this).
func Run(cfg Config) (*Result, error) {
	return RunContext(context.Background(), cfg)
}

// RunContext is Run with a cancellation/deadline escape hatch: the engine
// polls ctx between simulation events and inside the hibernation loop,
// so even a weak-harvest livelock (capacitor never reaching Vrst) returns
// promptly once ctx is done — long before the MaxSimTime truncation check
// would fire. On cancellation it returns a *Canceled error carrying the
// partial Result. The polls never mutate simulation state, so results are
// bit-identical to Run whenever ctx stays undisturbed.
func RunContext(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg, err := cfg.normalize()
	if err != nil {
		return nil, err
	}
	trace := cfg.Trace
	if trace == nil {
		// The process-wide cache records each (app, scale) kernel once,
		// however many schemes/seeds replay it.
		trace, err = workload.Cached(cfg.App, cfg.Scale)
		if err != nil {
			return nil, err
		}
		cfg.Trace = trace
	}
	if cfg.App == "" {
		cfg.App = trace.Name
	}

	if cfg.Scheme == Ideal {
		return runIdeal(ctx, cfg, trace)
	}

	e, err := newEngine(cfg, trace, nil)
	if err != nil {
		return nil, err
	}
	e.bindContext(ctx)
	return e.run()
}

// runIdeal drives the two-pass oracle. Both passes honor ctx; a canceled
// recording pass aborts the protocol (its schedule would be incomplete).
func runIdeal(ctx context.Context, cfg Config, trace *workload.Trace) (*Result, error) {
	oracle, err := recordIdeal(ctx, cfg, trace)
	if err != nil {
		return nil, err
	}
	e, err := newEngine(cfg, trace, oracle)
	if err != nil {
		return nil, err
	}
	e.bindContext(ctx)
	return e.run()
}

// recordIdeal runs the oracle's pass 1, a baseline run whose tracker keeps
// every closed generation's last use, and returns the pass-2 predictor.
func recordIdeal(ctx context.Context, cfg Config, trace *workload.Trace) (*predictor.Ideal, error) {
	// The trace recorder and the voltage sampler (if any) observe only the
	// reported replay pass, so both are detached here — otherwise pass 2's
	// StartRun would wipe pass 1's recording mid-Run and the summary would
	// mix the two passes, and the sampler would see time restart at zero.
	passCfg := cfg
	passCfg.Scheme = Baseline
	passCfg.CollectZombieProfile = false
	passCfg.Recorder = nil
	passCfg.VoltageSampler = nil
	e, err := newEngine(passCfg, trace, nil)
	if err != nil {
		return nil, err
	}
	e.tracker.RecordLastUses()
	e.bindContext(ctx)
	if _, err := e.run(); err != nil {
		return nil, fmt.Errorf("sim: ideal recording pass: %w", err)
	}

	// Dirty dead blocks are gated too: their writeback is not an extra
	// cost but the same writeback an eventual eviction would pay, moved
	// earlier — while the leakage and the per-outage checkpoint/restore of
	// the dead block are pure savings.
	return predictor.NewIdeal(e.tracker.LastUses()), nil
}
