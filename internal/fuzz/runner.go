package fuzz

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"edbp/internal/obs"
	"edbp/internal/sim"
	"edbp/internal/trace"
	"edbp/internal/xrand"
)

// Outcome is the per-case record of a campaign: the artifacts produced (nil
// when the case was skipped under a spent budget) and the invariant
// violations found on them.
type Outcome struct {
	Case       Case
	Artifacts  *Artifacts
	Skipped    bool
	Violations []Violation
}

// Campaign is the full result of one fuzzing run. Outcomes are in case
// order; every aggregate below is derived from them in that order, so two
// campaigns with the same options produce identical campaigns (provided
// the budget did not bind).
type Campaign struct {
	Opts  Options
	Cases []Case

	Outcomes   []*Outcome
	Violations []Violation

	Executed     int
	Skipped      int
	Truncated    int
	CancelProbes int

	Stats *Stats
	WCET  *WCETReport
}

// Execute runs one case and collects its artifacts: the run with a
// recorder attached, plus — on index-sampled cases — the mid-run
// cancellation probe. Errors are infrastructure failures (a rejected
// config, an outer cancellation), never invariant violations.
func Execute(ctx context.Context, c Case, opts Options) (*Artifacts, error) {
	opts = opts.normalize()
	a := &Artifacts{Case: c}

	// Small rings: conservation checking needs the per-cycle counters, not
	// the event log, and a campaign churns through one recorder per case.
	rec := trace.NewRecorder(trace.Options{
		Label:    fmt.Sprintf("fuzz/%d", c.Index),
		EventCap: 256, SampleCap: 64, SampleEvery: 1,
	})
	cfg := c.Config
	cfg.Recorder = rec
	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		return nil, err
	}
	a.Res = res
	a.Summary = res.TraceSummary

	if opts.CancelEvery > 0 && c.Index%opts.CancelEvery == 0 {
		a.CancelAt = cancelPoint(c.Seed)
		partial, err := runCancelProbe(ctx, c.Config, a.CancelAt)
		if err != nil {
			return nil, fmt.Errorf("cancel probe: %w", err)
		}
		a.Partial = partial
	}
	return a, nil
}

// cancelPoint derives the powered-sample index the cancellation probe
// cancels at: low indices probe the cold-start region, high ones land
// mid-workload or post-completion (the probe then completes normally and
// checks nothing — also a valid outcome). The range is sized to the
// fuzzed trace lengths (16k–40k events) so most probes actually land.
func cancelPoint(seed uint64) int {
	return 100 + xrand.New(seed^0x63616e63656c0a).Intn(20_000)
}

// runCancelProbe re-runs cfg with a VoltageSampler that cancels the
// context at the cancelAt-th powered sample. The cancel fires inside the
// sampler callback — the same goroutine as the engine — so the poll that
// observes it is deterministic and the partial result is reproducible.
// Returns nil when the run completed before the cancel point.
func runCancelProbe(ctx context.Context, cfg sim.Config, cancelAt int) (*sim.Result, error) {
	pctx, cancel := context.WithCancel(ctx)
	defer cancel()
	n := 0
	cfg.Recorder = nil
	cfg.VoltageSampler = func(t, v float64, on bool) {
		if on {
			n++
			if n == cancelAt {
				cancel()
			}
		}
	}
	res, err := sim.RunContext(pctx, cfg)
	if err == nil {
		_ = res // completed before the probe point; nothing to validate
		return nil, nil
	}
	var canceled *sim.Canceled
	if errors.As(err, &canceled) {
		if ctx.Err() != nil {
			// The outer context (budget, caller) died, not our probe — the
			// partial is still finalized, but the case must count as an
			// infrastructure cancellation, not a probe result.
			return nil, err
		}
		if canceled.Partial == nil {
			return nil, fmt.Errorf("canceled run returned no partial result: %w", err)
		}
		return canceled.Partial, nil
	}
	return nil, err
}

// campaignMetrics are the obs instruments a campaign feeds. All fields are
// nil-safe: with no registry configured every observation is a no-op.
type campaignMetrics struct {
	cases, skipped, truncated *obs.Counter
	cancelProbes              *obs.Counter
	simSeconds                *obs.Counter
	violations                *obs.CounterVec
	outages                   *obs.Histogram
}

func newCampaignMetrics(r *obs.Registry) campaignMetrics {
	return campaignMetrics{
		cases:        r.Counter("fuzz_cases_total", "fuzz cases executed to completion"),
		skipped:      r.Counter("fuzz_cases_skipped_total", "fuzz cases skipped (budget exhausted or canceled)"),
		truncated:    r.Counter("fuzz_truncated_runs_total", "runs that hit MaxSimTime before completing the workload"),
		cancelProbes: r.Counter("fuzz_cancel_probes_total", "cases probed with a mid-run cancellation"),
		simSeconds:   r.Counter("fuzz_sim_seconds_total", "total simulated wall seconds across the corpus"),
		violations:   r.CounterVec("fuzz_violations_total", "invariant violations found", "invariant"),
		outages:      r.Histogram("fuzz_outages", "power failures per run", obs.ExpBuckets(1, 4, 8)),
	}
}

// activeCatalog resolves the invariant list for the options: the full
// catalog plus Extra, filtered by Invariants when non-empty.
func activeCatalog(opts Options) ([]Invariant, error) {
	all := append(Catalog(), opts.Extra...)
	if len(opts.Invariants) == 0 {
		return all, nil
	}
	byName := make(map[string]Invariant, len(all))
	for _, inv := range all {
		byName[inv.Name] = inv
	}
	var out []Invariant
	for _, name := range opts.Invariants {
		inv, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("fuzz: unknown invariant %q (have %v)", name, invariantNames(all))
		}
		out = append(out, inv)
	}
	return out, nil
}

func invariantNames(invs []Invariant) []string {
	names := make([]string, len(invs))
	for i, inv := range invs {
		names[i] = inv.Name
	}
	return names
}

// evaluate runs every invariant against the artifacts, returning the
// violations in catalog order.
func evaluate(a *Artifacts, catalog []Invariant) []Violation {
	var out []Violation
	for _, inv := range catalog {
		if err := inv.Check(a); err != nil {
			out = append(out, Violation{Case: a.Case, Invariant: inv.Name, Err: err})
		}
	}
	return out
}

// Run executes a full campaign: generate the corpus, execute it across a
// fixed worker pool, evaluate every invariant, and aggregate statistics.
//
// The pool fails fast on infrastructure errors — a config the simulator
// rejects, a probe that misbehaves — by cancelling the shared context so
// in-flight simulations return early through sim.RunContext's polls.
// Invariant violations never abort the campaign: they are collected in
// case order (shrinking wants the first one; statistics want them all).
// A spent Budget stops dispatch and cancels in-flight cases, which then
// count as skipped.
func Run(ctx context.Context, opts Options) (*Campaign, error) {
	opts = opts.normalize()
	catalog, err := activeCatalog(opts)
	if err != nil {
		return nil, err
	}
	m := newCampaignMetrics(opts.Registry)

	c := &Campaign{Opts: opts, Cases: Generate(opts)}
	c.Outcomes = make([]*Outcome, len(c.Cases))

	// The budget is a deadline on dispatch and execution both; failCtx is
	// the fail-fast channel for infrastructure errors.
	bctx := ctx
	if opts.Budget > 0 {
		var cancelBudget context.CancelFunc
		bctx, cancelBudget = context.WithTimeout(ctx, opts.Budget)
		defer cancelBudget()
	}
	failCtx, failNow := context.WithCancel(bctx)
	defer failNow()

	workers := opts.Workers
	if workers > len(c.Cases) {
		workers = len(c.Cases)
	}
	errs := make([]error, len(c.Cases))
	next := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				fc := c.Cases[i]
				out := &Outcome{Case: fc}
				c.Outcomes[i] = out
				if failCtx.Err() != nil {
					out.Skipped = true
					continue
				}
				a, err := Execute(failCtx, fc, opts)
				if err != nil {
					if bctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
						out.Skipped = true // budget ran out or a sibling failed
						continue
					}
					errs[i] = fmt.Errorf("case %d (seed %#x, %s/%s): %w", fc.Index, fc.Seed, fc.Config.App, fc.Config.Scheme, err)
					failNow()
					continue
				}
				out.Artifacts = a
				out.Violations = evaluate(a, catalog)
			}
		}()
	}
feed:
	for i := range c.Cases {
		select {
		case next <- i:
		case <-failCtx.Done():
			// Mark everything undispatched as skipped and stop feeding.
			for j := i; j < len(c.Cases); j++ {
				if c.Outcomes[j] == nil {
					c.Outcomes[j] = &Outcome{Case: c.Cases[j], Skipped: true}
				}
			}
			break feed
		}
	}
	close(next)
	wg.Wait()

	var real []error
	for _, err := range errs {
		if err != nil {
			real = append(real, err)
		}
	}
	if len(real) > 0 {
		return nil, errors.Join(real...)
	}
	if err := ctx.Err(); err != nil {
		return nil, err // the caller's own cancellation, not the budget's
	}

	// Aggregate in case order so every derived number is deterministic.
	c.Stats = newStats()
	instrAgreement := map[string]struct {
		instr uint64
		index int
	}{}
	for _, out := range c.Outcomes {
		if out == nil || out.Skipped || out.Artifacts == nil {
			c.Skipped++
			m.skipped.Inc()
			continue
		}
		c.Executed++
		m.cases.Inc()
		a := out.Artifacts
		r := a.Res
		m.simSeconds.Add(r.WallTime)
		m.outages.Observe(float64(r.Outages))
		if r.Truncated {
			c.Truncated++
			m.truncated.Inc()
		}
		if a.Partial != nil {
			c.CancelProbes++
			m.cancelProbes.Inc()
		}

		// Cross-case invariant: every untruncated run of the same recorded
		// trace retires the identical instruction count, whatever the
		// scheme, energy environment or geometry.
		if !r.Truncated {
			key := fmt.Sprintf("%s@%g", r.Config.App, r.Config.Scale)
			if prev, ok := instrAgreement[key]; ok && prev.instr != r.Instructions {
				out.Violations = append(out.Violations, Violation{
					Case:      out.Case,
					Invariant: "instruction-agreement",
					Err: fmt.Errorf("retired %d instructions for %s, but case %d retired %d",
						r.Instructions, key, prev.index, prev.instr),
				})
			} else if !ok {
				instrAgreement[key] = struct {
					instr uint64
					index int
				}{r.Instructions, out.Case.Index}
			}
		}

		c.Stats.add(r)
		for _, v := range out.Violations {
			m.violations.With(v.Invariant).Inc()
		}
		c.Violations = append(c.Violations, out.Violations...)
	}
	if opts.WCET {
		c.WCET = newWCETReport(c.Outcomes)
	}
	if opts.Log != nil {
		opts.Log("fuzz: %d/%d cases executed, %d skipped, %d violations", c.Executed, len(c.Cases), c.Skipped, len(c.Violations))
	}
	return c, nil
}
