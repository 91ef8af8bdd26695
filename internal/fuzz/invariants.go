package fuzz

import (
	"fmt"
	"math"

	"edbp/internal/cache"
	"edbp/internal/sim"
	"edbp/internal/trace"
)

// Artifacts is everything one executed case produced, handed to every
// invariant check. Res and Summary are always set for a completed run;
// Partial/CancelAt only on cancellation-probed ones.
type Artifacts struct {
	Case Case
	// Res is the run's result with a trace.Recorder attached.
	Res *sim.Result
	// Summary is Res.TraceSummary (never nil for a completed run).
	Summary *trace.Summary
	// Partial is the finalized partial result of the cancellation probe;
	// CancelAt is the powered-sample index the probe cancelled at. A probe
	// whose run completed before the cancel point leaves Partial nil.
	Partial  *sim.Result
	CancelAt int
}

// Invariant is one machine-verifiable property of a simulation result.
// Check returns nil when the property holds; the error should state the
// observed and expected values.
type Invariant struct {
	Name string
	Desc string
	// Pure invariants look only at Artifacts already produced; the runner
	// evaluates every pure invariant on every case. The non-pure entry
	// (cancel-partial) depends on the sampled probe's artifacts and is
	// skipped when the probe did not run.
	Check func(a *Artifacts) error
}

// Violation records one invariant failure on one case.
type Violation struct {
	Case      Case
	Invariant string
	Err       error
}

// String renders the violation on one line.
func (v Violation) String() string {
	return fmt.Sprintf("case %d (seed %#x, %s/%s/%s): %s: %v",
		v.Case.Index, v.Case.Seed, v.Case.Config.App, v.Case.Config.Scheme,
		v.Case.Config.TraceKind, v.Invariant, v.Err)
}

// relTol is the relative tolerance for floating-point accumulation
// identities (energy conservation, time partition): the compared totals
// are independent running sums over millions of steps.
const relTol = 1e-6

func closeRel(a, b, scale float64) bool {
	return math.Abs(a-b) <= relTol*math.Max(math.Abs(scale), 1e-12)
}

// Catalog returns the invariant catalog in evaluation order.
func Catalog() []Invariant {
	return []Invariant{
		{
			Name:  "domains",
			Desc:  "every reported metric is finite and within its domain",
			Check: func(a *Artifacts) error { return checkDomains(a.Res) },
		},
		{
			Name:  "time-partition",
			Desc:  "active + off time partitions wall time",
			Check: func(a *Artifacts) error { return checkTimePartition(a.Res) },
		},
		{
			Name: "progress",
			Desc: "untruncated runs executed work; truncated runs hit the horizon",
			Check: func(a *Artifacts) error {
				r := a.Res
				if r.Truncated {
					if r.WallTime < r.Config.MaxSimTime {
						return fmt.Errorf("truncated at wall=%g before MaxSimTime=%g", r.WallTime, r.Config.MaxSimTime)
					}
					return nil
				}
				if r.Instructions == 0 {
					return fmt.Errorf("completed run retired no instructions")
				}
				if r.WallTime <= 0 {
					return fmt.Errorf("completed run took wall=%g", r.WallTime)
				}
				return nil
			},
		},
		{
			Name: "checkpoint-pairing",
			Desc: "checkpoints pair with outages; power cycles complete all but the last",
			Check: func(a *Artifacts) error {
				r := a.Res
				if r.Checkpoints != r.Outages {
					return fmt.Errorf("checkpoints=%d != outages=%d (every outage is preceded by exactly one JIT checkpoint)", r.Checkpoints, r.Outages)
				}
				if d := r.Outages - r.PowerCycles; d != 0 && d != 1 {
					return fmt.Errorf("outages=%d, powerCycles=%d: want a difference of 0 or 1", r.Outages, r.PowerCycles)
				}
				times, _ := r.OutageSample()
				if len(times) > r.Outages {
					return fmt.Errorf("%d outage timestamps for %d outages", len(times), r.Outages)
				}
				prev := 0.0
				for i, t := range times {
					if t < prev || t > r.WallTime+relTol*r.WallTime {
						return fmt.Errorf("outage time[%d]=%g out of order or past wall=%g", i, t, r.WallTime)
					}
					prev = t
				}
				return nil
			},
		},
		{
			Name:  "cycle-conservation",
			Desc:  "per-cycle trace counters sum exactly to the aggregate result",
			Check: func(a *Artifacts) error { return checkConservation(a.Res, a.Summary) },
		},
		{
			Name: "energy-accounting",
			Desc: "the capacitor ledger balances within accumulation tolerance",
			Check: func(a *Artifacts) error {
				r := a.Res
				c := r.Cap
				leaked := r.Energy.CapacitorLeak
				lhs := c.Initial + c.Harvested
				rhs := c.Final + c.Wasted + leaked + c.Drained
				if !closeRel(lhs, rhs, lhs) {
					return fmt.Errorf("ledger off by %g: initial %g + harvested %g != final %g + wasted %g + leaked %g + drained %g",
						lhs-rhs, c.Initial, c.Harvested, c.Final, c.Wasted, leaked, c.Drained)
				}
				return nil
			},
		},
		{
			Name: "cache-stats",
			Desc: "cache counters satisfy their structural inequalities",
			Check: func(a *Artifacts) error {
				if err := checkCacheStats("D$", a.Res.DCacheStats); err != nil {
					return err
				}
				return checkCacheStats("I$", a.Res.ICacheStats)
			},
		},
		{
			Name: "gated-time-bound",
			Desc: "gated block-seconds fit inside blocks × wall time",
			Check: func(a *Artifacts) error {
				r := a.Res
				if r.GatedBlockSeconds < 0 {
					return fmt.Errorf("negative GatedBlockSeconds %g", r.GatedBlockSeconds)
				}
				blocks := r.Config.DCacheBytes / r.Config.BlockBytes
				if r.Config.PredictICache {
					blocks += r.Config.ICacheBytes / r.Config.BlockBytes
				}
				bound := float64(blocks) * r.WallTime
				if r.GatedBlockSeconds > bound*(1+relTol) {
					return fmt.Errorf("GatedBlockSeconds %g exceeds %d blocks × wall %g = %g", r.GatedBlockSeconds, blocks, r.WallTime, bound)
				}
				return nil
			},
		},
		{
			Name: "cancel-partial",
			Desc: "a cancelled run's partial result is finalized and well-formed",
			Check: func(a *Artifacts) error {
				if a.Partial == nil {
					return nil // not sampled, or the run completed first
				}
				if err := checkDomains(a.Partial); err != nil {
					return fmt.Errorf("partial at sample %d: %w", a.CancelAt, err)
				}
				if err := checkTimePartition(a.Partial); err != nil {
					return fmt.Errorf("partial at sample %d: %w", a.CancelAt, err)
				}
				if full := a.Res; a.Partial.Instructions > full.Instructions {
					return fmt.Errorf("partial retired %d instructions, more than the full run's %d", a.Partial.Instructions, full.Instructions)
				}
				return nil
			},
		},
	}
}

// checkDomains validates that every scalar in the result is finite and in
// range; it runs on full and partial results alike.
func checkDomains(r *sim.Result) error {
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"WallTime", r.WallTime}, {"ActiveTime", r.ActiveTime}, {"OffTime", r.OffTime},
		{"Energy.DCacheDynamic", r.Energy.DCacheDynamic}, {"Energy.DCacheLeak", r.Energy.DCacheLeak},
		{"Energy.ICacheDynamic", r.Energy.ICacheDynamic}, {"Energy.ICacheLeak", r.Energy.ICacheLeak},
		{"Energy.Memory", r.Energy.Memory}, {"Energy.Checkpoint", r.Energy.Checkpoint},
		{"Energy.MCU", r.Energy.MCU}, {"Energy.CapacitorLeak", r.Energy.CapacitorLeak},
		{"Cap.Initial", r.Cap.Initial}, {"Cap.Final", r.Cap.Final},
		{"Cap.Harvested", r.Cap.Harvested}, {"Cap.Wasted", r.Cap.Wasted}, {"Cap.Drained", r.Cap.Drained},
		{"GatedBlockSeconds", r.GatedBlockSeconds},
	} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) || f.v < 0 {
			return fmt.Errorf("%s = %g: want finite and non-negative", f.name, f.v)
		}
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"D$ miss rate", r.DCacheStats.MissRate()},
		{"I$ miss rate", r.ICacheStats.MissRate()},
		{"coverage", r.Prediction.Coverage()},
		{"accuracy", r.Prediction.Accuracy()},
	} {
		if math.IsNaN(f.v) || f.v < 0 || f.v > 1 {
			return fmt.Errorf("%s = %g: want within [0,1]", f.name, f.v)
		}
	}
	if r.Checkpoints < 0 || r.Outages < 0 || r.PowerCycles < 0 {
		return fmt.Errorf("negative event counts: ckpt=%d outages=%d cycles=%d", r.Checkpoints, r.Outages, r.PowerCycles)
	}
	return nil
}

// checkTimePartition validates ActiveTime + OffTime == WallTime.
func checkTimePartition(r *sim.Result) error {
	if sum := r.ActiveTime + r.OffTime; !closeRel(sum, r.WallTime, r.WallTime) {
		return fmt.Errorf("active %g + off %g = %g != wall %g", r.ActiveTime, r.OffTime, sum, r.WallTime)
	}
	return nil
}

// checkCacheStats validates one cache's structural counter relations:
// subsets never exceed their supersets, fills happen only on misses, and
// only filled blocks can be evicted or written back.
func checkCacheStats(label string, s cache.Stats) error {
	for _, rel := range []struct {
		name string
		a, b uint64
	}{
		{"GatedMisses ≤ Misses", s.GatedMisses, s.Misses},
		{"StoreHits ≤ Hits", s.StoreHits, s.Hits},
		{"StoreMisses ≤ Misses", s.StoreMisses, s.Misses},
		{"Fills ≤ Misses", s.Fills, s.Misses},
		{"Evictions ≤ Fills", s.Evictions, s.Fills},
		{"Writebacks ≤ Evictions", s.Writebacks, s.Evictions},
	} {
		if rel.a > rel.b {
			return fmt.Errorf("%s: %s violated (%d > %d; stats %+v)", label, rel.name, rel.a, rel.b, s)
		}
	}
	return nil
}

// checkConservation re-validates the tier-1 conservation identity on a
// fuzzed configuration: the per-power-cycle counter deltas recorded by the
// trace layer must sum exactly — not approximately — to the aggregates the
// simulator reports.
func checkConservation(r *sim.Result, s *trace.Summary) error {
	if s == nil {
		return fmt.Errorf("no trace summary attached")
	}
	all := s.AllCycles()
	overflowed := s.Rest != nil
	if !r.Truncated && !overflowed {
		if want := r.Outages + 1; len(all) != want {
			return fmt.Errorf("%d recorded cycles, want outages+1 = %d", len(all), want)
		}
	}
	var sum trace.CycleStats
	for _, c := range all {
		sum.Checkpoints += c.Checkpoints
		sum.CheckpointBlocks += c.CheckpointBlocks
		sum.RestoredBlocks += c.RestoredBlocks
		sum.BlocksGated += c.BlocksGated
		sum.WrongKills += c.WrongKills
		sum.StepsDown += c.StepsDown
		sum.Resets += c.Resets
		sum.Counts.TP += c.Counts.TP
		sum.Counts.FP += c.Counts.FP
		sum.Counts.TN += c.Counts.TN
		sum.Counts.FN += c.Counts.FN
		sum.Counts.ZombieFN += c.Counts.ZombieFN
	}
	if sum.Counts != r.Prediction {
		return fmt.Errorf("cycle Counts sum %+v != aggregate %+v", sum.Counts, r.Prediction)
	}
	if sum.Checkpoints != r.Checkpoints {
		return fmt.Errorf("cycle checkpoints sum %d != %d", sum.Checkpoints, r.Checkpoints)
	}
	if sum.CheckpointBlocks != r.CheckpointBlocks {
		return fmt.Errorf("cycle checkpoint-blocks sum %d != %d", sum.CheckpointBlocks, r.CheckpointBlocks)
	}
	if sum.RestoredBlocks != r.RestoredBlocks {
		return fmt.Errorf("cycle restored-blocks sum %d != %d", sum.RestoredBlocks, r.RestoredBlocks)
	}
	if uint64(sum.WrongKills) != r.DCacheStats.GatedMisses {
		return fmt.Errorf("cycle wrong-kills sum %d != D$ gated misses %d", sum.WrongKills, r.DCacheStats.GatedMisses)
	}
	if r.EDBP != nil {
		if uint64(sum.StepsDown) != r.EDBP.StepsDown {
			return fmt.Errorf("cycle steps-down sum %d != EDBP %d", sum.StepsDown, r.EDBP.StepsDown)
		}
		if uint64(sum.Resets) != r.EDBP.Resets {
			return fmt.Errorf("cycle resets sum %d != EDBP %d", sum.Resets, r.EDBP.Resets)
		}
	}
	return nil
}
