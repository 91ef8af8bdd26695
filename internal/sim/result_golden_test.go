package sim

import (
	"testing"

	"edbp/internal/cache"
	"edbp/internal/metrics"
	"edbp/internal/trace"
)

// goldenResult builds a fully deterministic Result so the report strings
// can be compared byte-for-byte.
func goldenResult() *Result {
	r := &Result{
		WallTime:   1.234567,
		ActiveTime: 0.987654,
		OffTime:    0.246913,
		Energy: EnergyBreakdown{
			DCacheDynamic: 1e-3,
			DCacheLeak:    2e-3,
			ICacheDynamic: 0.5e-3,
			Memory:        1.5e-3,
			Checkpoint:    0.25e-3,
			MCU:           0.75e-3,
		},
		PowerCycles: 42,
		DCacheStats: cache.Stats{Hits: 900, Misses: 100},
		Prediction:  metrics.Counts{TP: 60, FP: 5, TN: 20, FN: 10, ZombieFN: 5},
	}
	r.Config.App = "crc32"
	r.Config.Scheme = EDBP
	return r
}

// TestResultStringGolden pins the Result.String report format; the CLIs
// print it verbatim, so silent drift is a user-facing change.
func TestResultStringGolden(t *testing.T) {
	r := goldenResult()
	const want = "crc32/EDBP: wall=1.235s (active 0.988s, off 0.247s), E=6.000mJ, cycles=42" +
		", D$ miss=10.00%, cov=80.0% acc=80.0%"
	if got := r.String(); got != want {
		t.Errorf("Result.String drifted:\n got %q\nwant %q", got, want)
	}

	r.Truncated = true
	if got := r.String(); got != want+" [TRUNCATED]" {
		t.Errorf("truncated Result.String drifted:\n got %q", got)
	}

	// With a trace summary attached, the ring drop counts (events and
	// gauges) must appear so silent truncation is visible.
	r.Truncated = false
	r.TraceSummary = &trace.Summary{
		Events: 500, Dropped: 12, Samples: 40, SamplesDropped: 3,
		Cycles: make([]trace.CycleStats, 2),
	}
	const wantTrace = want + ", trace: 500 events (12 dropped), 40 samples (3 dropped), 2 cycles"
	if got := r.String(); got != wantTrace {
		t.Errorf("traced Result.String drifted:\n got %q\nwant %q", got, wantTrace)
	}
}

// TestEDBPStatsStringGolden pins the EDBP register report line.
func TestEDBPStatsStringGolden(t *testing.T) {
	s := &EDBPStats{Gated: 1234, WrongKills: 56, StepsDown: 7, Resets: 3, FinalFPR: 0.0456}
	const want = "edbp: gated=1234 wrongKills=56 adapt(down=7, reset=3) fpr=0.046"
	if got := s.String(); got != want {
		t.Errorf("EDBPStats.String drifted:\n got %q\nwant %q", got, want)
	}
}

// TestOutageSample pins the OutageTimes cap contract: the sample plus a
// truncation flag, with Outages always the true count.
func TestOutageSample(t *testing.T) {
	r := &Result{Outages: 3, OutageTimes: []float64{0.1, 0.2, 0.3}}
	times, truncated := r.OutageSample()
	if len(times) != 3 || truncated {
		t.Fatalf("untruncated sample: len=%d truncated=%v", len(times), truncated)
	}

	r = &Result{Outages: OutageTimeCap + 100, OutageTimes: make([]float64, OutageTimeCap)}
	times, truncated = r.OutageSample()
	if len(times) != OutageTimeCap || !truncated {
		t.Fatalf("truncated sample: len=%d truncated=%v", len(times), truncated)
	}
}

// TestOutageTimesCapEnforced runs a scenario with more outages than the
// cap and verifies the engine stops recording at OutageTimeCap while
// Outages keeps counting. Exercising 4096 real outages is too slow for a
// unit test, so this drives powerFailure directly.
func TestOutageTimesCapEnforced(t *testing.T) {
	e := steadyEngineRec(t, Baseline, nil)
	e.cfg.MaxSimTime = -1 // next hibernation exits immediately as truncated
	for i := 0; i < OutageTimeCap+5; i++ {
		e.truncated = false
		e.powerFailure()
	}
	if e.res.Outages != OutageTimeCap+5 {
		t.Fatalf("Outages = %d, want %d", e.res.Outages, OutageTimeCap+5)
	}
	if len(e.res.OutageTimes) != OutageTimeCap {
		t.Fatalf("len(OutageTimes) = %d, want cap %d", len(e.res.OutageTimes), OutageTimeCap)
	}
	times, truncated := e.res.OutageSample()
	if !truncated || len(times) != OutageTimeCap {
		t.Fatalf("OutageSample: len=%d truncated=%v", len(times), truncated)
	}
}
