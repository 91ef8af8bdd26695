package experiments

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"edbp/internal/energy"
	"edbp/internal/sim"
)

// poolTraceSet builds a traceSet for direct runAll tests.
func poolTraceSet(t *testing.T, workers int) *traceSet {
	t.Helper()
	o := Options{Apps: []string{"crc32"}, Scale: 0.05, Seeds: 1, Workers: workers}.normalize()
	o.Workers = workers // normalize leaves non-zero Workers, but be explicit
	ts, err := newTraceSet(o)
	if err != nil {
		t.Fatal(err)
	}
	return ts
}

// TestRunAllBoundedGoroutines pins the satellite bugfix: under a 500-job
// grid, live goroutines never exceed opts.Workers. Each job samples
// runtime.NumGoroutine at setup; the old spawn-then-throttle
// implementation put all 500 goroutines on the scheduler at once and
// fails this assertion by two orders of magnitude.
func TestRunAllBoundedGoroutines(t *testing.T) {
	const workers = 4
	ts := poolTraceSet(t, workers)

	before := runtime.NumGoroutine()
	var maxSeen atomic.Int64
	jobs := make([]job, 500)
	for i := range jobs {
		jobs[i] = job{app: "crc32", seed: 1, scheme: sim.Baseline, mutate: func(c *sim.Config) {
			if n := int64(runtime.NumGoroutine()); n > maxSeen.Load() {
				maxSeen.Store(n)
			}
			c.MaxSimTime = 1 // keep each sim tiny
		}}
	}
	res, err := ts.runAll(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 500 {
		t.Fatalf("got %d results", len(res))
	}
	// Allow slack for test-framework goroutines, but nothing near 500.
	if delta := maxSeen.Load() - int64(before); delta > workers+4 {
		t.Errorf("runAll grew goroutines by %d; want ≤ workers(%d)+slack", delta, workers)
	}
}

// TestRunAllErrorIdentifiesJob pins the satellite bugfix: a failing job's
// error names its app/scheme/seed, and multiple independent failures are
// all reported (errors.Join), not just the first.
func TestRunAllErrorIdentifiesJob(t *testing.T) {
	ts := poolTraceSet(t, 1)
	// Unknown apps are not in ts.traces, so sim.RunContext gets the name
	// and rejects it.
	jobs := []job{
		{app: "no-such-app", seed: 7, scheme: sim.EDBP},
	}
	_, err := ts.runAll(context.Background(), jobs)
	if err == nil {
		t.Fatal("expected an error for the unknown app")
	}
	for _, want := range []string{"no-such-app", "EDBP", "seed 7"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %q", err, want)
		}
	}
}

// TestRunAllFailFastSkipsQueued: with one worker, a failing first job must
// cancel the pool before any queued sibling is dispatched.
func TestRunAllFailFastSkipsQueued(t *testing.T) {
	ts := poolTraceSet(t, 1)
	var started atomic.Int32
	jobs := []job{{app: "no-such-app", seed: 1, scheme: sim.Baseline}}
	for i := 0; i < 8; i++ {
		jobs = append(jobs, job{app: "crc32", seed: 1, scheme: sim.Baseline, mutate: func(c *sim.Config) {
			started.Add(1)
		}})
	}
	_, err := ts.runAll(context.Background(), jobs)
	if err == nil {
		t.Fatal("expected the bad job's error")
	}
	if !strings.Contains(err.Error(), "no-such-app") {
		t.Errorf("error %q does not identify the failing job", err)
	}
	// The single worker consumes jobs in order; after job 0 fails the
	// feeder sees the canceled context and dispatches nothing further.
	if n := started.Load(); n != 0 {
		t.Errorf("%d queued siblings ran after the failure; fail-fast should skip them all", n)
	}
}

// TestRunAllFailFastCancelsInFlight: a sibling stuck in a weak-harvest
// hibernation (zero-power source, effectively unbounded MaxSimTime) must
// be canceled by another job's failure. Without fail-fast this test does
// not flake — it hangs until the package timeout.
func TestRunAllFailFastCancelsInFlight(t *testing.T) {
	ts := poolTraceSet(t, 2)
	jobs := []job{
		{app: "crc32", seed: 1, scheme: sim.Baseline, mutate: func(c *sim.Config) {
			c.Source = energy.ConstantSource{P: 0}
			c.MaxSimTime = 1e6
		}},
		{app: "no-such-app", seed: 1, scheme: sim.Baseline},
	}
	start := time.Now()
	_, err := ts.runAll(context.Background(), jobs)
	if err == nil {
		t.Fatal("expected the bad job's error")
	}
	if !strings.Contains(err.Error(), "no-such-app") {
		t.Errorf("error %q should be the real failure, not the canceled sibling's", err)
	}
	if elapsed := time.Since(start); elapsed > 30*time.Second {
		t.Errorf("runAll took %v; the hibernating sibling was not canceled", elapsed)
	}
}

// TestRunAllParentContext: canceling the caller's context surfaces the
// context error, not a per-job failure.
func TestRunAllParentContext(t *testing.T) {
	ts := poolTraceSet(t, 2)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	jobs := []job{{app: "crc32", seed: 1, scheme: sim.Baseline}}
	_, err := ts.runAll(ctx, jobs)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestHarnessHonorsContext: a canceled context aborts a full figure
// harness promptly.
func TestHarnessHonorsContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := Figure8(ctx, tinyOptions())
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Figure8 err = %v, want context.Canceled", err)
	}
}
