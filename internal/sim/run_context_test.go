package sim

import (
	"context"
	"errors"
	"reflect"
	"testing"
	"time"

	"edbp/internal/energy"
	evtrace "edbp/internal/trace"
	"edbp/internal/workload"
)

// TestRunContextNilContext treats a nil context as Background.
func TestRunContextNilContext(t *testing.T) {
	cfg := Default("crc32", Baseline)
	cfg.Scale = 0.05
	//lint:ignore SA1012 the nil fallback is part of the contract under test
	res, err := RunContext(nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Instructions == 0 {
		t.Fatal("no instructions executed")
	}
}

// TestRunContextPreCancelledEventLoop: an already-canceled context must
// return from the event loop before any simulation work, as a *Canceled
// error carrying the (empty) partial result.
func TestRunContextPreCancelledEventLoop(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	cfg := Default("crc32", EDBP)
	cfg.Scale = 0.25
	start := time.Now()
	res, err := RunContext(ctx, cfg)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("pre-canceled run took %v, want a prompt return", elapsed)
	}
	if res != nil {
		t.Fatal("canceled run must not return a success result")
	}
	var c *Canceled
	if !errors.As(err, &c) {
		t.Fatalf("error %v (%T) is not *Canceled", err, err)
	}
	if !errors.Is(err, context.Canceled) {
		t.Errorf("error %v does not unwrap to context.Canceled", err)
	}
	if c.Partial == nil {
		t.Fatal("Canceled.Partial is nil")
	}
	if c.Partial.Instructions != 0 {
		t.Errorf("pre-canceled run executed %d instructions, want 0", c.Partial.Instructions)
	}
}

// TestRunContextCancelDuringHibernation pins the weak-harvest livelock
// escape: with a zero-power source the first outage hibernates forever
// (the capacitor can never recharge to Vrst), and before this PR the only
// exit was MaxSimTime. The context poll inside the hibernation loop must
// return long before the 1e6-simulated-second horizon.
func TestRunContextCancelDuringHibernation(t *testing.T) {
	cfg := Default("crc32", Baseline)
	cfg.Scale = 0.25
	cfg.Source = energy.ConstantSource{P: 0}
	cfg.MaxSimTime = 1e6 // ~10^10 hibernation steps: unreachable in test time

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	var res *Result
	var err error
	go func() {
		defer close(done)
		res, err = RunContext(ctx, cfg)
	}()
	// Let the run drain the capacitor and enter hibernation, then cancel.
	time.Sleep(100 * time.Millisecond)
	cancel()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("RunContext did not return within 10s of cancellation")
	}

	if res != nil {
		t.Fatal("canceled run must not return a success result")
	}
	var c *Canceled
	if !errors.As(err, &c) {
		t.Fatalf("error %v (%T) is not *Canceled", err, err)
	}
	p := c.Partial
	if p == nil {
		t.Fatal("Canceled.Partial is nil")
	}
	if p.Outages == 0 {
		t.Error("expected the zero-power run to reach at least one outage before cancellation")
	}
	if p.OffTime == 0 {
		t.Error("expected hibernation time in the partial result")
	}
	if p.Truncated {
		t.Error("cancellation must not masquerade as MaxSimTime truncation")
	}
}

// TestRunContextDeadline: a deadline fires through the same poll path and
// surfaces as context.DeadlineExceeded. The zero-power source makes the
// workload uncompletable (hibernation to the 1e6 s horizon), so the
// deadline is deterministically the first exit — wall-clock time ≪ what
// MaxSimTime truncation would need.
func TestRunContextDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()

	cfg := Default("sha", EDBP)
	cfg.Scale = 0.25
	cfg.Source = energy.ConstantSource{P: 0}
	cfg.MaxSimTime = 1e6
	start := time.Now()
	_, err := RunContext(ctx, cfg)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("zero-power run cannot complete; expected a deadline error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not unwrap to DeadlineExceeded", err)
	}
	if elapsed > 10*time.Second {
		t.Errorf("deadline run took %v, want a prompt return", elapsed)
	}
}

// TestRunContextBitIdentical proves the headline contract: a cancellable
// context that never fires leaves the result bit-identical to Run's —
// polling must not perturb the simulation. reflect.DeepEqual covers every
// field including the float64 energy accumulators.
func TestRunContextBitIdentical(t *testing.T) {
	trace, err := workload.Cached("crc32", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	for _, scheme := range []Scheme{Baseline, EDBP, Ideal} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := Default("crc32", scheme)
			cfg.Trace = trace

			plain, err := Run(cfg)
			if err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			polled, err := RunContext(ctx, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(plain, polled) {
				t.Errorf("RunContext result diverged from Run:\n run: %v\n ctx: %v", plain, polled)
			}
		})
	}
}

// pollInvisible runs mk's config plainly and again under an armed but
// undisturbed context, and requires DeepEqual Results (recorder and
// sampler instances aside).
func pollInvisible(t *testing.T, mk func() Config) {
	t.Helper()
	plain, err := Run(mk())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	polled, err := RunContext(ctx, mk())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(comparableResult(plain), comparableResult(polled)) {
		t.Errorf("armed context perturbed the run:\n plain:  %+v\n polled: %+v", plain, polled)
	}
}

// TestBatchedContextPollBitIdentical arms a context on a traced EDBP run:
// the loop's poll sites and its gauge-sample settles interleave, and the
// poll must still only read.
func TestBatchedContextPollBitIdentical(t *testing.T) {
	t.Run("batched", func(t *testing.T) {
		pollInvisible(t, func() Config {
			cfg := Default("crc32", EDBP)
			cfg.Scale = 0.25
			cfg.Recorder = evtrace.NewRecorder(evtrace.Options{SampleEvery: 20e-6})
			return cfg
		})
	})
}

// TestHibernateContextPollBitIdentical arms a context on EDBP runs whose
// hibernation loops poll it on an RF and the thermal trace. (The "fast"
// subtest names are from when a second, per-step hibernation loop was
// compared too.)
func TestHibernateContextPollBitIdentical(t *testing.T) {
	for _, kind := range []energy.TraceKind{energy.RFHome, energy.Thermal} {
		t.Run(kind.String()+"/fast", func(t *testing.T) {
			pollInvisible(t, func() Config {
				cfg := Default("crc32", EDBP)
				cfg.Scale = 0.25
				cfg.TraceKind = kind
				return cfg
			})
		})
	}
}
