package sim

import (
	"context"
	"testing"

	"edbp/internal/energy"
	"edbp/internal/predictor"
	"edbp/internal/trace"
	"edbp/internal/workload"
)

// TestBatchedSteadyStateZeroAllocs asserts the replay loop's zero-alloc
// contract: a steady-state window — hot-state hoist, inlined cache probes,
// flush arithmetic, settle — allocates nothing, with and without a trace
// recorder attached. The recorder's rings double as they fill, a few
// times over the measured windows, which AllocsPerRun's whole-number mean
// per window reads as 0; rings at their caps record with no allocation at
// all (internal/trace's TestFullRingsRecordWithoutAllocating). The windows
// advance through the real recorded trace, so region transitions and tick
// chunks are exercised, not just memory events. The Ideal rows measure the
// oracle's replay pass, whose windows also run its scheduled gates.
func TestBatchedSteadyStateZeroAllocs(t *testing.T) {
	for _, tc := range []struct {
		name   string
		scheme Scheme
		traced bool
	}{
		{"NVSRAMCache", Baseline, false},
		{"EDBP", EDBP, false},
		{"Ideal", Ideal, false},
		{"NVSRAMCache/traced", Baseline, true},
		{"EDBP/traced", EDBP, true},
		{"Ideal/traced", Ideal, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var rec *trace.Recorder
			if tc.traced {
				rec = trace.NewRecorder(trace.Options{})
			}
			e := steadyEngineRec(t, tc.scheme, rec)
			events := e.trace.Events
			const window = 64
			lo := 0
			next := func() {
				if err := e.batchEvents(events, lo, lo+window); err != nil {
					t.Fatal(err)
				}
				lo += window
			}
			// Warm up: fault in the working set, grow lazy predictor state,
			// and let the first outage (if any) size its scratch.
			for lo < 4096 {
				next()
			}
			gateFrom := e.ideal.Next()
			// 2000 measured windows plus warm-up stay inside the trace
			// (crc32 at 0.25 has ~200k events), so no wrap-around is needed.
			if avg := testing.AllocsPerRun(2000, next); avg != 0 {
				t.Errorf("steady-state batch window allocates %.2f times per window, want 0", avg)
			}
			if tc.scheme == Ideal && e.ideal.Next() == gateFrom {
				t.Error("the oracle's cursor did not move — no scheduled gate was exercised")
			}
			if tc.traced && rec.Summary().Samples == 0 {
				t.Error("recorder took no samples — the traced path was not exercised")
			}
		})
	}
}

// steadyEngineRec builds an engine fed by an effectively infinite supply
// (no outages, no hibernation), with an optional trace recorder.
func steadyEngineRec(t testing.TB, scheme Scheme, rec *trace.Recorder) *engine {
	t.Helper()
	trace, err := workload.Cached("crc32", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	cfg := Default("crc32", scheme)
	cfg.Trace = trace
	cfg.Source = energy.ConstantSource{P: 1.0}
	cfg.MaxSimTime = 1e18
	cfg.Recorder = rec
	cfg, err = cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	var oracle predictor.Predictor
	if scheme == Ideal {
		// The oracle's replay pass, fed by a full recording pass.
		if oracle, err = recordIdeal(context.Background(), cfg, trace); err != nil {
			t.Fatal(err)
		}
	}
	e, err := newEngine(cfg, trace, oracle)
	if err != nil {
		t.Fatal(err)
	}
	return e
}
