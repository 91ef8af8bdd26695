package sim

import (
	"testing"

	tracepkg "edbp/internal/trace"
	"edbp/internal/workload"
)

// benchTrace records the benchmark workload once per process.
func benchTrace(b *testing.B) *workload.Trace {
	b.Helper()
	tr, err := workload.ByName("crc32")
	if err != nil {
		b.Fatal(err)
	}
	return tr.Record(0.25)
}

// benchWindow is the number of trace events one steady-state benchmark
// op replays.
const benchWindow = 64

// benchWindows times steady-state batchEvents windows over the crc32@0.25
// trace, the way TestBatchedSteadyStateZeroAllocs drives the loop: an
// effectively infinite supply (no outages, no hibernation), a warm-up
// outside the timer, and a fresh engine, also off the timer, whenever the
// trace runs out. One op is one benchWindow-event window.
func benchWindows(b *testing.B, scheme Scheme, traced bool) {
	const warm = 4096
	var e *engine
	var events []workload.Event
	lo := 0
	fresh := func() {
		var rec *tracepkg.Recorder
		if traced {
			rec = tracepkg.NewRecorder(tracepkg.Options{})
		}
		e = steadyEngineRec(b, scheme, rec)
		events = e.trace.Events
		if err := e.batchEvents(events, 0, warm); err != nil {
			b.Fatal(err)
		}
		lo = warm
	}
	fresh()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if lo+benchWindow > len(events) {
			b.StopTimer()
			fresh()
			b.StartTimer()
		}
		if err := e.batchEvents(events, lo, lo+benchWindow); err != nil {
			b.Fatal(err)
		}
		lo += benchWindow
	}
	b.ReportMetric(float64(b.N)*benchWindow/b.Elapsed().Seconds(), "events/s")
}

// BenchmarkEngineSteadyState measures the replay loop's per-window cost
// with no power failures.
func BenchmarkEngineSteadyState(b *testing.B) {
	for _, scheme := range []Scheme{Baseline, EDBP} {
		b.Run(scheme.String(), func(b *testing.B) { benchWindows(b, scheme, false) })
	}
}

// BenchmarkEngineSteadyStateTraced is the steady-state benchmark with a
// trace recorder attached: its delta over BenchmarkEngineSteadyState is
// the enabled-tracer overhead.
func BenchmarkEngineSteadyStateTraced(b *testing.B) {
	for _, scheme := range []Scheme{Baseline, EDBP} {
		b.Run(scheme.String(), func(b *testing.B) { benchWindows(b, scheme, true) })
	}
}

// BenchmarkHibernate measures one full outage recharge on the RFHome trace.
// One op is one complete hibernation (checkpoint voltage to restore
// threshold).
func BenchmarkHibernate(b *testing.B) {
	trace := benchTrace(b)
	cfg := Default("crc32", Baseline)
	cfg.Trace = trace
	cfg.MaxSimTime = 1e18
	cfg, err := cfg.normalize()
	if err != nil {
		b.Fatal(err)
	}
	e, err := newEngine(cfg, trace, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.cap.SetVoltage(e.cfg.Monitor.VCkpt - 0.05)
		e.mon.Observe(e.cap.Voltage()) // On -> Off (checkpoint edge)
		e.hibernate()
	}
}

// BenchmarkRunScheme measures one full sim.Run per op, per scheme, on
// crc32@0.25: the engine's end-to-end cost (event loop, outages,
// hibernation). Ideal's op is both oracle passes, so its ratio to
// NVSRAMCache (Baseline) is the oracle's cost in Baseline runs.
func BenchmarkRunScheme(b *testing.B) {
	for _, scheme := range []Scheme{Baseline, Decay, EDBP, DecayEDBP, Ideal} {
		b.Run(scheme.String(), func(b *testing.B) {
			trace := benchTrace(b)
			cfg := Default("crc32", scheme)
			cfg.Trace = trace
			b.ReportAllocs()
			b.ResetTimer()
			var events int
			for i := 0; i < b.N; i++ {
				if _, err := Run(cfg); err != nil {
					b.Fatal(err)
				}
				events += len(trace.Events)
			}
			b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
		})
	}
}
