package sim

import (
	"testing"

	"edbp/internal/energy"
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

// steadyEngine builds an engine fed by an effectively infinite supply, so
// the benchmark exercises the pure event loop: no outages, no hibernation.
func steadyEngine(b *testing.B, scheme Scheme) *engine {
	b.Helper()
	trace := benchTrace(b)
	cfg := Default("crc32", scheme)
	cfg.Trace = trace
	cfg.Source = energy.ConstantSource{P: 1.0}
	cfg.MaxSimTime = 1e18
	cfg, err := cfg.normalize()
	if err != nil {
		b.Fatal(err)
	}
	e, err := newEngine(cfg, trace, nil)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// BenchmarkEngineSteadyState measures the per-event cost of the hot path
// (execMem + flush) with no power failures. One op is one memory event.
func BenchmarkEngineSteadyState(b *testing.B) {
	for _, scheme := range []Scheme{Baseline, EDBP} {
		b.Run(scheme.String(), func(b *testing.B) {
			e := steadyEngine(b, scheme)
			// Warm up: fault in the working set and any lazy predictor state.
			for i := 0; i < 4096; i++ {
				e.execMem(uint64(i%2048)*4, i&3 == 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.execMem(uint64(i%2048)*4, i&3 == 0)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
	}
}

// BenchmarkEngineSteadyStateTraced is the steady-state benchmark with a
// trace recorder attached — the enabled-tracer overhead measurement
// (cmd/bench snapshots the disabled/enabled pair into BENCH_engine.json).
func BenchmarkEngineSteadyStateTraced(b *testing.B) {
	for _, scheme := range []Scheme{Baseline, EDBP} {
		b.Run(scheme.String(), func(b *testing.B) {
			trace := benchTrace(b)
			cfg := Default("crc32", scheme)
			cfg.Trace = trace
			cfg.Source = energy.ConstantSource{P: 1.0}
			cfg.MaxSimTime = 1e18
			cfg.Recorder = tracepkg.NewRecorder(tracepkg.Options{})
			cfg, err := cfg.normalize()
			if err != nil {
				b.Fatal(err)
			}
			e, err := newEngine(cfg, trace, nil)
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < 4096; i++ {
				e.execMem(uint64(i%2048)*4, i&3 == 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.execMem(uint64(i%2048)*4, i&3 == 0)
			}
			b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "events/s")
		})
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

// BenchmarkRunScheme measures one full sim.Run per op, per scheme — the
// end-to-end number cmd/bench snapshots into BENCH_engine.json. Ideal's op
// is both oracle passes, so its ratio to NVSRAMCache (Baseline) is the
// oracle's cost in Baseline runs.
func BenchmarkRunScheme(b *testing.B) {
	for _, scheme := range []Scheme{Baseline, EDBP, DecayEDBP, Ideal} {
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
