package edbp

// Benchmark harness: one testing.B benchmark per table/figure of the
// paper's evaluation, plus trace recording. The engine's own benchmarks
// (replay windows, hibernation, one sim.Run per scheme) live in
// internal/sim.
// Each figure benchmark regenerates that artefact (at a reduced scale so
// `go test -bench=.` completes in minutes; cmd/experiments runs the full
// configuration) and reports the headline number as a custom metric.
//
// Run everything:
//
//	go test -bench=. -benchmem
//
// Regenerate one figure at full scale instead:
//
//	go run ./cmd/experiments -run fig8

import (
	"context"
	"strconv"
	"strings"
	"testing"

	"edbp/internal/experiments"
	"edbp/internal/workload"
)

// benchOptions trades statistical weight for speed: a representative
// subset of apps at reduced scale, single seed.
func benchOptions() experiments.Options {
	return experiments.Options{
		Apps:  []string{"crc32", "adpcm_d", "susan", "sha", "dijkstra", "rijndael"},
		Scale: 0.25,
		Seeds: 1,
	}
}

// benchTable runs one experiment generator b.N times and reports a chosen
// cell as a metric.
func benchTable(b *testing.B, run func(context.Context, experiments.Options) (*experiments.Table, error),
	metricRow, metricCol, metricName string) {
	b.Helper()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		t, err := run(context.Background(), benchOptions())
		if err != nil {
			b.Fatal(err)
		}
		last = t
	}
	if metricRow != "" {
		cell := strings.TrimSuffix(last.Cell(metricRow, metricCol), "%")
		if v, err := strconv.ParseFloat(cell, 64); err == nil {
			b.ReportMetric(v, metricName)
		}
	}
}

func BenchmarkTableI(b *testing.B) {
	benchTable(b, experiments.TableI, "leakage (mW)", "16kB", "leak16kB_mW")
}

func BenchmarkFigure1(b *testing.B) {
	benchTable(b, experiments.Figure1, "16kB", "real leakage", "speedup16kB")
}

func BenchmarkFigure4(b *testing.B) {
	benchTable(b, experiments.Figure4, "", "", "")
}

func BenchmarkFigure6(b *testing.B) {
	benchTable(b, experiments.Figure6, "", "", "")
}

func BenchmarkFigure7(b *testing.B) {
	benchTable(b, experiments.Figure7, "", "", "")
}

func BenchmarkFigure8(b *testing.B) {
	benchTable(b, experiments.Figure8, "GEOMEAN", "CacheDecay+EDBP", "combined_speedup")
}

func BenchmarkFigure9(b *testing.B) {
	benchTable(b, experiments.Figure9, "MEAN", "avg power (mW)", "avg_mW")
}

func BenchmarkFigure10(b *testing.B) {
	benchTable(b, experiments.Figure10, "DRRIP", "EDBP", "edbp_drrip_speedup")
}

func BenchmarkFigure11(b *testing.B) {
	benchTable(b, experiments.Figure11, "16kB", "CacheDecay+EDBP", "combined16kB")
}

func BenchmarkFigure12(b *testing.B) {
	benchTable(b, experiments.Figure12, "4-way", "EDBP", "edbp4way")
}

func BenchmarkFigure13(b *testing.B) {
	benchTable(b, experiments.Figure13, "ReRAM", "CacheDecay+EDBP", "combined_reram")
}

func BenchmarkFigure14(b *testing.B) {
	benchTable(b, experiments.Figure14, "16MB", "EDBP", "edbp16MB")
}

func BenchmarkFigure15(b *testing.B) {
	benchTable(b, experiments.Figure15, "RFHome", "EDBP", "edbp_rfhome")
}

func BenchmarkFigure16(b *testing.B) {
	benchTable(b, experiments.Figure16, "0.47µF", "EDBP", "edbp_smallcap")
}

func BenchmarkFigure17(b *testing.B) {
	benchTable(b, experiments.Figure17, "default", "CacheDecay+EDBP", "combined_default")
}

func BenchmarkFigure18(b *testing.B) {
	benchTable(b, experiments.Figure18, "CacheDecay+EDBP (both)", "speedup", "both_speedup")
}

func BenchmarkHardwareCost(b *testing.B) {
	benchTable(b, experiments.HardwareCost, "", "", "")
}

// ---- workload recording -------------------------------------------------

// BenchmarkTraceRecording measures workload trace capture itself.
func BenchmarkTraceRecording(b *testing.B) {
	app, err := workload.ByName("sha")
	if err != nil {
		b.Fatal(err)
	}
	var events int
	for i := 0; i < b.N; i++ {
		tr := app.Record(0.25)
		events += len(tr.Events)
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/s")
}

func BenchmarkIntegration(b *testing.B) {
	benchTable(b, experiments.Integration, "CacheDecay [32]", "+EDBP", "decay_plus_edbp")
}

func BenchmarkAblationEDBP(b *testing.B) {
	benchTable(b, experiments.AblationEDBP, "default", "speedup", "edbp_default")
}

func BenchmarkAblationDecay(b *testing.B) {
	benchTable(b, experiments.AblationDecay, "default (dirty+persist)", "decay alone", "decay_default")
}
