package trace

import (
	"testing"

	"edbp/internal/metrics"
)

func TestKindNamesRoundTrip(t *testing.T) {
	for k := Kind(0); int(k) < KindCount; k++ {
		name := k.String()
		if name == "" || name == "unknown" {
			t.Fatalf("kind %d has no name", k)
		}
		back, ok := ParseKind(name)
		if !ok || back != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v, true", name, back, ok, k)
		}
	}
	if _, ok := ParseKind("no-such-kind"); ok {
		t.Fatal("ParseKind accepted an unknown name")
	}
	if Kind(200).String() != "unknown" {
		t.Fatalf("out-of-range kind String = %q", Kind(200).String())
	}
}

func TestRecorderCycleAccounting(t *testing.T) {
	r := NewRecorder(Options{Label: "test"})
	r.StartRun()

	// Cycle 0: a checkpoint of 3 blocks, two gatings, one wrong kill.
	r.SetNow(1e-3)
	r.BlockGated(1, 2, true)
	r.BlockGated(1, 3, false)
	r.WrongKill(1, 2)
	r.MonitorEdge(true, 3.19)
	r.Checkpoint(3)
	r.SetNow(2e-3)
	r.EndCycle(metrics.Counts{TP: 10, FP: 1, TN: 5, FN: 2, ZombieFN: 4})

	// Cycle 1: restore, one adaptation, run ends while powered.
	r.SetNow(3e-3)
	r.StartCycle()
	r.Restore(3)
	r.ThresholdAdapt(true, 0.25)
	r.SetNow(5e-3)
	r.FinishRun(metrics.Counts{TP: 12, FP: 1, TN: 7, FN: 2, ZombieFN: 5})

	s := r.Summary()
	if len(s.Cycles) != 2 {
		t.Fatalf("cycles = %d, want 2", len(s.Cycles))
	}
	c0, c1 := s.Cycles[0], s.Cycles[1]
	if c0.Index != 0 || c1.Index != 1 {
		t.Fatalf("cycle indices = %d, %d", c0.Index, c1.Index)
	}
	if c0.BlocksGated != 2 || c0.WrongKills != 1 || c0.Checkpoints != 1 || c0.CheckpointBlocks != 3 {
		t.Fatalf("cycle 0 counters = %+v", c0)
	}
	if c1.RestoredBlocks != 3 || c1.StepsDown != 1 {
		t.Fatalf("cycle 1 counters = %+v", c1)
	}
	want0 := metrics.Counts{TP: 10, FP: 1, TN: 5, FN: 2, ZombieFN: 4}
	want1 := metrics.Counts{TP: 2, FP: 0, TN: 2, FN: 0, ZombieFN: 1}
	if c0.Counts != want0 {
		t.Fatalf("cycle 0 counts = %+v, want %+v", c0.Counts, want0)
	}
	if c1.Counts != want1 {
		t.Fatalf("cycle 1 counts = %+v, want %+v", c1.Counts, want1)
	}
	if c1.Start != 3e-3 || c1.End != 5e-3 {
		t.Fatalf("cycle 1 span = [%g, %g]", c1.Start, c1.End)
	}

	// Per-cycle sums must reproduce the final aggregates exactly.
	var sum metrics.Counts
	for _, c := range s.AllCycles() {
		sum.TP += c.Counts.TP
		sum.FP += c.Counts.FP
		sum.TN += c.Counts.TN
		sum.FN += c.Counts.FN
		sum.ZombieFN += c.Counts.ZombieFN
	}
	final := metrics.Counts{TP: 12, FP: 1, TN: 7, FN: 2, ZombieFN: 5}
	if sum != final {
		t.Fatalf("cycle sum = %+v, want %+v", sum, final)
	}

	if got := s.Count(KindBlockGated); got != 2 {
		t.Fatalf("Count(KindBlockGated) = %d", got)
	}
	if got := s.Count(KindCycleStart); got != 2 {
		t.Fatalf("Count(KindCycleStart) = %d", got)
	}
	if s.Dropped != 0 {
		t.Fatalf("dropped = %d", s.Dropped)
	}
}

func TestRecorderEventRingOverflow(t *testing.T) {
	r := NewRecorder(Options{EventCap: 4})
	r.StartRun() // emits 1 cycle-start
	for i := 0; i < 10; i++ {
		r.SetNow(float64(i))
		r.WrongKill(i, 0)
	}
	s := r.Summary()
	if s.Events != 11 {
		t.Fatalf("events = %d, want 11", s.Events)
	}
	if s.Dropped != 7 {
		t.Fatalf("dropped = %d, want 7", s.Dropped)
	}
	// The ring must retain the newest 4, oldest first.
	var got []int32
	r.Events(func(ev *Event) {
		if ev.Kind != KindWrongKill {
			t.Fatalf("retained kind %v", ev.Kind)
		}
		got = append(got, ev.A)
	})
	want := []int32{6, 7, 8, 9}
	if len(got) != len(want) {
		t.Fatalf("retained %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("retained order %v, want %v", got, want)
		}
	}
	// ByKind counts every emission, dropped ones included.
	if s.Count(KindWrongKill) != 10 {
		t.Fatalf("ByKind[wrong-kill] = %d, want 10", s.Count(KindWrongKill))
	}
}

func TestRecorderSampleCadence(t *testing.T) {
	r := NewRecorder(Options{SampleEvery: 1e-3, SampleCap: 8})
	r.StartRun()
	taken := 0
	for i := 0; i < 100; i++ {
		now := float64(i) * 1e-4 // 0.1 ms steps; cadence 1 ms
		r.SetNow(now)
		if r.SampleDue(now) {
			r.AddSample(Sample{Time: now, Voltage: 3.0})
			taken++
		}
	}
	// t=0 due immediately, then every 1 ms over 9.9 ms: 10 samples.
	if taken != 10 {
		t.Fatalf("samples taken = %d, want 10", taken)
	}
	s := r.Summary()
	if s.Samples != 10 || s.SamplesDropped != 2 {
		t.Fatalf("samples = %d dropped = %d, want 10/2", s.Samples, s.SamplesDropped)
	}
	n := 0
	r.Samples(func(*Sample) { n++ })
	if n != 8 {
		t.Fatalf("retained samples = %d, want 8 (ring cap)", n)
	}
}

func TestRecorderMaxCyclesFolding(t *testing.T) {
	r := NewRecorder(Options{MaxCycles: 2})
	r.StartRun()
	for i := 0; i < 5; i++ {
		r.SetNow(float64(i + 1))
		r.Checkpoint(2)
		r.EndCycle(metrics.Counts{TP: uint64(3 * (i + 1))})
		r.StartCycle()
	}
	r.SetNow(10)
	r.FinishRun(metrics.Counts{TP: 16})

	s := r.Summary()
	if len(s.Cycles) != 2 {
		t.Fatalf("retained cycles = %d, want 2", len(s.Cycles))
	}
	if s.Rest == nil {
		t.Fatal("overflow bucket missing")
	}
	if s.Rest.Index != -1 {
		t.Fatalf("overflow index = %d, want -1", s.Rest.Index)
	}
	// Sums stay exact across the fold: 5 checkpoints of 2 blocks, TP 16.
	ck, blocks, tp := 0, 0, uint64(0)
	for _, c := range s.AllCycles() {
		ck += c.Checkpoints
		blocks += c.CheckpointBlocks
		tp += c.Counts.TP
	}
	if ck != 5 || blocks != 10 || tp != 16 {
		t.Fatalf("folded sums: checkpoints=%d blocks=%d tp=%d", ck, blocks, tp)
	}
}

func TestStartRunResetPreservesPriorSummary(t *testing.T) {
	r := NewRecorder(Options{})
	r.StartRun()
	r.SetNow(1)
	r.Checkpoint(7)
	r.EndCycle(metrics.Counts{TP: 1})
	first := r.Summary()

	r.StartRun()
	r.SetNow(2)
	r.FinishRun(metrics.Counts{})

	if len(first.Cycles) != 1 || first.Cycles[0].CheckpointBlocks != 7 {
		t.Fatalf("prior summary corrupted by StartRun: %+v", first.Cycles)
	}
	second := r.Summary()
	if len(second.Cycles) != 1 || second.Cycles[0].CheckpointBlocks != 0 {
		t.Fatalf("second run summary = %+v", second.Cycles)
	}
	if second.Events != 1 { // just the fresh cycle-start
		t.Fatalf("second run events = %d, want 1", second.Events)
	}
}

// TestRecorderFinishAfterOutage covers the run-ends-mid-hibernation path:
// the last cycle closed at the final outage, but the engine's teardown
// flush still resolves blocks left open there. FinishRun must fold that
// residual into the last closed cycle so per-cycle sums reproduce the
// aggregates exactly (the fuzzer's cycle-conservation invariant).
func TestRecorderFinishAfterOutage(t *testing.T) {
	r := NewRecorder(Options{Label: "test"})
	r.StartRun()
	r.SetNow(1e-3)
	r.EndCycle(metrics.Counts{TP: 4, TN: 10, FN: 1})
	// No StartCycle: the horizon hit during hibernation. Teardown resolves
	// two more TNs and one FN.
	r.FinishRun(metrics.Counts{TP: 4, TN: 12, FN: 2})

	s := r.Summary()
	if len(s.Cycles) != 1 {
		t.Fatalf("cycles = %d, want 1", len(s.Cycles))
	}
	want := metrics.Counts{TP: 4, TN: 12, FN: 2}
	if s.Cycles[0].Counts != want {
		t.Fatalf("cycle 0 counts = %+v, want %+v", s.Cycles[0].Counts, want)
	}

	// A second FinishRun (idempotence) must not double-fold.
	r.FinishRun(metrics.Counts{TP: 4, TN: 12, FN: 2})
	if got := r.Summary().Cycles[0].Counts; got != want {
		t.Fatalf("after second FinishRun: %+v, want %+v", got, want)
	}
}

// TestRecorderFinishAfterOutageOverflow routes the residual into the
// overflow bucket when the newest closed cycle was folded there.
func TestRecorderFinishAfterOutageOverflow(t *testing.T) {
	r := NewRecorder(Options{Label: "test", MaxCycles: 1})
	r.StartRun()
	r.SetNow(1e-3)
	r.EndCycle(metrics.Counts{TN: 3})
	r.StartCycle()
	r.SetNow(2e-3)
	r.EndCycle(metrics.Counts{TN: 5}) // second close: folds into Rest
	r.FinishRun(metrics.Counts{TN: 6, FN: 1})

	s := r.Summary()
	if s.Rest == nil {
		t.Fatal("no overflow bucket")
	}
	var sum metrics.Counts
	for _, c := range s.AllCycles() {
		sum.TN += c.Counts.TN
		sum.FN += c.Counts.FN
	}
	if sum.TN != 6 || sum.FN != 1 {
		t.Fatalf("cycle sum = %+v, want TN 6 FN 1", sum)
	}
	if s.Rest.Counts.TN != 3 || s.Rest.Counts.FN != 1 {
		t.Fatalf("rest counts = %+v, want TN 3 FN 1", s.Rest.Counts)
	}
}

// TestSummaryStringGolden pins the drop-count report line; edbpsim and
// sim.Result.String print it verbatim.
func TestSummaryStringGolden(t *testing.T) {
	s := &Summary{
		Events: 120, Dropped: 20,
		Samples: 64, SamplesDropped: 3,
		Cycles: make([]CycleStats, 7),
	}
	const want = "trace: 120 events (20 dropped), 64 samples (3 dropped), 7 cycles"
	if got := s.String(); got != want {
		t.Errorf("Summary.String drifted:\n got %q\nwant %q", got, want)
	}
	rest := CycleStats{Index: -1}
	s.Rest = &rest
	if got := s.String(); got != "trace: 120 events (20 dropped), 64 samples (3 dropped), 8 cycles" {
		t.Errorf("Summary.String with overflow bucket drifted: %q", got)
	}
	var nilSum *Summary
	if got := nilSum.String(); got != "trace: none" {
		t.Errorf("nil Summary.String = %q", got)
	}
}
