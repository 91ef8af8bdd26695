package sim

import (
	"reflect"
	"testing"
)

// comparableResult strips the Result fields that legitimately differ
// between two equivalent runs: the attached Recorder and VoltageSampler
// (distinct instances; the recording itself is still compared through
// TraceSummary) and BatchCap (a knob that must not influence results).
// Everything else — every energy accumulator, counter and timestamp —
// stays under reflect.DeepEqual.
func comparableResult(r *Result) *Result {
	c := *r
	c.Config.Recorder = nil
	c.Config.VoltageSampler = nil
	c.Config.BatchCap = 0
	return &c
}

// runCaps runs cfg at the default batch cap and at each of caps, requires
// every capped Result to equal the default one, and returns the latter.
func runCaps(t *testing.T, cfg Config, caps ...int) *Result {
	t.Helper()
	gold, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := comparableResult(gold)
	for _, batchCap := range caps {
		cfg.BatchCap = batchCap
		res, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := comparableResult(res)
		if !reflect.DeepEqual(got.OutageTimes, want.OutageTimes) {
			t.Errorf("BatchCap=%d shifted outage timestamps:\n got:  %v\n want: %v", batchCap, got.OutageTimes, want.OutageTimes)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BatchCap=%d diverged from the default cap:\n got:  %+v\n want: %+v", batchCap, got, want)
		}
	}
	return gold
}

// TestBatchCapInvariance pins Config.BatchCap's contract: the cap bounds
// how many threshold compares the loop may skip, never results. Every cap
// — including the degenerate 1 (a compare per flush, so outages always
// land on a batch edge) — must reproduce the default cap bit for bit,
// outage timestamps included.
func TestBatchCapInvariance(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, EDBP} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := Default("crc32", scheme)
			cfg.Scale = 0.25
			if runCaps(t, cfg, 1, 3, 64).Outages == 0 {
				t.Fatal("the RFHome run had no outages; the cap sweep would not exercise batch-edge outages")
			}
		})
	}
}

// TestBatchCapExceedsTrace pins the oversized-batch edge: a cap far
// larger than the whole event stream means every batch is bounded by the
// energy slack or the trace end, never the cap.
func TestBatchCapExceedsTrace(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, EDBP, Ideal} {
		cfg := Default("crc32", scheme)
		cfg.Scale = 0.02
		runCaps(t, cfg, 1<<20) // the trace is a few thousand events
	}
}
