package trace

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"
)

// preallocated builds a recorder whose rings are allocated at their caps
// up front, the reference the growing rings must match.
func preallocated(opt Options) *Recorder {
	r := NewRecorder(opt)
	r.events = make([]Event, r.opt.EventCap)
	r.samples = make([]Sample, r.opt.SampleCap)
	return r
}

// recordN emits n events, or takes n samples, stamped with their ordinal.
func recordN(r *Recorder, n int, samples bool) {
	for i := 0; i < n; i++ {
		r.SetNow(float64(i) * 1e-6)
		if samples {
			r.AddSample(Sample{Time: float64(i) * 1e-6, Voltage: 3 + float64(i)/1e4, Live: int32(i)})
		} else {
			r.BlockGated(i, i%4, i%2 == 0)
		}
	}
}

// snapshot is everything a recorder reports about its rings.
type snapshot struct {
	events  []Event
	samples []Sample
	summary *Summary
	jsonl   string
	chrome  string
}

func snap(t *testing.T, r *Recorder) snapshot {
	t.Helper()
	s := snapshot{summary: r.Summary()}
	r.Events(func(ev *Event) { s.events = append(s.events, *ev) })
	r.Samples(func(sm *Sample) { s.samples = append(s.samples, *sm) })
	var j, c bytes.Buffer
	if err := r.WriteJSONL(&j, nil); err != nil {
		t.Fatal(err)
	}
	if err := r.WriteChromeTrace(&c); err != nil {
		t.Fatal(err)
	}
	s.jsonl, s.chrome = j.String(), c.String()
	return s
}

// TestGrowingRingsMatchPreallocated: for emission counts around the cap
// and past two wraps, rings that grow on demand keep the same entries in
// the same order, count the same drops and export the same bytes as rings
// allocated at their caps. The second pass reuses both recorders after
// StartRun, the way a benchmark harness reuses one across runs.
func TestGrowingRingsMatchPreallocated(t *testing.T) {
	// 5 is below the first size; 17 grows 16 → 17; 100 grows 16 → 32 → 64 → 100.
	for _, limit := range []int{5, 17, 100} {
		for _, samples := range []bool{false, true} {
			for _, n := range []int{0, 1, limit - 1, limit, limit + 1, 2*limit + 3} {
				name := fmt.Sprintf("cap%d/samples=%v/n=%d", limit, samples, n)
				opt := Options{Label: name, EventCap: limit, SampleCap: limit, SampleEvery: 1e-6}
				grown, ref := NewRecorder(opt), preallocated(opt)
				for pass := 0; pass < 2; pass++ {
					if pass == 1 {
						grown.StartRun()
						ref.StartRun()
					}
					recordN(grown, n, samples)
					recordN(ref, n, samples)
					got, want := snap(t, grown), snap(t, ref)
					if !reflect.DeepEqual(got, want) {
						t.Fatalf("%s pass %d: growing rings report\n%+v\nwant\n%+v", name, pass, got, want)
					}
				}
				if len(grown.events) > limit || len(grown.samples) > limit {
					t.Errorf("%s: rings grew to %d events, %d samples past cap %d", name, len(grown.events), len(grown.samples), limit)
				}
			}
		}
	}
}

// TestFullRingsRecordWithoutAllocating: once both rings have reached their
// caps, recording an event or a sample allocates nothing at all.
func TestFullRingsRecordWithoutAllocating(t *testing.T) {
	r := NewRecorder(Options{EventCap: 100, SampleCap: 100, SampleEvery: 1e-6})
	r.StartRun()
	recordN(r, 100, false)
	recordN(r, 100, true)
	if len(r.events) != 100 || len(r.samples) != 100 {
		t.Fatalf("rings at %d events, %d samples, want both at 100", len(r.events), len(r.samples))
	}
	// One run of 10000 records, so the count is exact, not an average.
	if n := testing.AllocsPerRun(1, func() {
		for i := 0; i < 10000; i++ {
			r.WrongKill(i, 1)
			r.AddSample(Sample{Time: float64(i), Live: int32(i)})
		}
	}); n != 0 {
		t.Errorf("full rings allocated %v times in 10000 records, want 0", n)
	}
}
