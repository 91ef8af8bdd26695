package trace

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"

	"edbp/internal/metrics"
)

// exerciseRecorder drives a small two-cycle run through every event kind.
func exerciseRecorder() *Recorder {
	r := NewRecorder(Options{Label: "export-test", SampleEvery: 1e-3})
	r.StartRun()
	r.AddSample(Sample{Time: 0, Voltage: 3.5, Stored: 2.9e-6, Live: 10})
	r.SetNow(1e-3)
	r.GatingLevel(0, 2, 3.3)
	r.BlockGated(3, 1, true)
	r.WrongKill(3, 1)
	r.PredictorSweep(4, 4096)
	r.MonitorEdge(true, 3.19)
	r.Checkpoint(5)
	r.EndCycle(metrics.Counts{TP: 4, ZombieFN: 2})
	r.SetNow(2e-3)
	r.MonitorEdge(false, 3.41)
	r.StartCycle()
	r.Restore(5)
	r.ThresholdAdapt(false, 0.01)
	r.SetNow(3e-3)
	r.AddSample(Sample{Time: 3e-3, Voltage: 3.4, Stored: 2.7e-6, Live: 8, Gated: 2, Dirty: 1, Level: 1})
	r.FinishRun(metrics.Counts{TP: 6, ZombieFN: 2})
	return r
}

func TestJSONLRoundTrip(t *testing.T) {
	r := exerciseRecorder()
	profile := []ProfilePoint{{Voltage: 3.3, ZombieRatio: 0.25, Samples: 40}}

	var buf bytes.Buffer
	if err := r.WriteJSONL(&buf, profile); err != nil {
		t.Fatal(err)
	}
	// Every line must be standalone valid JSON.
	for i, line := range strings.Split(strings.TrimSpace(buf.String()), "\n") {
		if !json.Valid([]byte(line)) {
			t.Fatalf("line %d is not valid JSON: %s", i+1, line)
		}
	}

	d, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if d.Label != "export-test" {
		t.Fatalf("label = %q", d.Label)
	}
	if len(d.Cycles) != 2 {
		t.Fatalf("cycles = %d, want 2", len(d.Cycles))
	}
	sum := r.Summary()
	for i := range d.Cycles {
		if d.Cycles[i] != sum.Cycles[i] {
			t.Fatalf("cycle %d round-trip mismatch:\n got %+v\nwant %+v", i, d.Cycles[i], sum.Cycles[i])
		}
	}
	if uint64(len(d.Events)) != sum.Events {
		t.Fatalf("events = %d, want %d", len(d.Events), sum.Events)
	}
	for i, ev := range d.Events {
		if ev.Kind == Kind(255) {
			t.Fatalf("event %d decoded with unknown kind", i)
		}
	}
	if len(d.Samples) != 2 {
		t.Fatalf("samples = %d, want 2", len(d.Samples))
	}
	if d.Samples[1].Level != 1 || d.Samples[1].Gated != 2 {
		t.Fatalf("sample round-trip mismatch: %+v", d.Samples[1])
	}
	if len(d.Profile) != 1 || d.Profile[0].ZombieRatio != 0.25 {
		t.Fatalf("profile round-trip mismatch: %+v", d.Profile)
	}
	if d.TotalEvents != sum.Events || d.Dropped != sum.Dropped {
		t.Fatalf("summary round-trip: events=%d dropped=%d", d.TotalEvents, d.Dropped)
	}
	if d.ByKind["checkpoint"] != 1 || d.ByKind["sweep"] != 1 {
		t.Fatalf("by_kind round-trip: %v", d.ByKind)
	}
}

func TestReadJSONLSkipsUnknownTypes(t *testing.T) {
	in := `{"type":"meta","version":1,"label":"x","sample_every_us":20}
{"type":"future-record","whatever":true}
{"type":"event","kind":"outage","t_us":1,"cycle":0,"a":0,"b":0,"v":0}
`
	d, err := ReadJSONL(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Events) != 1 || d.Events[0].Kind != KindOutage {
		t.Fatalf("events = %+v", d.Events)
	}
}

func TestWriteChromeTrace(t *testing.T) {
	r := exerciseRecorder()
	var buf bytes.Buffer
	if err := r.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			TS   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			PID  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v", err)
	}
	if doc.DisplayTimeUnit != "ms" {
		t.Fatalf("displayTimeUnit = %q", doc.DisplayTimeUnit)
	}
	counts := map[string]int{}
	var powered, counters int
	for _, ev := range doc.TraceEvents {
		counts[ev.Ph]++
		if ev.Ph == "X" && ev.Name == "powered" {
			powered++
			if ev.Dur < 0 {
				t.Fatalf("negative span duration: %+v", ev)
			}
		}
		if ev.Ph == "C" {
			counters++
		}
		if ev.PID != chromePID {
			t.Fatalf("event with pid %d", ev.PID)
		}
	}
	if counts["M"] < 4 {
		t.Fatalf("metadata events = %d, want >= 4", counts["M"])
	}
	if powered != 2 {
		t.Fatalf("powered spans = %d, want 2 (one per cycle)", powered)
	}
	sum := r.Summary()
	if counts["i"] != int(sum.Events) {
		t.Fatalf("instant events = %d, want %d", counts["i"], sum.Events)
	}
	if counters != 2*3 { // 3 counter tracks per sample
		t.Fatalf("counter events = %d, want 6", counters)
	}
}

// TestWriteChromeTraceGolden pins the Chrome trace_event export byte for
// byte: metadata records, cycle slices, instants on their tid lanes, and
// the three counter tracks per sample.
func TestWriteChromeTraceGolden(t *testing.T) {
	var buf bytes.Buffer
	if err := exerciseRecorder().WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != chromeGolden {
		t.Fatalf("chrome export drifted from golden:\n--- got ---\n%s\n--- want ---\n%s", got, chromeGolden)
	}
}
