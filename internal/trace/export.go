package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"edbp/internal/traceevent"
)

// JSONL schema: one object per line, discriminated by "type". The first
// line is the meta record; cycle records precede event and sample records;
// optional profile records and a closing summary record follow. Field
// names are part of the tool contract (cmd/tracereport consumes them).

type jsonlMeta struct {
	Type          string  `json:"type"` // "meta"
	Version       int     `json:"version"`
	Label         string  `json:"label,omitempty"`
	SampleEveryUS float64 `json:"sample_every_us"`
	EventCap      int     `json:"event_cap"`
	SampleCap     int     `json:"sample_cap"`
}

type jsonlCycle struct {
	Type             string  `json:"type"` // "cycle"
	Index            int     `json:"index"`
	StartUS          float64 `json:"start_us"`
	EndUS            float64 `json:"end_us"`
	Checkpoints      int     `json:"checkpoints"`
	CheckpointBlocks int     `json:"checkpoint_blocks"`
	RestoredBlocks   int     `json:"restored_blocks"`
	BlocksGated      int     `json:"blocks_gated"`
	WrongKills       int     `json:"wrong_kills"`
	Sweeps           int     `json:"sweeps"`
	MaxLevel         int     `json:"max_level"`
	StepsDown        int     `json:"steps_down"`
	Resets           int     `json:"resets"`
	TP               uint64  `json:"tp"`
	FP               uint64  `json:"fp"`
	TN               uint64  `json:"tn"`
	FN               uint64  `json:"fn"`
	ZombieFN         uint64  `json:"zombie_fn"`
}

type jsonlEvent struct {
	Type  string  `json:"type"` // "event"
	Kind  string  `json:"kind"`
	TUS   float64 `json:"t_us"`
	Cycle int32   `json:"cycle"`
	A     int32   `json:"a"`
	B     int32   `json:"b"`
	V     float64 `json:"v"`
}

type jsonlSample struct {
	Type        string  `json:"type"` // "sample"
	TUS         float64 `json:"t_us"`
	Cycle       int32   `json:"cycle"`
	Voltage     float64 `json:"voltage"`
	StoredUJ    float64 `json:"stored_uj"`
	Live        int32   `json:"live"`
	Gated       int32   `json:"gated"`
	Dirty       int32   `json:"dirty"`
	Level       int32   `json:"level"`
	FPR         float64 `json:"fpr"`
	ZombieRatio float64 `json:"zombie_ratio"`
}

type jsonlProfile struct {
	Type        string  `json:"type"` // "profile"
	Voltage     float64 `json:"voltage"`
	ZombieRatio float64 `json:"zombie_ratio"`
	Samples     float64 `json:"samples"`
}

type jsonlSummary struct {
	Type           string            `json:"type"` // "summary"
	Events         uint64            `json:"events"`
	Dropped        uint64            `json:"dropped"`
	Samples        uint64            `json:"samples"`
	SamplesDropped uint64            `json:"samples_dropped"`
	Cycles         int               `json:"cycles"`
	ByKind         map[string]uint64 `json:"by_kind"`
}

func cycleLine(c *CycleStats) jsonlCycle {
	return jsonlCycle{
		Type: "cycle", Index: c.Index,
		StartUS: c.Start * 1e6, EndUS: c.End * 1e6,
		Checkpoints: c.Checkpoints, CheckpointBlocks: c.CheckpointBlocks,
		RestoredBlocks: c.RestoredBlocks, BlocksGated: c.BlocksGated,
		WrongKills: c.WrongKills, Sweeps: c.Sweeps, MaxLevel: c.MaxLevel,
		StepsDown: c.StepsDown, Resets: c.Resets,
		TP: c.Counts.TP, FP: c.Counts.FP, TN: c.Counts.TN,
		FN: c.Counts.FN, ZombieFN: c.Counts.ZombieFN,
	}
}

// WriteJSONL streams the recorded run as line-delimited JSON. profile,
// when non-nil, appends the Figure 4 voltage-vs-zombie points so
// cmd/tracereport can reproduce the profile CSV from a live run.
func (r *Recorder) WriteJSONL(w io.Writer, profile []ProfilePoint) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(jsonlMeta{
		Type: "meta", Version: 1, Label: r.opt.Label,
		SampleEveryUS: r.opt.SampleEvery * 1e6,
		EventCap:      r.opt.EventCap, SampleCap: r.opt.SampleCap,
	}); err != nil {
		return err
	}
	sum := r.Summary()
	for i := range sum.Cycles {
		if err := enc.Encode(cycleLine(&sum.Cycles[i])); err != nil {
			return err
		}
	}
	if sum.Rest != nil {
		if err := enc.Encode(cycleLine(sum.Rest)); err != nil {
			return err
		}
	}
	var err error
	r.Events(func(ev *Event) {
		if err != nil {
			return
		}
		err = enc.Encode(jsonlEvent{
			Type: "event", Kind: ev.Kind.String(), TUS: ev.Time * 1e6,
			Cycle: ev.Cycle, A: ev.A, B: ev.B, V: ev.V,
		})
	})
	if err != nil {
		return err
	}
	r.Samples(func(s *Sample) {
		if err != nil {
			return
		}
		err = enc.Encode(jsonlSample{
			Type: "sample", TUS: s.Time * 1e6, Cycle: s.Cycle,
			Voltage: s.Voltage, StoredUJ: s.Stored * 1e6,
			Live: s.Live, Gated: s.Gated, Dirty: s.Dirty,
			Level: s.Level, FPR: s.FPR, ZombieRatio: s.ZombieRatio,
		})
	})
	if err != nil {
		return err
	}
	for _, p := range profile {
		if err := enc.Encode(jsonlProfile{
			Type: "profile", Voltage: p.Voltage,
			ZombieRatio: p.ZombieRatio, Samples: p.Samples,
		}); err != nil {
			return err
		}
	}
	byKind := make(map[string]uint64, kindCount)
	for k, n := range sum.ByKind {
		if n > 0 {
			byKind[Kind(k).String()] = n
		}
	}
	if err := enc.Encode(jsonlSummary{
		Type: "summary", Events: sum.Events, Dropped: sum.Dropped,
		Samples: sum.Samples, SamplesDropped: sum.SamplesDropped,
		Cycles: len(sum.Cycles), ByKind: byKind,
	}); err != nil {
		return err
	}
	return bw.Flush()
}

// Dump is a decoded JSONL stream (ReadJSONL's output; what
// cmd/tracereport works from).
type Dump struct {
	Label         string
	SampleEveryUS float64
	Cycles        []CycleStats
	Rest          *CycleStats
	Events        []Event
	Samples       []Sample
	Profile       []ProfilePoint
	ByKind        map[string]uint64
	TotalEvents   uint64
	Dropped       uint64
}

// ReadJSONL decodes a stream produced by WriteJSONL. Unknown line types
// are skipped (forward compatibility); unknown event kinds are retained
// with Kind 255.
func ReadJSONL(rd io.Reader) (*Dump, error) {
	d := &Dump{}
	dec := json.NewDecoder(bufio.NewReader(rd))
	for lineNo := 1; ; lineNo++ {
		var raw json.RawMessage
		if err := dec.Decode(&raw); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("trace: jsonl record %d: %w", lineNo, err)
		}
		var typ struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(raw, &typ); err != nil {
			return nil, fmt.Errorf("trace: jsonl record %d: %w", lineNo, err)
		}
		switch typ.Type {
		case "meta":
			var m jsonlMeta
			if err := json.Unmarshal(raw, &m); err != nil {
				return nil, err
			}
			d.Label = m.Label
			d.SampleEveryUS = m.SampleEveryUS
		case "cycle":
			var c jsonlCycle
			if err := json.Unmarshal(raw, &c); err != nil {
				return nil, err
			}
			cs := CycleStats{
				Index: c.Index, Start: c.StartUS / 1e6, End: c.EndUS / 1e6,
				Checkpoints: c.Checkpoints, CheckpointBlocks: c.CheckpointBlocks,
				RestoredBlocks: c.RestoredBlocks, BlocksGated: c.BlocksGated,
				WrongKills: c.WrongKills, Sweeps: c.Sweeps, MaxLevel: c.MaxLevel,
				StepsDown: c.StepsDown, Resets: c.Resets,
			}
			cs.Counts.TP, cs.Counts.FP, cs.Counts.TN = c.TP, c.FP, c.TN
			cs.Counts.FN, cs.Counts.ZombieFN = c.FN, c.ZombieFN
			if cs.Index < 0 {
				rc := cs
				d.Rest = &rc
			} else {
				d.Cycles = append(d.Cycles, cs)
			}
		case "event":
			var e jsonlEvent
			if err := json.Unmarshal(raw, &e); err != nil {
				return nil, err
			}
			k, ok := ParseKind(e.Kind)
			if !ok {
				k = Kind(255)
			}
			d.Events = append(d.Events, Event{
				Time: e.TUS / 1e6, V: e.V, Cycle: e.Cycle, A: e.A, B: e.B, Kind: k,
			})
		case "sample":
			var s jsonlSample
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, err
			}
			d.Samples = append(d.Samples, Sample{
				Time: s.TUS / 1e6, Voltage: s.Voltage, Stored: s.StoredUJ / 1e6,
				FPR: s.FPR, ZombieRatio: s.ZombieRatio,
				Live: s.Live, Gated: s.Gated, Dirty: s.Dirty,
				Level: s.Level, Cycle: s.Cycle,
			})
		case "profile":
			var p jsonlProfile
			if err := json.Unmarshal(raw, &p); err != nil {
				return nil, err
			}
			d.Profile = append(d.Profile, ProfilePoint{
				Voltage: p.Voltage, ZombieRatio: p.ZombieRatio, Samples: p.Samples,
			})
		case "summary":
			var s jsonlSummary
			if err := json.Unmarshal(raw, &s); err != nil {
				return nil, err
			}
			d.ByKind = s.ByKind
			d.TotalEvents = s.Events
			d.Dropped = s.Dropped
		}
	}
	return d, nil
}

// ------------------------------------------------- Chrome trace_event --

const (
	chromePID    = 1
	tidPhases    = 1 // power-cycle spans
	tidEvents    = 2 // instant events
	tidPredictor = 3 // gating / sweep events
)

// WriteChromeTrace renders the recorded run in Chrome trace_event JSON:
// power-cycle phases as duration ("X") slices, recorded events as instants
// ("i"), and the gauge samples as counter ("C") tracks (capacitor,
// dcache-blocks, edbp).
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	tw := traceevent.NewWriter(w)
	name := r.opt.Label
	if name == "" {
		name = "edbp simulation"
	}
	tw.Emit(traceevent.Event{Name: "process_name", Ph: "M", PID: chromePID, Args: map[string]any{"name": name}})
	tw.Emit(traceevent.Event{Name: "thread_name", Ph: "M", PID: chromePID, TID: tidPhases, Args: map[string]any{"name": "power cycles"}})
	tw.Emit(traceevent.Event{Name: "thread_name", Ph: "M", PID: chromePID, TID: tidEvents, Args: map[string]any{"name": "power events"}})
	tw.Emit(traceevent.Event{Name: "thread_name", Ph: "M", PID: chromePID, TID: tidPredictor, Args: map[string]any{"name": "predictor"}})

	sum := r.Summary()
	for i := range sum.Cycles {
		c := &sum.Cycles[i]
		tw.Emit(traceevent.Event{
			Name: "powered", Cat: "cycle", Ph: "X",
			TS: c.Start * 1e6, Dur: c.OnDuration() * 1e6,
			PID: chromePID, TID: tidPhases,
			Args: map[string]any{
				"cycle":        c.Index,
				"ckpt_blocks":  c.CheckpointBlocks,
				"restored":     c.RestoredBlocks,
				"blocks_gated": c.BlocksGated,
				"wrong_kills":  c.WrongKills,
				"max_level":    c.MaxLevel,
				"zombie_fn":    c.Counts.ZombieFN,
			},
		})
		// The off span between this cycle's end and the next one's start.
		if i+1 < len(sum.Cycles) {
			next := &sum.Cycles[i+1]
			if next.Start > c.End {
				tw.Emit(traceevent.Event{
					Name: "off", Cat: "cycle", Ph: "X",
					TS: c.End * 1e6, Dur: (next.Start - c.End) * 1e6,
					PID: chromePID, TID: tidPhases,
					Args: map[string]any{"cycle": c.Index},
				})
			}
		}
	}

	r.Events(func(ev *Event) {
		tid := tidEvents
		switch ev.Kind {
		case KindGateLevel, KindBlockGated, KindWrongKill,
			KindThresholdStep, KindThresholdReset, KindSweep:
			tid = tidPredictor
		}
		tw.Emit(traceevent.Event{
			Name: ev.Kind.String(), Cat: "event", Ph: "i",
			TS: ev.Time * 1e6, PID: chromePID, TID: tid, Scope: "t",
			Args: map[string]any{"cycle": ev.Cycle, "a": ev.A, "b": ev.B, "v": ev.V},
		})
	})

	r.Samples(func(s *Sample) {
		ts := s.Time * 1e6
		tw.Emit(traceevent.Event{Name: "capacitor", Ph: "C", TS: ts, PID: chromePID,
			Args: map[string]any{"voltage_V": s.Voltage, "stored_uJ": s.Stored * 1e6}})
		tw.Emit(traceevent.Event{Name: "dcache-blocks", Ph: "C", TS: ts, PID: chromePID,
			Args: map[string]any{"live": s.Live, "gated": s.Gated, "dirty": s.Dirty}})
		tw.Emit(traceevent.Event{Name: "edbp", Ph: "C", TS: ts, PID: chromePID,
			Args: map[string]any{"level": s.Level, "fpr": s.FPR, "zombie_ratio": s.ZombieRatio}})
	})
	return tw.Close()
}
