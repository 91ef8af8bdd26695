// Package traceevent writes the Chrome trace_event JSON object form,
// {"traceEvents": [...]}, that Perfetto (ui.perfetto.dev) and
// chrome://tracing load. It is the one writer behind both Chrome exports:
// internal/trace's simulated-device timeline and internal/span's service
// spans.
package traceevent

import (
	"bufio"
	"encoding/json"
	"io"
)

// Event is one trace_event record. TS and Dur are microseconds, the
// format's unit. TID is always written, so process-scoped records
// (process_name, process_sort_index, "C" counters) carry "tid":0.
type Event struct {
	Name  string         `json:"name"`
	Cat   string         `json:"cat,omitempty"`
	Ph    string         `json:"ph"`
	TS    float64        `json:"ts"`
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Scope string         `json:"s,omitempty"`
	Args  map[string]any `json:"args,omitempty"`
}

// Writer streams one trace_event document: the header, one event per
// line, and the trailer Close writes. The first error sticks: later
// events are dropped and Close returns it.
type Writer struct {
	bw  *bufio.Writer
	sep string // written before the next event
	err error
}

// NewWriter starts a document on w. Output is buffered; Close flushes it.
func NewWriter(w io.Writer) *Writer {
	tw := &Writer{bw: bufio.NewWriter(w), sep: "\n"}
	_, tw.err = tw.bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	return tw
}

// Emit appends ev to the document.
func (w *Writer) Emit(ev Event) {
	if w.err != nil {
		return
	}
	b, err := json.Marshal(ev)
	if err == nil {
		w.bw.WriteString(w.sep) // bufio.Writer's errors stick: Write reports this one too
		w.sep = ",\n"
		_, err = w.bw.Write(b)
	}
	w.err = err
}

// Close ends the document: it writes the trailer unless an event failed,
// flushes, and returns the first error. It does not close the underlying
// writer.
func (w *Writer) Close() error {
	if w.err == nil {
		w.bw.WriteString("\n]}\n") // a failed write sticks: Flush returns it
	}
	if err := w.bw.Flush(); w.err == nil {
		w.err = err
	}
	return w.err
}
