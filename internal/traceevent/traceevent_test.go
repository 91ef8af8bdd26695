package traceevent

import (
	"bytes"
	"errors"
	"math"
	"testing"
)

// TestWriterEmptyDocument: with no events the document is still valid
// JSON (the goldens in internal/trace and internal/span pin the layout
// with events).
func TestWriterEmptyDocument(t *testing.T) {
	var buf bytes.Buffer
	if err := NewWriter(&buf).Close(); err != nil {
		t.Fatal(err)
	}
	if got, want := buf.String(), "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n]}\n"; got != want {
		t.Errorf("got %q, want %q", got, want)
	}
}

type failWriter struct{ n int }

var errWrite = errors.New("disk full")

func (f *failWriter) Write(p []byte) (int, error) {
	f.n++
	return 0, errWrite
}

// TestWriterStickyError: the first failure, a write or an unencodable
// event, is what Close returns, and nothing is encoded after it.
func TestWriterStickyError(t *testing.T) {
	fw := &failWriter{}
	tw := NewWriter(fw)
	for i := 0; i < 1000; i++ { // enough to overflow the buffer
		tw.Emit(Event{Name: "padding-padding-padding", Ph: "i"})
	}
	if err := tw.Close(); !errors.Is(err, errWrite) {
		t.Fatalf("Close = %v, want %v", err, errWrite)
	}
	if fw.n != 1 {
		t.Errorf("underlying writer called %d times, want 1", fw.n)
	}

	var buf bytes.Buffer
	tw = NewWriter(&buf)
	tw.Emit(Event{Name: "bad", Ph: "C", Args: map[string]any{"v": math.NaN()}})
	tw.Emit(Event{Name: "after", Ph: "i"})
	if err := tw.Close(); err == nil {
		t.Fatal("Close = nil after an unencodable event")
	}
	if bytes.Contains(buf.Bytes(), []byte("after")) {
		t.Errorf("event after the failure was written: %s", buf.Bytes())
	}
}
