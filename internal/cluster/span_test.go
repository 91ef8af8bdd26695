package cluster

import (
	"context"
	"encoding/json"
	"strings"
	"testing"

	"edbp/internal/span"
)

// TestDispatchSpansOnRetry kills the ring owner and asserts the
// coordinator records one span per dispatch attempt: the failed attempt
// carries the dead node and an error, the retry carries the exclusion
// set, and both parent off the caller's span context. It also checks
// the traceparent header actually reached the surviving worker.
func TestDispatchSpansOnRetry(t *testing.T) {
	c, workers := testFleet(t, 2)
	rec := span.NewRecorder("coord", 64)
	c.Spans = rec

	key := "deadbeefdeadbeefdeadbeef"
	owner, ok := c.Members.Owner(key, nil)
	if !ok {
		t.Fatal("no owner")
	}
	victim := findWorker(workers, owner.ID)
	survivorID := "w1"
	if victim.id == "w1" {
		survivorID = "w2"
	}
	victim.ts.CloseClientConnections()
	victim.ts.Close()

	root := rec.Start(span.Context{}, "test-root")
	ctx := span.With(context.Background(), root.Ctx())
	body, _ := json.Marshal(map[string]any{"app": "crc32", "seed": 1})
	_, node, attempts, err := c.Execute(ctx, key, body)
	if err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if node != survivorID || attempts != 2 {
		t.Fatalf("node=%s attempts=%d, want %s/2", node, attempts, survivorID)
	}
	root.End()

	recs := rec.Snapshot(root.Ctx().Trace)
	var dispatches []span.Record
	for _, r := range recs {
		if r.Name == "dispatch" {
			dispatches = append(dispatches, r)
		}
	}
	if len(dispatches) != 2 {
		t.Fatalf("recorded %d dispatch spans, want 2 (one per attempt): %+v", len(dispatches), recs)
	}
	attr := func(r span.Record, key string) string {
		for _, a := range r.Attrs {
			if a.Key == key {
				return a.Value
			}
		}
		return ""
	}
	first, second := dispatches[0], dispatches[1]
	if attr(first, "attempt") == "2" {
		first, second = second, first
	}
	if attr(first, "node") != victim.id || first.Err == "" {
		t.Fatalf("failed attempt span wrong: node=%q err=%q", attr(first, "node"), first.Err)
	}
	if attr(second, "node") != survivorID || second.Err != "" {
		t.Fatalf("retry span wrong: node=%q err=%q", attr(second, "node"), second.Err)
	}
	if attr(second, "excluded") != victim.id {
		t.Fatalf("retry exclusion set = %q, want %q", attr(second, "excluded"), victim.id)
	}
	for _, d := range dispatches {
		if d.Parent != root.Ctx().Span {
			t.Fatalf("dispatch span parent = %s, want root %s", d.Parent, root.Ctx().Span)
		}
	}

	// The surviving worker saw the retry span's context on the wire.
	survivor := findWorker(workers, survivorID)
	hdr, _ := survivor.lastTraceparent.Load().(string)
	pc, ok := span.ParseTraceparent(hdr)
	if !ok {
		t.Fatalf("survivor saw traceparent %q", hdr)
	}
	if pc.Trace != root.Ctx().Trace {
		t.Fatalf("propagated trace %s != root trace %s", pc.Trace, root.Ctx().Trace)
	}
	if pc.Span != (span.Context{Trace: second.Trace, Span: second.ID}).Span {
		t.Fatalf("propagated span %s != retry span %s", pc.Span, second.ID)
	}
	if !strings.Contains(second.Trace.String(), root.Ctx().Trace.String()) {
		t.Fatalf("retry span trace %s != root trace %s", second.Trace, root.Ctx().Trace)
	}
}

// TestDispatchDisabledSpansNoHeader: with no recorder wired, no
// traceparent header leaks to workers.
func TestDispatchDisabledSpansNoHeader(t *testing.T) {
	c, workers := testFleet(t, 1)
	body, _ := json.Marshal(map[string]any{"app": "crc32", "seed": 1})
	if _, _, _, err := c.Execute(context.Background(), "somekey", body); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	hdr, _ := workers[0].lastTraceparent.Load().(string)
	if hdr != "" {
		t.Fatalf("disabled tracing still sent traceparent %q", hdr)
	}
}
