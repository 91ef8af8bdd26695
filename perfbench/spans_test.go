package main

import (
	"testing"
	"time"

	"edbp/internal/span"
)

// rec builds a span starting at offset ms after a fixed instant.
func rec(id, parent byte, name string, offset, dur int) span.Record {
	base := time.Date(2025, 1, 1, 0, 0, 0, 0, time.UTC)
	r := span.Record{
		Name:  name,
		Start: base.Add(time.Duration(offset) * time.Millisecond),
		Dur:   time.Duration(dur) * time.Millisecond,
	}
	r.Trace[0], r.ID[0], r.Parent[0] = 1, id, parent
	return r
}

// TestSelfTimeOverlappingChildren: children that overlap each other, and
// one that runs past its parent's end, are counted once and only inside
// the parent; a grandchild covers nothing beyond its own parent.
func TestSelfTimeOverlappingChildren(t *testing.T) {
	set := newSpanSet([]span.Record{
		rec(1, 0, "grid", 0, 100),
		rec(2, 1, "dispatch", 10, 30),  // [10,40)
		rec(3, 1, "dispatch", 30, 30),  // [30,60), overlaps the first
		rec(4, 1, "dispatch", 80, 40),  // [80,120), clipped to [80,100)
		rec(5, 2, "queue-wait", 15, 5), // under a child: not a child of grid
		rec(6, 3, "run", 35, 20),
	})
	root := set.named("grid")[0]
	children := set.childrenOf(root)
	if len(children) != 3 {
		t.Fatalf("grid has %d children, want 3", len(children))
	}
	if got, want := covered(root, children), 70*time.Millisecond; got != want {
		t.Errorf("covered = %v, want %v (union [10,60) ∪ [80,100))", got, want)
	}
	if got, want := selfTime(root, children), 30*time.Millisecond; got != want {
		t.Errorf("selfTime = %v, want %v", got, want)
	}
	if got := selfTime(rec(7, 0, "leaf", 0, 9), nil); got != 9*time.Millisecond {
		t.Errorf("a span without children is all self time, got %v", got)
	}

	d := set.named("dispatch")[1]
	under := set.descendants(root, "queue-wait", "run")
	if len(under) != 2 {
		t.Fatalf("found %d queue-wait/run descendants of grid, want 2", len(under))
	}
	if got, want := d.Dur-covered(d, set.descendants(d, "queue-wait", "run")), 10*time.Millisecond; got != want {
		t.Errorf("hop of the second dispatch = %v, want %v", got, want)
	}
}
