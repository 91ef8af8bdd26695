package main

import (
	"math"
	"slices"
	"testing"
)

// reducedReplayDigest is the digest of two passes over every replay kernel
// and scheme at scale 0.05 on RFHome seed 1, in the default seed's order.
// A change that only speeds up the simulator must leave it unchanged.
const reducedReplayDigest = "b18150e68e46baf1afd108de76ee731b0481c7d8b3f3ca6b11ded52dd15a00ff"

func TestReducedReplayDigest(t *testing.T) {
	const scale = 0.05
	chk, err := newReplayChecker(replayApps, scale)
	if err != nil {
		t.Fatal(err)
	}
	cells := cellsFor(replayApps, []uint64{1}, scale)
	st, _ := replayLoop(cells, 1, chk, phase{stop: count(2 * len(cells))})
	if st.failed != 0 {
		t.Fatalf("%d of %d runs failed their output checks; first: %v", st.failed, st.attempted, st.firstErr)
	}
	if got := chk.digest(); got != reducedReplayDigest {
		t.Errorf("reduced replay digest = %s, want %s", got, reducedReplayDigest)
	}
}

func TestBestTimings(t *testing.T) {
	// Cell 0 ran twice, in 4 ms and then 2 ms; cell 1 once, in 6 ms.
	got, err := bestTimings(2, []int{0, 1, 0}, []float64{4, 6, 2})
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(got.lat, []float64{2, 6}) {
		t.Errorf("best latencies = %v, want [2 6]", got.lat)
	}
	if want := 2 / 0.008; math.Abs(got.opsPerS-want) > 1e-9 {
		t.Errorf("ops/s = %g, want %g (2 cells in 8 ms)", got.opsPerS, want)
	}
	if _, err := bestTimings(3, []int{0, 1, 0}, []float64{4, 6, 2}); err == nil {
		t.Error("a cell that never ran gave no error")
	}
}
