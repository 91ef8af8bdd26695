package energy

import (
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"
)

// TestCursorMatchesPower drives a fresh cursor across several trace
// periods with awkward step sizes and checks every lookup against
// Trace.Power — including the very first query, which a stale window base
// would serve one sample off.
func TestCursorMatchesPower(t *testing.T) {
	tr := NewTrace(RFHome, 1)
	c := tr.Cursor()
	// Prime numbers of microseconds avoid stepping in lockstep with the
	// 100 µs sample grid.
	for _, step := range []float64{37e-6, 131e-6, 9973e-6} {
		c := tr.Cursor()
		for at := 0.0; at < 3*tracePeriod; at += step {
			if got, want := c.Power(at), tr.Power(at); got != want {
				t.Fatalf("step %g: Cursor.Power(%g) = %g, Trace.Power = %g", step, at, got, want)
			}
		}
	}
	// First query on a fresh cursor, inside the first period.
	if got, want := c.Power(42e-4), tr.Power(42e-4); got != want {
		t.Fatalf("fresh cursor: Power(42e-4) = %g, want %g", got, want)
	}
}

// TestCursorPeriodWrap checks lookups straddling period boundaries in both
// directions (the engine occasionally re-queries a slightly earlier time).
func TestCursorPeriodWrap(t *testing.T) {
	tr := NewTrace(RFOffice, 7)
	c := tr.Cursor()
	times := []float64{
		0,
		tracePeriod - TraceResolution,
		tracePeriod - TraceResolution/2,
		tracePeriod,
		tracePeriod + TraceResolution/2,
		2 * tracePeriod,
		2*tracePeriod + 3.21e-3,
		tracePeriod + 1e-3, // backwards across a period boundary
		5 * tracePeriod,
		1e-3, // far backwards, into the first period
	}
	for _, at := range times {
		if got, want := c.Power(at), tr.Power(at); got != want {
			t.Fatalf("Cursor.Power(%g) = %g, Trace.Power = %g", at, got, want)
		}
	}
}

// TestCursorDegenerateInputs pins the NaN/negative clamping and the huge-
// time float fallback to Trace.Power's behaviour.
func TestCursorDegenerateInputs(t *testing.T) {
	tr := NewTrace(Thermal, 3)
	c := tr.Cursor()
	for _, at := range []float64{math.NaN(), -1, -1e300, 0} {
		if got, want := c.Power(at), tr.Power(at); got != want {
			t.Fatalf("Cursor.Power(%v) = %g, Trace.Power = %g", at, got, want)
		}
		if got, want := c.Power(at), tr.chunk(0)[0]; got != want {
			t.Fatalf("Cursor.Power(%v) = %g, want sample 0 = %g", at, got, want)
		}
	}
	for _, at := range []float64{1e12 + 1, 5e14, 1e18} {
		if got, want := c.Power(at), tr.Power(at); got != want {
			t.Fatalf("Cursor.Power(%g) = %g, Trace.Power = %g", at, got, want)
		}
	}
	// A huge-time query must not corrupt the window for later normal ones.
	if got, want := c.Power(1.5e-3), tr.Power(1.5e-3); got != want {
		t.Fatalf("after fallback: Cursor.Power(1.5e-3) = %g, want %g", got, want)
	}
}

// TestEnergyThresholdBoundary checks that EnergyThreshold is the exact
// voltage-comparison boundary: one ulp of stored energy below it the
// voltage compares < v, at it the voltage compares >= v.
func TestEnergyThresholdBoundary(t *testing.T) {
	cap, err := NewCapacitor(DefaultCapacitor())
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []float64{2.8, 3.2, 3.4, 3.4999999, 3.5} {
		e := cap.EnergyThreshold(v)
		cap.e = e
		if got := cap.Voltage(); got < v {
			t.Errorf("at threshold for %g: Voltage() = %.17g compares below", v, got)
		}
		if down := math.Nextafter(e, 0); down > 0 {
			cap.e = down
			if got := cap.Voltage(); got >= v {
				t.Errorf("one ulp below threshold for %g: Voltage() = %.17g still compares >=", v, got)
			}
		}
	}
}

// TestTraceColdConcurrentReads starts eight readers on one cold trace at
// once, so their first reads race to generate and publish chunks. One
// reads in a shuffled order, one backwards from the end of the period, one
// in later periods; each reads through Trace.Power and through its own
// Cursor, and must see exactly what a sequential read of an identical
// trace returns. Run with -race for the publication check.
func TestTraceColdConcurrentReads(t *testing.T) {
	ref := NewTrace(Solar, 99)
	n := traceSamples
	want := make([]float64, n)
	for i := range want {
		want[i] = ref.Power((float64(i) + 0.5) * TraceResolution)
	}

	cold := NewTrace(Solar, 99)
	const readers = 8
	start := make(chan struct{})
	var wg sync.WaitGroup
	for g := 0; g < readers; g++ {
		// Every 7th sample, offset per reader: about 14k reads each.
		var idx []int
		for i := g; i < n; i += 7 {
			idx = append(idx, i)
		}
		periods := 0
		switch g % 3 {
		case 0:
			rand.New(rand.NewSource(int64(g))).Shuffle(len(idx), func(a, b int) { idx[a], idx[b] = idx[b], idx[a] })
		case 1:
			slices.Reverse(idx)
		case 2:
			periods = 1 + g
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cold.Cursor()
			<-start
			for _, i := range idx {
				at := (float64(i+periods*n) + 0.5) * TraceResolution
				if got := cold.Power(at); got != want[i] {
					t.Errorf("reader %d: Power(%g) = %g, want %g", g, at, got, want[i])
					return
				}
				if got := c.Power(at); got != want[i] {
					t.Errorf("reader %d: Cursor.Power(%g) = %g, want %g", g, at, got, want[i])
					return
				}
			}
		}()
	}
	close(start)
	wg.Wait()
}
