package workload

import (
	"math"
	"sync"
	"testing"
)

// TestCachedSharesTrace checks that repeated lookups — including the
// scale normalization Record applies — return the same recorded trace.
func TestCachedSharesTrace(t *testing.T) {
	a, err := Cached("crc32", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Cached("crc32", 0.25)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("same (name, scale) recorded twice")
	}
	// Scale 0 normalizes to 1, matching App.Record.
	z, err := Cached("crc32", 0)
	if err != nil {
		t.Fatal(err)
	}
	one, err := Cached("crc32", 1)
	if err != nil {
		t.Fatal(err)
	}
	if z != one {
		t.Error("Cached(crc32, 0) and Cached(crc32, 1) should share the normalized entry")
	}
	if z == a {
		t.Error("different scales must not share a trace")
	}
}

// TestCachedConcurrent hammers one cold key from many goroutines; the
// kernel must record exactly once and everyone must get that recording.
func TestCachedConcurrent(t *testing.T) {
	const workers = 16
	var wg sync.WaitGroup
	got := make([]*Trace, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			tr, err := Cached("fft", 0.125)
			if err != nil {
				t.Error(err)
				return
			}
			got[w] = tr
		}(w)
	}
	wg.Wait()
	for w := 1; w < workers; w++ {
		if got[w] != got[0] {
			t.Fatalf("worker %d got a different trace pointer", w)
		}
	}
}

// TestCachedUnknownApp propagates ByName's error, stably on re-lookup,
// and keeps no entry for the unknown name.
func TestCachedUnknownApp(t *testing.T) {
	if _, err := Cached("no-such-kernel", 1); err == nil {
		t.Fatal("expected an error for an unknown app")
	}
	if _, err := Cached("no-such-kernel", 1); err == nil {
		t.Fatal("expected the error on the second lookup too")
	}
	if _, kept := traceCache.Load(traceKey{name: "no-such-kernel", scale: 1}); kept {
		t.Error("an unknown app left an entry in the trace cache")
	}
}

// TestCachedRejectsScale: a NaN, infinite, negative or over-bound scale is
// an error, asked once or twice, and records nothing: the cache gains no
// entry. The bound itself and 0 (meaning 1) pass the check.
func TestCachedRejectsScale(t *testing.T) {
	entries := func() (n int) {
		traceCache.Range(func(any, any) bool { n++; return true })
		return n
	}
	before := entries()
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1, -1e-9, math.Nextafter(MaxScale, 5), 5, 256} {
		for try := 0; try < 2; try++ {
			if tr, err := Cached("crc32", scale); err == nil {
				t.Errorf("Cached(crc32, %g) recorded %d events, want an error", scale, len(tr.Events))
			}
		}
	}
	if n := entries() - before; n != 0 {
		t.Errorf("rejected scales left %d trace cache entries", n)
	}
	for _, scale := range []float64{0, 1e-9, MaxScale} {
		if err := CheckScale(scale); err != nil {
			t.Errorf("CheckScale(%g) = %v, want nil", scale, err)
		}
	}
}
