package workload

import (
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
	// scale <= 0 normalizes to 1, matching App.Record.
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
