package workload

import (
	"fmt"
	"math"
	"sync"
)

// MaxScale bounds the scale of a cached recording. A kernel's recording
// grows linearly with its scale (crc32 at 1 records 800k events, keeps
// them in 3.1 MB and allocates 19 MB while recording), and Cached keeps
// every recorded scale for the life of the process.
const MaxScale = 4

// CheckScale rejects a scale Cached will not record: NaN, infinite,
// negative or above MaxScale. 0 is valid and means 1.
func CheckScale(scale float64) error {
	if math.IsNaN(scale) || math.IsInf(scale, 0) || scale < 0 {
		return fmt.Errorf("workload: scale must be a finite non-negative factor, got %g", scale)
	}
	if scale > MaxScale {
		return fmt.Errorf("workload: scale must be at most %g (1 is the evaluation size), got %g", float64(MaxScale), scale)
	}
	return nil
}

// traceKey identifies one recorded kernel: the application plus the input
// scale. Scale is normalized the same way App.Record normalizes it, so
// Cached("crc32", 0) and Cached("crc32", 1) share an entry.
type traceKey struct {
	name  string
	scale float64
}

// traceEntry records its kernel exactly once, even under concurrent first
// lookups from parallel experiment workers.
type traceEntry struct {
	once sync.Once
	tr   *Trace
}

var traceCache sync.Map // traceKey -> *traceEntry

// Cached returns the recorded trace for (name, scale), executing the
// kernel at most once per process. A Trace is immutable after recording
// (the simulator only reads it), so the shared pointer is safe to use from
// any number of concurrent runs. Recording is the expensive part — the
// kernel actually executes and journals every memory access — and an
// experiment grid replays the same (app, scale) across schemes × seeds ×
// workers, so sharing it pays the cost exactly once. An unknown name or a
// scale CheckScale rejects is an error and leaves no entry behind.
func Cached(name string, scale float64) (*Trace, error) {
	app, err := ByName(name)
	if err != nil {
		return nil, err
	}
	if err := CheckScale(scale); err != nil {
		return nil, err
	}
	if scale == 0 {
		scale = 1
	}
	v, _ := traceCache.LoadOrStore(traceKey{name: name, scale: scale}, &traceEntry{})
	e := v.(*traceEntry)
	e.once.Do(func() { e.tr = app.Record(scale) })
	return e.tr, nil
}
