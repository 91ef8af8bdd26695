package energy

import "sync"

// traceCacheKey identifies one generated trace: the environment plus the
// generator seed.
type traceCacheKey struct {
	kind TraceKind
	seed uint64
}

var traceCache sync.Map // traceCacheKey -> *Trace

// CachedTrace returns the trace for (kind, seed), one per process. A Trace
// generates its samples on demand, chunk by chunk, each at most once, and
// its reads are safe from any number of concurrent simulation runs, so
// sharing it means the schemes × seeds × workers of an experiment grid
// generate only the part of the period their runs reach, once.
func CachedTrace(kind TraceKind, seed uint64) *Trace {
	key := traceCacheKey{kind: kind, seed: seed}
	if v, ok := traceCache.Load(key); ok {
		return v.(*Trace)
	}
	v, _ := traceCache.LoadOrStore(key, NewTrace(kind, seed))
	return v.(*Trace)
}
