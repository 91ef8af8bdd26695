package trace

import (
	"math"
	"runtime"
	"sync/atomic"

	"edbp/internal/metrics"
)

// Recorder accumulates the event, sample and per-cycle streams of one
// simulation run. It implements the observation hooks of the instrumented
// packages (energy.MonitorSink, core.Sink, predictor.Sink, and the cache
// gate/wrong-kill callbacks); the simulator keeps its clock current via
// SetNow so hook emissions — which carry no timestamp of their own — land
// at the right simulated time.
//
// A Recorder observes exactly one run at a time: sim.Run resets it
// (StartRun) when the engine attaches, so the same Recorder can be reused
// across sequential runs (the benchmark harness does). It is not safe for
// concurrent use.
type Recorder struct {
	opt Options
	now float64

	events  []Event // ring, grown by doubling up to opt.EventCap
	eHead   int     // next write slot; at len(events) the ring grows or wraps first
	eCount  int     // retained (≤ len(events))
	emitted uint64
	dropped uint64
	byKind  [kindCount]uint64

	samples    []Sample // ring, grown by doubling up to opt.SampleCap
	sHead      int
	sCount     int
	sTaken     uint64
	sDropped   uint64
	nextSample float64

	cycles     []CycleStats
	rest       *CycleStats
	cur        CycleStats
	open       bool
	cycleIdx   int32
	lastCounts metrics.Counts

	live liveGauge
}

// liveGauge publishes the most recent gauge sample through atomics so a
// *different* goroutine (the sampler behind edbpd's POST /run?stream=1)
// can watch an in-flight run. It is a seqlock built entirely from atomic operations:
// seq is odd while a publish is in flight, and readers retry until they
// observe the same even seq on both sides of the field copy, so a torn
// sample is never returned and the race detector stays quiet. Publishing
// is allocation-free (a handful of atomic stores), preserving the
// recorder's zero-alloc steady state.
type liveGauge struct {
	seq atomic.Uint64 // odd = publish in flight; published count = seq/2

	timeBits   atomic.Uint64 // Float64bits
	voltBits   atomic.Uint64
	storedBits atomic.Uint64
	fprBits    atomic.Uint64
	zombieBits atomic.Uint64
	liveGated  atomic.Uint64 // uint32(Live)<<32 | uint32(Gated)
	dirtyLevel atomic.Uint64 // uint32(Dirty)<<32 | uint32(Level)
	cycle      atomic.Int64
}

func (l *liveGauge) publish(s *Sample) {
	l.seq.Add(1)
	l.timeBits.Store(math.Float64bits(s.Time))
	l.voltBits.Store(math.Float64bits(s.Voltage))
	l.storedBits.Store(math.Float64bits(s.Stored))
	l.fprBits.Store(math.Float64bits(s.FPR))
	l.zombieBits.Store(math.Float64bits(s.ZombieRatio))
	l.liveGated.Store(uint64(uint32(s.Live))<<32 | uint64(uint32(s.Gated)))
	l.dirtyLevel.Store(uint64(uint32(s.Dirty))<<32 | uint64(uint32(s.Level)))
	l.cycle.Store(int64(s.Cycle))
	l.seq.Add(1)
}

func (l *liveGauge) read() (Sample, uint64) {
	for {
		v1 := l.seq.Load()
		if v1 == 0 {
			return Sample{}, 0
		}
		if v1&1 == 1 {
			runtime.Gosched()
			continue
		}
		var s Sample
		s.Time = math.Float64frombits(l.timeBits.Load())
		s.Voltage = math.Float64frombits(l.voltBits.Load())
		s.Stored = math.Float64frombits(l.storedBits.Load())
		s.FPR = math.Float64frombits(l.fprBits.Load())
		s.ZombieRatio = math.Float64frombits(l.zombieBits.Load())
		lg := l.liveGated.Load()
		s.Live, s.Gated = int32(uint32(lg>>32)), int32(uint32(lg))
		dl := l.dirtyLevel.Load()
		s.Dirty, s.Level = int32(uint32(dl>>32)), int32(uint32(dl))
		s.Cycle = int32(l.cycle.Load())
		if l.seq.Load() == v1 {
			return s, v1 / 2
		}
		runtime.Gosched()
	}
}

// NewRecorder builds a recorder. Both rings start empty and double as a
// run fills them, up to Options.EventCap and Options.SampleCap, so a run
// allocates about what it emits; a ring at its cap overwrites its oldest
// entry and records without allocating. StartRun keeps the grown rings.
func NewRecorder(opt Options) *Recorder {
	return &Recorder{opt: opt.normalized()}
}

// minRing is the first size of a grown ring.
const minRing = 16

// growRing returns ring doubled (at least minRing long, at most limit),
// holding ring's entries at the same indices. The rings grow only while
// they have never wrapped, so their entries are in order from index 0.
func growRing[T any](ring []T, limit int) []T {
	grown := make([]T, min(max(2*len(ring), minRing), limit))
	copy(grown, ring)
	return grown
}

// Options returns the normalized options in force.
func (r *Recorder) Options() Options { return r.opt }

// StartRun resets the recorder and opens power cycle 0 at t=0. The engine
// calls it once when it attaches the recorder to a run.
func (r *Recorder) StartRun() {
	r.now = 0
	r.eHead, r.eCount = 0, 0
	r.emitted, r.dropped = 0, 0
	r.byKind = [kindCount]uint64{}
	r.sHead, r.sCount = 0, 0
	r.sTaken, r.sDropped = 0, 0
	r.nextSample = 0
	// A fresh slice (not a truncation) so Summaries handed out by earlier
	// runs keep their cycle data.
	r.cycles = nil
	r.rest = nil
	r.cycleIdx = 0
	r.cur = CycleStats{}
	r.open = true
	r.lastCounts = metrics.Counts{}
	// Invalidate the live gauge (seq 0 = nothing published); the gauge
	// words themselves can stay stale because readers gate on seq.
	r.live.seq.Store(0)
	r.emit(KindCycleStart, 0, 0, 0)
}

// SetNow updates the recorder's simulated clock; subsequent emissions are
// stamped with it.
func (r *Recorder) SetNow(t float64) { r.now = t }

// emit appends one event to the ring, overwriting the oldest when full.
func (r *Recorder) emit(k Kind, a, b int32, v float64) {
	r.byKind[k]++
	r.emitted++
	if r.eHead == len(r.events) {
		if len(r.events) < r.opt.EventCap {
			r.events = growRing(r.events, r.opt.EventCap)
		} else {
			r.eHead = 0
		}
	}
	ev := &r.events[r.eHead]
	ev.Time = r.now
	ev.V = v
	ev.Cycle = r.cycleIdx
	ev.A, ev.B = a, b
	ev.Kind = k
	r.eHead++
	if r.eCount < len(r.events) {
		r.eCount++
	} else {
		r.dropped++
	}
}

// SampleDue reports whether the gauge cadence has elapsed; the engine
// checks it before gathering gauges (which cost a cache scan).
func (r *Recorder) SampleDue(t float64) bool { return t >= r.nextSample }

// AddSample records one gauge observation and schedules the next.
func (r *Recorder) AddSample(s Sample) {
	s.Cycle = r.cycleIdx
	r.nextSample = s.Time + r.opt.SampleEvery
	r.sTaken++
	if r.sHead == len(r.samples) {
		if len(r.samples) < r.opt.SampleCap {
			r.samples = growRing(r.samples, r.opt.SampleCap)
		} else {
			r.sHead = 0
		}
	}
	r.samples[r.sHead] = s
	r.sHead++
	if r.sCount < len(r.samples) {
		r.sCount++
	} else {
		r.sDropped++
	}
	r.live.publish(&s)
}

// LatestSample returns the most recently recorded gauge sample and the
// count of samples published so far (0 means none yet: the returned
// Sample is then the zero value). Unlike every other Recorder method it
// is safe to call concurrently with the recording goroutine — edbpd's
// run stream (POST /run?stream=1) polls it against an in-flight run. A StartRun
// resets the count to zero.
func (r *Recorder) LatestSample() (Sample, uint64) {
	return r.live.read()
}

// ------------------------------------------------- subsystem hook sinks --

// MonitorEdge implements energy.MonitorSink: the voltage comparator
// crossed a threshold.
func (r *Recorder) MonitorEdge(checkpoint bool, v float64) {
	if checkpoint {
		r.emit(KindJITTrigger, 0, 0, v)
	} else {
		r.emit(KindPowerGood, 0, 0, v)
	}
}

// GatingLevel implements core.Sink: EDBP's aggressiveness level changed.
func (r *Recorder) GatingLevel(old, level int, v float64) {
	if level > r.cur.MaxLevel {
		r.cur.MaxLevel = level
	}
	r.emit(KindGateLevel, int32(old), int32(level), v)
}

// ThresholdAdapt implements core.Sink: EDBP adapted its ladder at reboot.
func (r *Recorder) ThresholdAdapt(stepDown bool, fpr float64) {
	if stepDown {
		r.cur.StepsDown++
		r.emit(KindThresholdStep, 0, 0, fpr)
	} else {
		r.cur.Resets++
		r.emit(KindThresholdReset, 0, 0, fpr)
	}
}

// PredictorSweep implements predictor.Sink: one global decay/AMC sweep.
func (r *Recorder) PredictorSweep(gated int, intervalCycles uint64) {
	r.cur.Sweeps++
	iv := int32(math.MaxInt32)
	if intervalCycles < math.MaxInt32 {
		iv = int32(intervalCycles)
	}
	r.emit(KindSweep, int32(gated), iv, 0)
}

// BlockGated is the cache gate hook: a predictor powered (set, way) off.
func (r *Recorder) BlockGated(set, way int, wasDirty bool) {
	r.cur.BlocksGated++
	v := 0.0
	if wasDirty {
		v = 1
	}
	r.emit(KindBlockGated, int32(set), int32(way), v)
}

// WrongKill is the cache wrong-kill hook: a demand miss matched a gated
// tag at (set, way).
func (r *Recorder) WrongKill(set, way int) {
	r.cur.WrongKills++
	r.emit(KindWrongKill, int32(set), int32(way), 0)
}

// ---------------------------------------------------- engine lifecycle --

// Checkpoint records the JIT checkpoint written (blocks saved to the NV
// twin cells) in the closing cycle.
func (r *Recorder) Checkpoint(blocks int) {
	r.cur.Checkpoints++
	r.cur.CheckpointBlocks += blocks
	r.emit(KindCheckpoint, int32(blocks), 0, 0)
}

// EndCycle closes the current power cycle at an outage. counts is the
// run's cumulative classification tally after the outage's generation
// teardown; the recorder stores the delta since the previous boundary.
func (r *Recorder) EndCycle(counts metrics.Counts) {
	r.emit(KindOutage, 0, 0, 0)
	r.closeCycle(counts)
}

// StartCycle opens the next power cycle (restoration about to complete).
func (r *Recorder) StartCycle() {
	r.cycleIdx++
	r.cur = CycleStats{Index: int(r.cycleIdx), Start: r.now}
	r.open = true
	r.emit(KindCycleStart, 0, 0, 0)
}

// Restore records the restoration cost paid at the start of the (already
// opened) new cycle; blocks is the number restored from the checkpoint.
func (r *Recorder) Restore(blocks int) {
	r.cur.RestoredBlocks += blocks
	r.emit(KindRestore, int32(blocks), 0, 0)
}

// FinishRun closes the final (partial) cycle, if one is open, with the
// run's final cumulative counts. When the run ends between cycles — a
// truncation horizon or cancellation hit during hibernation — the cycle
// already closed at the outage, but the engine's teardown flush still
// resolves the blocks left open at that outage; that residual is folded
// into the last closed cycle so per-cycle sums stay exact.
func (r *Recorder) FinishRun(counts metrics.Counts) {
	if r.open {
		r.closeCycle(counts)
		return
	}
	delta := metrics.Counts{
		TP:       counts.TP - r.lastCounts.TP,
		FP:       counts.FP - r.lastCounts.FP,
		TN:       counts.TN - r.lastCounts.TN,
		FN:       counts.FN - r.lastCounts.FN,
		ZombieFN: counts.ZombieFN - r.lastCounts.ZombieFN,
	}
	if delta == (metrics.Counts{}) {
		return
	}
	r.lastCounts = counts
	var last *CycleStats
	switch {
	case r.rest != nil:
		last = r.rest // the overflow bucket holds the newest closed cycle
	case len(r.cycles) > 0:
		last = &r.cycles[len(r.cycles)-1]
	default:
		return // nothing recorded at all; drop rather than invent a cycle
	}
	last.Counts.TP += delta.TP
	last.Counts.FP += delta.FP
	last.Counts.TN += delta.TN
	last.Counts.FN += delta.FN
	last.Counts.ZombieFN += delta.ZombieFN
}

func (r *Recorder) closeCycle(counts metrics.Counts) {
	r.cur.End = r.now
	r.cur.Counts = metrics.Counts{
		TP:       counts.TP - r.lastCounts.TP,
		FP:       counts.FP - r.lastCounts.FP,
		TN:       counts.TN - r.lastCounts.TN,
		FN:       counts.FN - r.lastCounts.FN,
		ZombieFN: counts.ZombieFN - r.lastCounts.ZombieFN,
	}
	r.lastCounts = counts
	r.open = false
	if len(r.cycles) < r.opt.MaxCycles {
		r.cycles = append(r.cycles, r.cur)
		return
	}
	// Beyond the cap: fold into the overflow bucket, keeping sums exact.
	if r.rest == nil {
		r.rest = &CycleStats{Index: -1, Start: r.cur.Start}
	}
	foldCycle(r.rest, &r.cur)
}

func foldCycle(dst, src *CycleStats) {
	dst.End = src.End
	dst.Checkpoints += src.Checkpoints
	dst.CheckpointBlocks += src.CheckpointBlocks
	dst.RestoredBlocks += src.RestoredBlocks
	dst.BlocksGated += src.BlocksGated
	dst.WrongKills += src.WrongKills
	dst.Sweeps += src.Sweeps
	if src.MaxLevel > dst.MaxLevel {
		dst.MaxLevel = src.MaxLevel
	}
	dst.StepsDown += src.StepsDown
	dst.Resets += src.Resets
	dst.Counts.TP += src.Counts.TP
	dst.Counts.FP += src.Counts.FP
	dst.Counts.TN += src.Counts.TN
	dst.Counts.FN += src.Counts.FN
	dst.Counts.ZombieFN += src.Counts.ZombieFN
}

// ------------------------------------------------------------- readout --

// Summary condenses the recorded run. The returned Cycles slice is the
// recorder's own (a subsequent StartRun leaves it intact).
func (r *Recorder) Summary() *Summary {
	s := &Summary{
		Label:          r.opt.Label,
		Events:         r.emitted,
		Dropped:        r.dropped,
		Samples:        r.sTaken,
		SamplesDropped: r.sDropped,
		ByKind:         append([]uint64(nil), r.byKind[:]...),
		Cycles:         r.cycles,
	}
	if r.rest != nil {
		rc := *r.rest
		s.Rest = &rc
	}
	return s
}

// Events invokes fn for each retained event, oldest first.
func (r *Recorder) Events(fn func(*Event)) {
	start := r.eHead - r.eCount
	if start < 0 {
		start += len(r.events)
	}
	for i := 0; i < r.eCount; i++ {
		fn(&r.events[(start+i)%len(r.events)])
	}
}

// Samples invokes fn for each retained sample, oldest first.
func (r *Recorder) Samples(fn func(*Sample)) {
	start := r.sHead - r.sCount
	if start < 0 {
		start += len(r.samples)
	}
	for i := 0; i < r.sCount; i++ {
		fn(&r.samples[(start+i)%len(r.samples)])
	}
}
