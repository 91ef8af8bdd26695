package predictor

import (
	"cmp"
	"math"
	"slices"

	"edbp/internal/cache"
	"edbp/internal/metrics"
)

// The Ideal predictor is the paper's theoretical bound (Figure 8,
// "Ideal"): perfect knowledge of which blocks are dead or zombie lets it
// power every block off immediately after its final access, adding zero
// extra misses.
//
// It is realised as a two-pass oracle. Pass 1 runs the baseline
// (no-predictor) simulation with the engine's own metrics.Tracker
// recording, for every block generation it closes, the trace-event index
// of the block's last access (metrics.Tracker.LastUses). Pass 2 replays
// the identical trace with an Ideal predictor built from those records,
// which gates each block right after that event.
//
// Approximation (documented in EXPERIMENTS.md): the oracle schedule is
// derived from baseline timing, so power-outage boundaries in pass 2 can
// shift slightly relative to pass 1; since ideal gating changes no demand
// accesses, the shift is second-order (it only moves which instant the
// leakage savings begin).

// Ideal replays an oracle schedule. The simulator holds it directly: it
// compares each trace event's index against Next and calls GateThrough
// once an event reaches it, so the predictor's Tick, OnVoltage and
// AfterAccess are no-ops the engine skips.
type Ideal struct {
	env Env
	// schedule is one metrics.LastUse per recorded generation, stably
	// sorted by Event; schedule[next:] has not been gated yet.
	schedule []metrics.LastUse
	next     int
}

// NewIdeal builds the replay predictor from the recording pass's closed
// generations, given in closing order. It sorts schedule in place, stably
// by Event, so blocks whose last use was the same event are gated in the
// order their generations closed.
func NewIdeal(schedule []metrics.LastUse) *Ideal {
	slices.SortStableFunc(schedule, func(a, b metrics.LastUse) int { return cmp.Compare(a.Event, b.Event) })
	return &Ideal{schedule: schedule}
}

// Next returns the trace event of the next scheduled gate, or
// math.MaxUint64 when none remains. It is safe on a nil *Ideal, which has
// nothing scheduled.
func (p *Ideal) Next() uint64 {
	if p == nil || p.next == len(p.schedule) {
		return math.MaxUint64
	}
	return p.schedule[p.next].Event
}

// GateThrough gates every scheduled block whose last use was at or before
// trace event index and is still resident, dirty ones included, moves the
// cursor past them, and returns Next. The simulator calls it after event
// index completed.
func (p *Ideal) GateThrough(index uint64) uint64 {
	for p.next < len(p.schedule) && p.schedule[p.next].Event <= index {
		o := &p.schedule[p.next]
		p.next++
		way, _ := p.env.Cache.Lookup(o.Addr)
		if way < 0 {
			continue // pass-2 divergence: block not resident; skip
		}
		set, _ := p.env.Cache.Index(o.Addr)
		p.env.GateBlock(set, way)
	}
	return p.Next()
}

// Name implements Predictor.
func (p *Ideal) Name() string { return "ideal" }

// Attach implements Predictor.
func (p *Ideal) Attach(env Env) { p.env = env }

// AfterAccess implements Predictor.
func (p *Ideal) AfterAccess(cache.AccessResult) {}

// Tick implements Predictor.
func (p *Ideal) Tick(uint64) {}

// TickFree marks Tick as a structural no-op (Ideal is event-driven).
func (p *Ideal) TickFree() {}

// OnVoltage implements Predictor.
func (p *Ideal) OnVoltage(float64) {}

// VoltageFree marks OnVoltage as a structural no-op.
func (p *Ideal) VoltageFree() {}

// OnCheckpoint implements Predictor.
func (p *Ideal) OnCheckpoint() {}

// OnReboot implements Predictor.
func (p *Ideal) OnReboot() {}
