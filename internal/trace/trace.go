// Package trace is the simulator's observability layer: a typed,
// ring-buffered event recorder plus a periodic gauge sampler that together
// make the power-failure timeline — the thing the paper's claims are about
// — inspectable for any run, after it ends.
//
// The paper's dynamics are temporal: zombie ratios spike as the capacitor
// decays toward Vckpt (Figure 4), EDBP's FPR-driven adaptation reacts
// across power cycles, and outage timing decides which blocks die as
// zombies. End-of-run aggregates cannot show any of that. The Recorder
// captures it as three streams:
//
//   - Events: discrete occurrences (power-cycle boundaries, JIT trigger,
//     checkpoint, outage, restore, EDBP gating-level changes, per-block
//     gating, wrong kills, threshold adaptation, predictor sweeps), kept
//     in a bounded ring — high-frequency runs retain the most recent window
//     and count what they dropped.
//   - Samples: periodic time-series gauges (capacitor voltage and stored
//     energy, live/gated/dirty block counts, EDBP level, rolling FPR,
//     cumulative zombie ratio), also ring-buffered.
//   - Cycles: one CycleStats per power cycle with counter *deltas* whose
//     per-field sums reproduce the run's aggregate Result/metrics.Counts
//     exactly (tested in internal/sim).
//
// The subsystems under observation (internal/sim, internal/energy,
// internal/cache, internal/core, internal/predictor) each expose a tiny
// nil-checked hook that the Recorder implements; with no recorder attached
// every instrumentation site reduces to one predictable untaken branch and
// zero allocations (internal/sim's alloc test pins this). When enabled,
// both rings start empty and double as the run fills them, up to their
// caps, so a short run allocates only what it records; a recorder whose
// rings have reached their caps records without allocating.
//
// Export formats: a line-delimited JSON stream (WriteJSONL / ReadJSONL,
// consumed by cmd/tracereport) and the Chrome trace_event format
// (WriteChromeTrace, loadable in Perfetto / chrome://tracing).
package trace

import (
	"fmt"

	"edbp/internal/metrics"
)

// Kind discriminates recorded events.
type Kind uint8

const (
	// KindCycleStart marks execution (re)starting: cold boot or the
	// completion of a restore.
	KindCycleStart Kind = iota
	// KindJITTrigger is the voltage monitor's checkpoint edge: V dipped
	// below Vckpt. V holds the observed voltage.
	KindJITTrigger
	// KindCheckpoint marks the JIT checkpoint written; A holds the number
	// of blocks saved.
	KindCheckpoint
	// KindOutage marks the system powering off (checkpoint complete); it
	// ends the power cycle.
	KindOutage
	// KindPowerGood is the voltage monitor's restore edge: V recovered
	// above Vrst during hibernation. V holds the observed voltage.
	KindPowerGood
	// KindRestore marks the restoration cost paid and execution about to
	// resume; A holds the number of blocks restored.
	KindRestore
	// KindGateLevel is an EDBP aggressiveness-level change: A is the old
	// level, B the new, V the capacitor voltage (0 for the reboot reset).
	KindGateLevel
	// KindBlockGated is one cache block power-gated: A is the set, B the
	// way, V is 1 if the block was dirty (writeback queued), else 0.
	KindBlockGated
	// KindWrongKill is a demand miss on a gated block — a predictor false
	// positive; A is the set, B the way holding the gated tag.
	KindWrongKill
	// KindThresholdStep is an EDBP adaptation lowering the ladder
	// (measured FPR above the reference); V holds the FPR.
	KindThresholdStep
	// KindThresholdReset is an EDBP adaptation restoring the initial
	// ladder; V holds the FPR.
	KindThresholdReset
	// KindSweep is one conventional-predictor global sweep (Cache Decay /
	// AMC): A is the number of blocks gated, B the interval in force
	// (CPU cycles, saturated at MaxInt32).
	KindSweep

	kindCount // number of kinds; keep last
)

// KindCount is the number of distinct event kinds (ByKind slices have
// this length).
const KindCount = int(kindCount)

var kindNames = [kindCount]string{
	KindCycleStart:     "cycle-start",
	KindJITTrigger:     "jit-trigger",
	KindCheckpoint:     "checkpoint",
	KindOutage:         "outage",
	KindPowerGood:      "power-good",
	KindRestore:        "restore",
	KindGateLevel:      "gate-level",
	KindBlockGated:     "block-gated",
	KindWrongKill:      "wrong-kill",
	KindThresholdStep:  "threshold-step",
	KindThresholdReset: "threshold-reset",
	KindSweep:          "sweep",
}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// ParseKind maps a kind name (as emitted in JSONL) back to its Kind.
func ParseKind(s string) (Kind, bool) {
	for k, n := range kindNames {
		if n == s {
			return Kind(k), true
		}
	}
	return 0, false
}

// Event is one recorded occurrence. The meaning of A, B and V depends on
// Kind (see the Kind constants). The struct is 32 bytes so the ring stays
// compact.
type Event struct {
	Time  float64 // simulated seconds
	V     float64 // kind-specific value (voltage, FPR, dirty flag)
	Cycle int32   // power-cycle index the event belongs to
	A, B  int32   // kind-specific operands (set/way, old/new level, blocks)
	Kind  Kind
}

// Sample is one periodic gauge observation, taken while powered.
type Sample struct {
	Time    float64 // simulated seconds
	Voltage float64 // capacitor voltage (V)
	Stored  float64 // capacitor stored energy (J)
	FPR     float64 // EDBP rolling false positive rate (last computed)
	// ZombieRatio is the cumulative share of classified generations that
	// ended as zombies (ZombieFN / total) at sample time.
	ZombieRatio float64
	Live        int32 // powered, valid data-cache blocks
	Gated       int32 // valid but power-gated blocks
	Dirty       int32 // live dirty blocks
	Level       int32 // EDBP aggressiveness level (0 when absent/idle)
	Cycle       int32 // power-cycle index
}

// CycleStats is one power cycle's counter deltas: everything that happened
// between this cycle's start (cold boot or restore completion) and its end
// (outage, or end of run for the final partial cycle). Summing any field
// across all cycles of a run reproduces the corresponding aggregate in
// sim.Result / metrics.Counts exactly.
type CycleStats struct {
	// Index is the power-cycle ordinal (0 = cold boot). -1 marks the
	// overflow bucket that aggregates cycles beyond Options.MaxCycles.
	Index int
	// Start and End bound the powered phase in simulated seconds. End of
	// the last cycle is the end of the run when no outage ended it.
	Start, End float64

	Checkpoints      int
	CheckpointBlocks int
	RestoredBlocks   int
	BlocksGated      int
	WrongKills       int
	Sweeps           int
	MaxLevel         int
	StepsDown        int
	Resets           int

	// Counts holds the zombie-aware classification outcomes resolved
	// during this cycle (deltas of the run's cumulative metrics.Counts).
	Counts metrics.Counts
}

// OnDuration returns the powered span of the cycle in seconds.
func (c *CycleStats) OnDuration() float64 { return c.End - c.Start }

// Summary condenses one recorded run; sim.Result carries it when a
// Recorder was attached.
type Summary struct {
	// Label is Options.Label, identifying the run in exports.
	Label string
	// Events counts every emission; Dropped counts those overwritten in
	// the ring (Events - Dropped are retained and exportable).
	Events  uint64
	Dropped uint64
	// Samples / SamplesDropped are the gauge-ring equivalents.
	Samples        uint64
	SamplesDropped uint64
	// ByKind tallies emissions per Kind (length KindCount, indexed by
	// Kind); it counts all emissions, including ring-dropped ones.
	ByKind []uint64
	// Cycles holds the per-power-cycle counter deltas, in order. Rest is
	// non-nil when the run exceeded Options.MaxCycles: it aggregates every
	// cycle past the cap (Index -1), keeping the sums exact.
	Cycles []CycleStats
	Rest   *CycleStats
}

// String reports the recording on one line, drop counts included: ring
// overwrites silently truncate the exportable window, so any place that
// prints a Summary (edbpsim, sim.Result.String) must make the truncation
// visible.
func (s *Summary) String() string {
	if s == nil {
		return "trace: none"
	}
	return fmt.Sprintf("trace: %d events (%d dropped), %d samples (%d dropped), %d cycles",
		s.Events, s.Dropped, s.Samples, s.SamplesDropped, len(s.AllCycles()))
}

// Count returns the number of emissions of kind k.
func (s *Summary) Count(k Kind) uint64 {
	if s == nil || int(k) >= len(s.ByKind) {
		return 0
	}
	return s.ByKind[k]
}

// AllCycles returns Cycles plus the overflow bucket, if any.
func (s *Summary) AllCycles() []CycleStats {
	if s.Rest == nil {
		return s.Cycles
	}
	return append(append([]CycleStats(nil), s.Cycles...), *s.Rest)
}

// Options tunes a Recorder. The zero value selects the documented
// defaults.
type Options struct {
	// Label identifies the run in exports (e.g. "crc32/EDBP/RFHome").
	Label string
	// EventCap is the event ring capacity (default 65536). The ring keeps
	// the most recent events and counts the rest as dropped.
	EventCap int
	// SampleCap is the gauge ring capacity (default 65536).
	SampleCap int
	// SampleEvery is the gauge cadence in simulated seconds (default
	// 20 µs, the Figure 4 sampling period). Sampling happens while
	// powered; hibernation is bounded by its outage/restore events.
	SampleEvery float64
	// MaxCycles caps the per-cycle stats slice (default 1<<20); cycles
	// beyond it fold into the Summary.Rest aggregate so counter sums stay
	// exact while memory stays bounded.
	MaxCycles int
}

func (o Options) normalized() Options {
	if o.EventCap <= 0 {
		o.EventCap = 1 << 16
	}
	if o.SampleCap <= 0 {
		o.SampleCap = 1 << 16
	}
	if o.SampleEvery <= 0 {
		o.SampleEvery = 20e-6
	}
	if o.MaxCycles <= 0 {
		o.MaxCycles = 1 << 20
	}
	return o
}

// ProfilePoint is one voltage-bucketed zombie-ratio observation (Figure
// 4); exports carry it so cmd/tracereport can emit the profile CSV from a
// live run.
type ProfilePoint struct {
	Voltage     float64
	ZombieRatio float64
	Samples     float64
}
