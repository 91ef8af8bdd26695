// Package cpu models the in-order nonvolatile MCU the paper simulates
// (NVPsim-style: 25 MHz single-issue ARM-like core with 16 registers,
// 160 µW/MHz) and the program-counter state that turns a recorded
// workload trace back into an instruction-cache access stream.
package cpu

import (
	"fmt"

	"edbp/internal/workload"
)

// Config is the MCU's timing/energy model.
type Config struct {
	// ClockHz is the core frequency (paper default: 25 MHz).
	ClockHz float64
	// PowerPerMHz is the core's active power per MHz in watts (paper
	// default: 160 µW/MHz).
	PowerPerMHz float64
	// Registers is the architected register count (16), checkpointed as
	// part of the JIT checkpoint.
	Registers int
}

// Default returns the paper's Table II MCU configuration.
func Default() Config {
	return Config{ClockHz: 25e6, PowerPerMHz: 160e-6, Registers: 16}
}

// Validate reports configuration errors.
func (c Config) Validate() error {
	if c.ClockHz <= 0 {
		return fmt.Errorf("cpu: clock must be positive, got %g", c.ClockHz)
	}
	if c.PowerPerMHz < 0 {
		return fmt.Errorf("cpu: power must be non-negative, got %g", c.PowerPerMHz)
	}
	if c.Registers <= 0 {
		return fmt.Errorf("cpu: register count must be positive, got %d", c.Registers)
	}
	return nil
}

// CycleTime returns the duration of one core cycle in seconds.
func (c Config) CycleTime() float64 { return 1 / c.ClockHz }

// ActivePower returns the core's power draw while executing, in watts.
func (c Config) ActivePower() float64 { return c.PowerPerMHz * c.ClockHz / 1e6 }

// RegisterBytes returns the size of the architected register file.
func (c Config) RegisterBytes() int { return c.Registers * 4 }

// Fetcher holds the program-counter state a recorded trace replays
// against: the PC, the currently fetched I-cache block and the stack of
// code regions entered. Every executed instruction advances the PC by 4
// within the current code region, wrapping at the region end (a loop
// back-edge); each crossing into a new I-cache block is one fetch. The
// simulator's replay loop does that walk on the state it reads through
// Hot and Bounds; the fetcher itself only moves the PC between regions.
type Fetcher struct {
	regions []workload.Region

	pc    uint32
	block uint32 // currently fetched block address (^0 = none)
	stack []fetchFrame
	cur   int // current region index, -1 at top level
}

type fetchFrame struct {
	region int
	pc     uint32
}

// topLevelBytes is the size of the implicit "main" region that hosts all
// top-level code (everything executed outside an explicit region). Like
// explicit regions it wraps, modelling main()'s driver loop.
const topLevelBytes = 1024

// topLevelBase is where the implicit main region lives, just below the
// explicit regions.
const topLevelBase = workload.CodeBase - topLevelBytes

// NewFetcher builds a fetcher for the given trace's code regions, at the
// start of top-level code with no block fetched yet.
func NewFetcher(regions []workload.Region) *Fetcher {
	return &Fetcher{regions: regions, pc: topLevelBase, block: ^uint32(0), cur: -1}
}

// Enter performs a call into region idx once the call instruction itself
// has executed: the return address is the PC after it, and the PC lands
// at the region base.
func (f *Fetcher) Enter(idx int) {
	f.stack = append(f.stack, fetchFrame{region: f.cur, pc: f.pc})
	f.cur = idx
	f.pc = f.regions[idx].Base
}

// Leave returns from the current region once the return instruction
// itself has executed: the PC lands back at the saved return address. A
// Leave at top level leaves the PC where it is.
func (f *Fetcher) Leave() {
	if len(f.stack) == 0 {
		return
	}
	top := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	f.cur = top.region
	f.pc = top.pc
}

// PC returns the current program counter, as last synced by the replay
// loop; predictors read it through predictor.Env.PC.
func (f *Fetcher) PC() uint32 { return f.pc }

// Hot returns the fetcher's per-instruction state — the program counter
// and the currently fetched I-cache block — so a replay loop can hoist
// both into locals. The region stack and current-region index are
// deliberately excluded: they only change on Enter/Leave, which a replay
// loop calls between SetHot and a fresh Hot/Bounds read.
func (f *Fetcher) Hot() (pc, block uint32) { return f.pc, f.block }

// SetHot writes back state previously obtained from Hot, as advanced by
// the replay loop's walk.
func (f *Fetcher) SetHot(pc, block uint32) {
	f.pc = pc
	f.block = block
}

// Bounds returns the current code region's [base, end) byte range;
// top-level code lives in the implicit main region. Between an Enter and
// the matching Leave the bounds are fixed, so a replay loop may cache them
// alongside Hot's state.
func (f *Fetcher) Bounds() (base, end uint32) {
	if f.cur >= 0 {
		r := f.regions[f.cur]
		return r.Base, r.Base + r.Size
	}
	return topLevelBase, topLevelBase + topLevelBytes
}
