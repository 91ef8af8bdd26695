// Package cpu models the in-order nonvolatile MCU the paper simulates
// (NVPsim-style: 25 MHz single-issue ARM-like core with 16 registers,
// 160 µW/MHz) and the instruction-fetch engine that turns a recorded
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

// Fetcher reconstructs the program-counter stream from a recorded trace.
// Every executed instruction advances the PC by 4 within the current code
// region, wrapping at the region end (a loop back-edge); each crossing
// into a new I-cache block yields one fetch.
type Fetcher struct {
	regions    []workload.Region
	blockBytes uint32

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

// NewFetcher builds a fetcher for the given trace's code regions and
// I-cache block size.
func NewFetcher(regions []workload.Region, blockBytes int) *Fetcher {
	f := &Fetcher{
		regions:    regions,
		blockBytes: uint32(blockBytes),
		cur:        -1,
		block:      ^uint32(0),
	}
	f.pc = topLevelBase
	return f
}

// bounds returns the current code region's [base, end) range; top-level
// code lives in the implicit main region.
func (f *Fetcher) bounds() (base, end uint32) {
	if f.cur >= 0 {
		r := f.regions[f.cur]
		return r.Base, r.Base + r.Size
	}
	return topLevelBase, topLevelBase + topLevelBytes
}

// Step executes n instructions, invoking fetch for each new I-cache block
// the PC enters.
func (f *Fetcher) Step(n int, fetch func(blockAddr uint32)) {
	if n == 1 {
		// Single-instruction fast path (every load/store executes one):
		// with take necessarily 1, the block-capacity arithmetic of the
		// general loop reduces to advance-and-wrap.
		blk := f.pc &^ (f.blockBytes - 1)
		if blk != f.block {
			f.block = blk
			fetch(blk)
		}
		f.pc += 4
		base, end := f.bounds()
		if f.pc >= end {
			f.pc = base
		}
		return
	}
	for n > 0 {
		blk := f.pc &^ (f.blockBytes - 1)
		if blk != f.block {
			f.block = blk
			fetch(blk)
		}
		// Execute as many instructions as fit in this block, stopping at
		// the region's wrap point.
		base, end := f.bounds()
		limit := blk + f.blockBytes
		if end < limit {
			limit = end
		}
		avail := int(limit-f.pc) / 4
		if avail <= 0 {
			avail = 1
		}
		take := n
		if take > avail {
			take = avail
		}
		f.pc += uint32(take) * 4
		n -= take
		// Wrap at region end (loop back-edge).
		if f.pc >= end {
			f.pc = base
		}
	}
}

// Enter performs a call into region idx: one branch instruction, then the
// PC lands at the region base.
func (f *Fetcher) Enter(idx int, fetch func(blockAddr uint32)) {
	f.Step(1, fetch) // the call instruction itself
	f.stack = append(f.stack, fetchFrame{region: f.cur, pc: f.pc})
	f.cur = idx
	f.pc = f.regions[idx].Base
}

// Leave returns from the current region: one return instruction, then the
// PC lands back at the saved return address.
func (f *Fetcher) Leave(fetch func(blockAddr uint32)) {
	f.Step(1, fetch) // the return instruction itself
	if len(f.stack) == 0 {
		return
	}
	top := f.stack[len(f.stack)-1]
	f.stack = f.stack[:len(f.stack)-1]
	f.cur = top.region
	f.pc = top.pc
}

// PC returns the current program counter (for inspection and tests).
func (f *Fetcher) PC() uint32 { return f.pc }

// Hot returns the fetcher's per-instruction state — the program counter
// and the currently fetched I-cache block — so a batched replay loop can
// hoist both into locals. The region stack and current-region index are
// deliberately excluded: they only change on Enter/Leave, which a batched
// loop calls between SetHot and a fresh Hot/Bounds read.
func (f *Fetcher) Hot() (pc, block uint32) { return f.pc, f.block }

// SetHot writes back state previously obtained from Hot (possibly advanced
// by an external replay of Step's arithmetic).
func (f *Fetcher) SetHot(pc, block uint32) {
	f.pc = pc
	f.block = block
}

// Bounds exposes the current code region's [base, end) byte range. Between
// an Enter and the matching Leave the bounds are fixed, so a replay loop
// may cache them alongside Hot's state.
func (f *Fetcher) Bounds() (base, end uint32) { return f.bounds() }

// BlockBytes returns the I-cache block size the fetcher was built with.
func (f *Fetcher) BlockBytes() uint32 { return f.blockBytes }
