// Package workload provides the 20 MiBench/Mediabench-style benchmark
// applications the paper evaluates, implemented as real algorithms that
// execute against an instrumented memory. Running a kernel records a
// deterministic trace of loads, stores, compute ticks and code-region
// transitions; the simulator replays that trace under each scheme so every
// scheme sees the identical access stream (the paper does the same by
// simulating identical binaries).
//
// The substitution story (DESIGN.md §2): the paper runs ARM binaries under
// gem5/NVPsim. Dead- and zombie-block behaviour is a function of the
// memory-reference stream — its locality, reuse distances and load/store
// mix — which real algorithm implementations provide directly.
package workload

import "fmt"

// Op is the kind of one trace event.
type Op uint8

const (
	// OpTick is Arg compute instructions with no data access.
	OpTick Op = iota
	// OpLoad is one load instruction from byte address Arg.
	OpLoad
	// OpStore is one store instruction to byte address Arg.
	OpStore
	// OpEnter is a call into code region Arg (one branch instruction);
	// the program counter jumps to the region's base.
	OpEnter
	// OpLeave returns from the current region (one branch instruction).
	OpLeave
)

// Event is one element of a recorded trace, packed into one word: the op
// in the low 3 bits and its argument in the upper 29.
type Event uint32

// opBits is the width of an Event's op field.
const opBits = 3

// MaxArg is the largest argument an Event holds. Mem.Tick splits a longer
// run of ticks across events; data addresses and region indices stay far
// below it.
const MaxArg = 1<<(32-opBits) - 1

// MakeEvent packs op and arg into one Event. An op or argument that does
// not fit its field is a bug in the recording code, so it panics.
func MakeEvent(op Op, arg uint32) Event {
	if op >= 1<<opBits || arg > MaxArg {
		panic(fmt.Sprintf("workload: event (op %d, arg %#x) does not fit 32 bits", op, arg))
	}
	return Event(arg<<opBits | uint32(op))
}

// Op returns the event's kind.
func (e Event) Op() Op { return Op(e & (1<<opBits - 1)) }

// Arg returns the event's argument: an instruction count, a byte address
// or a region index, depending on Op.
func (e Event) Arg() uint32 { return uint32(e >> opBits) }

// Region describes a code region (a function or hot loop). Instruction
// fetches are synthesised during replay: the PC advances 4 bytes per
// instruction inside the region and wraps to Base at the end, modelling a
// loop body; every 16-byte boundary crossing is one I-cache block fetch.
type Region struct {
	Name string
	Base uint32
	Size uint32 // bytes of code; must be a multiple of 4
}

// CodeBase is where synthesized code regions start. Data addresses grow
// from 0, so code and data never collide in the 16 MB memory.
const CodeBase = 0x0080_0000

// Trace is the full recorded execution of one benchmark. It is immutable
// once recorded and shared by pointer: Cached hands the same Trace to
// every run over one kernel and scale, so Events is the only copy of the
// stream in the process.
type Trace struct {
	Name    string
	Events  []Event
	Regions []Region

	Instructions uint64
	Loads        uint64
	Stores       uint64
	// Checksum is the kernel's computed result, letting tests pin kernel
	// correctness and determinism.
	Checksum uint32
	// DataBytes is the peak data footprint.
	DataBytes uint32
}

// Columns returns Events. The replay set-up in perfbench is its last
// caller; it goes when that benchmark stops calling it.
func (t *Trace) Columns() []Event { return t.Events }

// MemOps returns loads+stores.
func (t *Trace) MemOps() uint64 { return t.Loads + t.Stores }

// LoadStoreRatio returns memory operations as a fraction of all committed
// instructions (the paper's Figure 7 secondary axis).
func (t *Trace) LoadStoreRatio() float64 {
	if t.Instructions == 0 {
		return 0
	}
	return float64(t.MemOps()) / float64(t.Instructions)
}

// Mem is the instrumented memory a kernel runs against. It carries real
// data (kernels compute genuine results) and records every access.
type Mem struct {
	data    []byte
	brk     uint32
	events  []Event
	regions []Region
	depth   int

	instr  uint64
	loads  uint64
	stores uint64

	codeNext uint32
}

// NewMem returns an empty instrumented memory.
func NewMem() *Mem {
	return &Mem{codeNext: CodeBase}
}

// Alloc reserves n bytes of zeroed data memory, 16-byte aligned so arrays
// start on cache-block boundaries, and returns the base address.
func (m *Mem) Alloc(n int) uint32 {
	if n < 0 {
		panic(fmt.Sprintf("workload: negative allocation %d", n))
	}
	base := (m.brk + 15) &^ 15
	end := base + uint32(n)
	if int(end) > len(m.data) {
		grown := make([]byte, int(end)*2)
		copy(grown, m.data)
		m.data = grown
	}
	m.brk = end
	return base
}

// NewRegion declares a code region of the given size in bytes (rounded up
// to 4). Regions model a kernel's hot functions; their size determines the
// I-cache footprint.
func (m *Mem) NewRegion(name string, sizeBytes int) Region {
	size := uint32((sizeBytes + 3) &^ 3)
	if size == 0 {
		size = 4
	}
	r := Region{Name: name, Base: m.codeNext, Size: size}
	m.codeNext += (size + 15) &^ 15 // keep regions block-aligned
	m.regions = append(m.regions, r)
	return r
}

func (m *Mem) emit(op Op, arg uint32) {
	m.events = append(m.events, MakeEvent(op, arg))
}

// Tick records n compute (ALU/branch) instructions.
func (m *Mem) Tick(n int) {
	if n <= 0 {
		return
	}
	m.instr += uint64(n)
	// Coalesce with a preceding tick to keep traces compact, while the sum
	// fits an Event's argument; past MaxArg the ticks start a new event.
	if last := len(m.events) - 1; last >= 0 && m.events[last].Op() == OpTick &&
		uint64(m.events[last].Arg())+uint64(n) <= MaxArg {
		m.events[last] += Event(n) << opBits
		return
	}
	for ; n > MaxArg; n -= MaxArg {
		m.emit(OpTick, MaxArg)
	}
	m.emit(OpTick, uint32(n))
}

// Enter begins executing in region r (records one call instruction).
func (m *Mem) Enter(r Region) {
	idx := -1
	for i := range m.regions {
		if m.regions[i].Base == r.Base {
			idx = i
			break
		}
	}
	if idx < 0 {
		panic("workload: Enter with region not created by this Mem")
	}
	m.instr++
	m.depth++
	m.emit(OpEnter, uint32(idx))
}

// Leave returns from the current region (records one return instruction).
func (m *Mem) Leave() {
	if m.depth == 0 {
		panic("workload: Leave without matching Enter")
	}
	m.depth--
	m.instr++
	m.emit(OpLeave, 0)
}

// Call runs f inside region r.
func (m *Mem) Call(r Region, f func()) {
	m.Enter(r)
	f()
	m.Leave()
}

func (m *Mem) checkAddr(a uint32, n int) {
	if int(a)+n > len(m.data) {
		panic(fmt.Sprintf("workload: access at %#x+%d outside allocated memory (%d bytes)", a, n, len(m.data)))
	}
}

// Load8 loads one byte.
func (m *Mem) Load8(a uint32) uint8 {
	m.checkAddr(a, 1)
	m.instr++
	m.loads++
	m.emit(OpLoad, a)
	return m.data[a]
}

// Store8 stores one byte.
func (m *Mem) Store8(a uint32, v uint8) {
	m.checkAddr(a, 1)
	m.instr++
	m.stores++
	m.emit(OpStore, a)
	m.data[a] = v
}

// Load32 loads a little-endian 32-bit word.
func (m *Mem) Load32(a uint32) uint32 {
	m.checkAddr(a, 4)
	m.instr++
	m.loads++
	m.emit(OpLoad, a)
	return uint32(m.data[a]) | uint32(m.data[a+1])<<8 | uint32(m.data[a+2])<<16 | uint32(m.data[a+3])<<24
}

// Store32 stores a little-endian 32-bit word.
func (m *Mem) Store32(a uint32, v uint32) {
	m.checkAddr(a, 4)
	m.instr++
	m.stores++
	m.emit(OpStore, a)
	m.data[a] = byte(v)
	m.data[a+1] = byte(v >> 8)
	m.data[a+2] = byte(v >> 16)
	m.data[a+3] = byte(v >> 24)
}

// Load16 loads a little-endian 16-bit halfword.
func (m *Mem) Load16(a uint32) uint16 {
	m.checkAddr(a, 2)
	m.instr++
	m.loads++
	m.emit(OpLoad, a)
	return uint16(m.data[a]) | uint16(m.data[a+1])<<8
}

// Store16 stores a little-endian 16-bit halfword.
func (m *Mem) Store16(a uint32, v uint16) {
	m.checkAddr(a, 2)
	m.instr++
	m.stores++
	m.emit(OpStore, a)
	m.data[a] = byte(v)
	m.data[a+1] = byte(v >> 8)
}

// LoadI32 / StoreI32 are signed conveniences.
func (m *Mem) LoadI32(a uint32) int32     { return int32(m.Load32(a)) }
func (m *Mem) StoreI32(a uint32, v int32) { m.Store32(a, uint32(v)) }

// Finish seals the recording into a Trace. The trace's events are a copy
// at their exact length, so no append slack outlives the recording.
func (m *Mem) Finish(name string, checksum uint32) *Trace {
	if m.depth != 0 {
		panic(fmt.Sprintf("workload: %d unmatched Enter calls at Finish", m.depth))
	}
	events := make([]Event, len(m.events))
	copy(events, m.events)
	return &Trace{
		Name:         name,
		Events:       events,
		Regions:      m.regions,
		Instructions: m.instr,
		Loads:        m.loads,
		Stores:       m.stores,
		Checksum:     checksum,
		DataBytes:    m.brk,
	}
}

// Instructions returns the instructions recorded so far.
func (m *Mem) Instructions() uint64 { return m.instr }
