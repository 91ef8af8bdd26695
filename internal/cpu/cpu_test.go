package cpu

import (
	"testing"

	"edbp/internal/workload"
)

func TestDefaultConfig(t *testing.T) {
	cfg := Default()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := cfg.CycleTime(); got != 40e-9 {
		t.Fatalf("cycle time = %g, want 40ns at 25 MHz", got)
	}
	if got := cfg.ActivePower(); got != 4e-3 {
		t.Fatalf("active power = %g, want 4 mW (160 µW/MHz × 25 MHz)", got)
	}
	if got := cfg.RegisterBytes(); got != 64 {
		t.Fatalf("register file = %d B, want 64 (16 × 4)", got)
	}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{ClockHz: 0, PowerPerMHz: 1, Registers: 16},
		{ClockHz: 1e6, PowerPerMHz: -1, Registers: 16},
		{ClockHz: 1e6, PowerPerMHz: 1, Registers: 0},
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
}

func regions() []workload.Region {
	m := workload.NewMem()
	r := m.NewRegion("hot", 64) // 4 blocks of 16 B
	_ = r
	m.Tick(1)
	tr := m.Finish("x", 0)
	return tr.Regions
}

// TestEnterLeaveRestoresPC: Enter saves the PC the replay loop left after
// the call instruction and moves to the region; Leave, after the return
// instruction, resumes there with the top-level bounds back.
func TestEnterLeaveRestoresPC(t *testing.T) {
	regs := regions()
	f := NewFetcher(regs)
	ret := uint32(topLevelBase + 12)
	f.SetHot(ret, topLevelBase)
	f.Enter(0)
	if f.PC() != regs[0].Base {
		t.Fatalf("PC after Enter = %#x, want region base %#x", f.PC(), regs[0].Base)
	}
	if base, end := f.Bounds(); base != regs[0].Base || end != regs[0].Base+regs[0].Size {
		t.Fatalf("bounds in region = [%#x, %#x), want [%#x, %#x)", base, end, regs[0].Base, regs[0].Base+regs[0].Size)
	}
	f.SetHot(regs[0].Base+8, regs[0].Base)
	f.Leave()
	if got := f.PC(); got != ret {
		t.Fatalf("PC after Leave = %#x, want return address %#x", got, ret)
	}
	if base, end := f.Bounds(); base != topLevelBase || end != topLevelBase+topLevelBytes {
		t.Fatalf("bounds after Leave = [%#x, %#x), want the top-level region", base, end)
	}
}

func TestLeaveOnEmptyStackIsSafe(t *testing.T) {
	f := NewFetcher(regions())
	f.Leave() // must not panic
	if f.PC() != topLevelBase {
		t.Fatalf("PC after top-level Leave = %#x, want %#x unchanged", f.PC(), topLevelBase)
	}
}
