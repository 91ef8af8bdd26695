package metrics

import (
	"math"
	"testing"
)

func TestCountsMath(t *testing.T) {
	c := Counts{TP: 10, FP: 5, TN: 20, FN: 3, ZombieFN: 12}
	if c.Total() != 50 {
		t.Fatalf("total = %d", c.Total())
	}
	// Coverage = TP / (TP + FN + ZombieFN) — Equation 1 with zombies.
	if got, want := c.Coverage(), 10.0/25.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("coverage = %g, want %g", got, want)
	}
	// Accuracy = (TP + TN) / total — Equation 2.
	if got, want := c.Accuracy(), 30.0/50.0; math.Abs(got-want) > 1e-12 {
		t.Fatalf("accuracy = %g, want %g", got, want)
	}
	tp, fp, tn, fn, zfn := c.Rate()
	if sum := tp + fp + tn + fn + zfn; math.Abs(sum-1) > 1e-12 {
		t.Fatalf("rates sum to %g", sum)
	}
}

func TestCountsEmpty(t *testing.T) {
	var c Counts
	if c.Coverage() != 0 || c.Accuracy() != 0 {
		t.Fatal("empty counts must report zero ratios")
	}
}

// The five classification scenarios of Section IV, one test each.

func TestClassifyTP(t *testing.T) {
	// Gated and never re-demanded → TP, whether evicted or lost at outage.
	tr := NewTracker(2, 2)
	tr.BlockFilled(0, 0, 0x100, 1, 1.0)
	tr.BlockGated(0, 0, 2, 2.0)
	tr.BlockEvicted(0, 0, 3, 3.0)

	tr.BlockFilled(0, 1, 0x200, 4, 4.0)
	tr.BlockGated(0, 1, 5, 5.0)
	tr.BlockLostAtOutage(0, 1, 6, 6.0)

	if c := tr.Counts(); c.TP != 2 || c.Total() != 2 {
		t.Fatalf("counts = %+v, want 2 TP", c)
	}
	// Gated time: (3-2) + (6-5) = 2 block-seconds.
	if got := tr.GatedTime(); math.Abs(got-2.0) > 1e-12 {
		t.Fatalf("gated time = %g, want 2", got)
	}
}

func TestClassifyFP(t *testing.T) {
	// Gated then re-demanded → FP (wrong kill).
	tr := NewTracker(1, 1)
	tr.BlockFilled(0, 0, 0x100, 1, 1.0)
	tr.BlockGated(0, 0, 2, 2.0)
	tr.BlockWrongKill(0, 0, 3, 2.5)
	if c := tr.Counts(); c.FP != 1 || c.Total() != 1 {
		t.Fatalf("counts = %+v, want 1 FP", c)
	}
}

func TestClassifyTN(t *testing.T) {
	// Kept powered, reused, evicted → TN.
	tr := NewTracker(1, 1)
	tr.BlockFilled(0, 0, 0x100, 1, 1.0)
	tr.BlockHit(0, 0, 2, 2.0)
	tr.BlockEvicted(0, 0, 3, 3.0)
	if c := tr.Counts(); c.TN != 1 || c.Total() != 1 {
		t.Fatalf("counts = %+v, want 1 TN", c)
	}
}

func TestClassifyFN(t *testing.T) {
	// Kept powered, never reused, evicted → FN (dead block missed).
	tr := NewTracker(1, 1)
	tr.BlockFilled(0, 0, 0x100, 1, 1.0)
	tr.BlockEvicted(0, 0, 2, 2.0)
	if c := tr.Counts(); c.FN != 1 || c.Total() != 1 {
		t.Fatalf("counts = %+v, want 1 FN", c)
	}
}

func TestClassifyZombieFN(t *testing.T) {
	// Kept powered, lost at outage → missed prediction (zombie FN), even
	// if it was reused earlier in its life.
	tr := NewTracker(1, 1)
	tr.BlockFilled(0, 0, 0x100, 1, 1.0)
	tr.BlockHit(0, 0, 2, 2.0)
	tr.BlockLostAtOutage(0, 0, 3, 3.0)
	if c := tr.Counts(); c.ZombieFN != 1 || c.Total() != 1 {
		t.Fatalf("counts = %+v, want 1 ZombieFN", c)
	}
}

func TestRefillStartsNewGeneration(t *testing.T) {
	tr := NewTracker(1, 1)
	tr.BlockFilled(0, 0, 0x100, 1, 1.0)
	tr.BlockEvicted(0, 0, 2, 2.0)
	tr.BlockFilled(0, 0, 0x200, 3, 3.0)
	tr.BlockHit(0, 0, 4, 4.0)
	tr.BlockEvicted(0, 0, 5, 5.0)
	c := tr.Counts()
	if c.FN != 1 || c.TN != 1 || c.Total() != 2 {
		t.Fatalf("counts = %+v, want 1 FN + 1 TN", c)
	}
}

func TestEventsOnInactiveGenAreIgnored(t *testing.T) {
	tr := NewTracker(1, 1)
	tr.BlockHit(0, 0, 1, 1.0)
	tr.BlockEvicted(0, 0, 2, 2.0)
	tr.BlockWrongKill(0, 0, 3, 3.0)
	tr.BlockLostAtOutage(0, 0, 4, 4.0)
	if c := tr.Counts(); c.Total() != 0 {
		t.Fatalf("events without a generation classified: %+v", c)
	}
}

func TestFlushOpen(t *testing.T) {
	tr := NewTracker(2, 1)
	tr.BlockFilled(0, 0, 0x100, 1, 1.0)
	tr.BlockHit(0, 0, 2, 2.0)
	tr.BlockFilled(1, 0, 0x200, 3, 3.0)
	tr.FlushOpen(10.0)
	c := tr.Counts()
	if c.TN != 1 || c.FN != 1 || c.Total() != 2 {
		t.Fatalf("counts after flush = %+v", c)
	}
}

func TestZombieProfile(t *testing.T) {
	p, err := NewZombieProfile(3.2, 3.5, 3)
	if err != nil {
		t.Fatal(err)
	}
	tr := NewTracker(1, 2)
	tr.EnableZombieProfile(p)

	// Block filled at t=0, last used at t=1; samples at t=0.5 (live) and
	// t=1.5, t=2 (zombie); outage at t=3.
	tr.BlockFilled(0, 0, 0x100, 1, 0.0)
	tr.BlockHit(0, 0, 2, 1.0)
	p.Sample(0.5, 3.45, 1)
	p.Sample(1.5, 3.30, 1)
	p.Sample(2.0, 3.22, 1)
	tr.BlockLostAtOutage(0, 0, 3, 3.0)
	p.FlushCycle(true)

	pts := p.Points()
	if len(pts) == 0 {
		t.Fatal("no points produced")
	}
	// The 3.45 V sample saw a live block; the low-voltage samples saw a
	// zombie.
	for _, pt := range pts {
		switch {
		case pt.Voltage > 3.4:
			if pt.ZombieRatio != 0 {
				t.Fatalf("high-voltage sample zombie ratio = %g, want 0", pt.ZombieRatio)
			}
		case pt.Voltage < 3.35:
			if pt.ZombieRatio != 1 {
				t.Fatalf("low-voltage sample zombie ratio = %g, want 1", pt.ZombieRatio)
			}
		}
	}
}

func TestZombieProfileDiscardsWithoutOutage(t *testing.T) {
	p, _ := NewZombieProfile(3.2, 3.5, 3)
	p.Sample(0.5, 3.3, 10)
	p.FlushCycle(false) // program ended with power intact
	if len(p.Points()) != 0 {
		t.Fatal("samples without an outage must be discarded")
	}
}

func TestZombieProfileOutOfRangeVoltage(t *testing.T) {
	p, _ := NewZombieProfile(3.2, 3.5, 3)
	p.Sample(0.5, 2.0, 10) // below range: ignored at flush
	p.Sample(0.6, 4.0, 10) // above range: ignored at flush
	p.FlushCycle(true)
	if len(p.Points()) != 0 {
		t.Fatal("out-of-range samples must not create buckets")
	}
}

func TestZombieProfileMerge(t *testing.T) {
	a, _ := NewZombieProfile(3.2, 3.5, 3)
	b, _ := NewZombieProfile(3.2, 3.5, 3)
	a.Sample(1, 3.25, 4)
	a.FlushCycle(true)
	b.Sample(1, 3.25, 6)
	b.FlushCycle(true)
	if err := a.Merge(b); err != nil {
		t.Fatal(err)
	}
	pts := a.Points()
	if len(pts) != 1 || pts[0].Samples != 10 {
		t.Fatalf("merged points = %+v", pts)
	}
	c, _ := NewZombieProfile(3.0, 3.5, 3)
	if err := a.Merge(c); err == nil {
		t.Fatal("merge with different geometry accepted")
	}
}

func TestZombieProfileValidation(t *testing.T) {
	if _, err := NewZombieProfile(3.5, 3.2, 3); err == nil {
		t.Fatal("inverted range accepted")
	}
	if _, err := NewZombieProfile(3.2, 3.5, 0); err == nil {
		t.Fatal("zero buckets accepted")
	}
}

// TestRecordLastUses: once recording, every closed generation — evicted,
// lost at an outage, refilled over a stale one, or flushed at the end —
// leaves its last-use event and address, in closing order; an
// untouched tracker records nothing.
func TestRecordLastUses(t *testing.T) {
	plain := NewTracker(1, 1)
	plain.BlockFilled(0, 0, 0x40, 1, 1.0)
	plain.BlockEvicted(0, 0, 2, 2.0)
	if got := plain.LastUses(); got != nil {
		t.Fatalf("tracker without RecordLastUses recorded %+v", got)
	}

	tr := NewTracker(1, 2)
	tr.RecordLastUses()
	tr.BlockFilled(0, 0, 0x100, 1, 1.0)
	tr.BlockHit(0, 0, 3, 3.0)
	tr.BlockEvicted(0, 0, 7, 7.0)
	tr.BlockFilled(0, 1, 0x200, 4, 4.0)
	tr.BlockLostAtOutage(0, 1, 9, 9.0)
	tr.BlockFilled(0, 0, 0x300, 10, 10.0)
	tr.BlockFilled(0, 0, 0x400, 11, 12.0) // stale generation closed by the refill
	tr.FlushOpen(20.0)
	want := []LastUse{
		{Event: 3, Addr: 0x100},
		{Event: 4, Addr: 0x200},
		{Event: 10, Addr: 0x300},
		{Event: 11, Addr: 0x400},
	}
	got := tr.LastUses()
	if len(got) != len(want) {
		t.Fatalf("recorded %+v, want %+v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
