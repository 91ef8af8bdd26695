package predictor

import (
	"math"
	"testing"

	"edbp/internal/cache"
	"edbp/internal/metrics"
)

// newRecorder is the Ideal oracle's pass-1 recorder: a tracker keeping
// every closed generation's last use.
func newRecorder(sets, ways int) *metrics.Tracker {
	tr := metrics.NewTracker(sets, ways)
	tr.RecordLastUses()
	return tr
}

// oracleFrom closes tr's open generations at endTime, as the simulator's
// recording pass does at the end of its run, and builds the oracle.
func oracleFrom(tr *metrics.Tracker, endTime float64) *Ideal {
	tr.FlushOpen(endTime)
	return NewIdeal(tr.LastUses())
}

// scheduledAt returns the oracle's gates whose last use was event, in the
// order it will gate them.
func scheduledAt(p *Ideal, event uint64) []metrics.LastUse {
	var out []metrics.LastUse
	for _, o := range p.schedule {
		if o.Event == event {
			out = append(out, o)
		}
	}
	return out
}

func testCache(t *testing.T) *cache.Cache {
	t.Helper()
	c, err := cache.New(cache.Config{SizeBytes: 512, BlockBytes: 16, Ways: 4, Policy: cache.LRU, Power: cache.GateInvalid})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestOracleRecorderSchedule(t *testing.T) {
	rec := newRecorder(2, 2)
	// Generation: filled at event 1, hit at event 3, evicted at event 7.
	rec.BlockFilled(0, 0, 0x100, 1, 1.0)
	rec.BlockHit(0, 0, 3, 3.0)
	rec.BlockEvicted(0, 0, 7, 7.0)
	// Generation with no reuse, lost at an outage.
	rec.BlockFilled(1, 1, 0x200, 4, 4.0)
	rec.BlockLostAtOutage(1, 1, 9, 9.0)

	sched := oracleFrom(rec, 10.0)
	if got := scheduledAt(sched, 3); len(got) != 1 || got[0].Addr != 0x100 {
		t.Fatalf("schedule[3] = %+v, want gate of 0x100 after its last use", got)
	}
	if got := scheduledAt(sched, 4); len(got) != 1 || got[0].Addr != 0x200 {
		t.Fatalf("schedule[4] = %+v, want gate of 0x200 after its fill", got)
	}
	if n := len(sched.schedule); n != 2 {
		t.Fatalf("schedule holds %d gates, want 2", n)
	}
}

func TestOracleRecorderFlushesOpenGens(t *testing.T) {
	rec := newRecorder(1, 1)
	rec.BlockFilled(0, 0, 0x100, 2, 2.0)
	sched := oracleFrom(rec, 5.0)
	if got := scheduledAt(sched, 2); len(got) != 1 || got[0].Addr != 0x100 {
		t.Fatalf("open generation not flushed at the end time: %+v", sched.schedule)
	}
}

func TestIdealReplayGates(t *testing.T) {
	c := testCache(t)
	rec := newRecorder(c.Sets(), c.Ways())
	rec.BlockFilled(0, 0, 0x0, 5, 1.0)
	rec.BlockEvicted(0, 0, 9, 9.0)
	oracle := oracleFrom(rec, 10.0)
	oracle.Attach(Env{Cache: c, GateBlock: func(s, w int) { c.Gate(s, w) }})

	// Replay: fill the block, then cross event 5.
	c.Access(0x0, false)
	if next := oracle.GateThrough(4); next != 5 {
		t.Fatalf("cursor after event 4 = %d, want 5", next)
	}
	if !c.Block(0, 0).Live() {
		t.Fatal("gated before its scheduled event")
	}
	if next := oracle.GateThrough(5); next != math.MaxUint64 {
		t.Fatalf("cursor after the last gate = %d, want MaxUint64", next)
	}
	if c.Block(0, 0).Live() {
		t.Fatal("not gated at its scheduled event")
	}
}

// TestIdealGatesDirtyBlocks: a dirty dead block is gated like a clean one
// (its writeback is the one its eviction would pay, moved earlier).
func TestIdealGatesDirtyBlocks(t *testing.T) {
	c := testCache(t)
	oracle := NewIdeal([]metrics.LastUse{{Event: 5, Addr: 0x0}})
	oracle.Attach(Env{Cache: c, GateBlock: func(s, w int) { c.Gate(s, w) }})
	c.Access(0x0, true) // dirty
	oracle.GateThrough(5)
	if c.Block(0, 0).Live() {
		t.Fatal("dirty dead block left powered")
	}
}

func TestIdealToleratesDivergence(t *testing.T) {
	c := testCache(t)
	rec := newRecorder(c.Sets(), c.Ways())
	rec.BlockFilled(0, 0, 0x0, 5, 1.0)
	rec.BlockEvicted(0, 0, 9, 9.0)
	oracle := oracleFrom(rec, 10.0)
	gates := 0
	oracle.Attach(Env{Cache: c, GateBlock: func(s, w int) { gates++; c.Gate(s, w) }})
	// The scheduled block is not resident in this pass: must be a no-op
	// that still moves the cursor past it.
	if next := oracle.GateThrough(5); next != math.MaxUint64 || gates != 0 {
		t.Fatalf("GateThrough(5) = %d with %d gates, want MaxUint64 and none", next, gates)
	}
}

// TestIdealSameEventRecordingOrder: generations whose last use is the same
// event are gated in the order they were recorded (closed), not by address
// or set.
func TestIdealSameEventRecordingOrder(t *testing.T) {
	c := testCache(t)
	// 0x30 (set 3) closes before 0x10 (set 1); both last used at event 5.
	// 0x20 (set 2) was last used earlier but closed last.
	oracle := NewIdeal([]metrics.LastUse{
		{Event: 5, Addr: 0x30},
		{Event: 5, Addr: 0x10},
		{Event: 2, Addr: 0x20},
	})
	var order []int
	oracle.Attach(Env{Cache: c, GateBlock: func(s, w int) { order = append(order, s); c.Gate(s, w) }})
	for _, a := range []uint64{0x10, 0x20, 0x30} {
		c.Access(a, false)
	}
	if next := oracle.Next(); next != 2 {
		t.Fatalf("first gate at event %d, want 2", next)
	}
	oracle.GateThrough(2)
	oracle.GateThrough(5)
	if len(order) != 3 || order[0] != 2 || order[1] != 3 || order[2] != 1 {
		t.Fatalf("gated sets %v, want [2 3 1]: event order, then recording order", order)
	}
}

// TestIdealCursorSkipsEmptyEvents: passing events with nothing scheduled
// gates nothing and leaves the cursor on the next scheduled event.
func TestIdealCursorSkipsEmptyEvents(t *testing.T) {
	c := testCache(t)
	oracle := NewIdeal([]metrics.LastUse{{Event: 5, Addr: 0x10}, {Event: 9, Addr: 0x20}})
	gates := 0
	oracle.Attach(Env{Cache: c, GateBlock: func(s, w int) { gates++; c.Gate(s, w) }})
	c.Access(0x10, false)
	c.Access(0x20, false)
	for ev := uint64(0); ev < 5; ev++ {
		if next := oracle.GateThrough(ev); next != 5 || gates != 0 {
			t.Fatalf("GateThrough(%d) = %d after %d gates, want 5 and none", ev, next, gates)
		}
	}
	if next := oracle.GateThrough(5); next != 9 || gates != 1 {
		t.Fatalf("GateThrough(5) = %d after %d gates, want 9 and one", next, gates)
	}
	for ev := uint64(6); ev < 9; ev++ {
		if next := oracle.GateThrough(ev); next != 9 || gates != 1 {
			t.Fatalf("GateThrough(%d) = %d after %d gates, want 9 and one", ev, next, gates)
		}
	}
	var none *Ideal
	if next := none.Next(); next != math.MaxUint64 {
		t.Fatalf("nil oracle's Next = %d, want MaxUint64", next)
	}
}
