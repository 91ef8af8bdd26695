package workload

import (
	"testing"
	"unsafe"
)

// TestEventRoundTrip checks that every op packs and unpacks unchanged at
// both ends of the argument range, and that an Event is one 4-byte word.
func TestEventRoundTrip(t *testing.T) {
	if n := unsafe.Sizeof(Event(0)); n != 4 {
		t.Fatalf("Event is %d bytes, want 4", n)
	}
	for _, op := range []Op{OpTick, OpLoad, OpStore, OpEnter, OpLeave} {
		for _, arg := range []uint32{0, 1, 0xaafd0, MaxArg} {
			ev := MakeEvent(op, arg)
			if ev.Op() != op || ev.Arg() != arg {
				t.Errorf("MakeEvent(%d, %#x) decodes as (%d, %#x)", op, arg, ev.Op(), ev.Arg())
			}
		}
	}
}

// TestMakeEventPanicsOutOfRange: an argument above MaxArg, or an op past
// the 3-bit field, would be truncated, so MakeEvent refuses it.
func TestMakeEventPanicsOutOfRange(t *testing.T) {
	for _, tc := range []struct {
		name string
		op   Op
		arg  uint32
	}{
		{"arg MaxArg+1", OpLoad, MaxArg + 1},
		{"arg max uint32", OpTick, ^uint32(0)},
		{"op 8", Op(8), 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Errorf("MakeEvent(%d, %#x) did not panic", tc.op, tc.arg)
				}
			}()
			MakeEvent(tc.op, tc.arg)
		})
	}
}

// TestTickSplitsAtMaxArg: adjacent ticks coalesce only while their sum
// fits an Event, so no tick count wraps, and the instruction count stays
// exact.
func TestTickSplitsAtMaxArg(t *testing.T) {
	for _, tc := range []struct {
		name  string
		ticks []int
		want  []uint32
	}{
		{"sum at MaxArg merges", []int{MaxArg - 1, 1}, []uint32{MaxArg}},
		{"sum past MaxArg starts a new event", []int{MaxArg - 1, 2}, []uint32{MaxArg - 1, 2}},
		{"full event then one", []int{MaxArg, 1}, []uint32{MaxArg, 1}},
		{"one tick past MaxArg", []int{2*MaxArg + 5}, []uint32{MaxArg, MaxArg, 5}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := NewMem()
			var sum uint64
			for _, n := range tc.ticks {
				m.Tick(n)
				sum += uint64(n)
			}
			tr := m.Finish("ticks", 0)
			if len(tr.Events) != len(tc.want) {
				t.Fatalf("%d events, want %d", len(tr.Events), len(tc.want))
			}
			for i, ev := range tr.Events {
				if ev.Op() != OpTick || ev.Arg() != tc.want[i] {
					t.Errorf("event %d = (%d, %d), want a tick of %d", i, ev.Op(), ev.Arg(), tc.want[i])
				}
			}
			if tr.Instructions != sum {
				t.Errorf("instructions = %d, want %d", tr.Instructions, sum)
			}
		})
	}
}

// TestTraceEventsExactLength: a recorded trace keeps its events at their
// exact length, so no append slack outlives the recording, and an empty
// recording holds no events.
func TestTraceEventsExactLength(t *testing.T) {
	tr, err := Cached("crc32", 0.02)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Events) == 0 || cap(tr.Events) != len(tr.Events) {
		t.Errorf("Cached crc32@0.02: len %d, cap %d", len(tr.Events), cap(tr.Events))
	}
	empty := NewMem().Finish("empty", 0)
	if len(empty.Events) != 0 || cap(empty.Events) != 0 {
		t.Errorf("empty trace: len %d, cap %d", len(empty.Events), cap(empty.Events))
	}
}
