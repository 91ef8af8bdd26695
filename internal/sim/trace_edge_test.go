package sim

import (
	"testing"

	"edbp/internal/workload"
)

// synthetic builds a hand-written trace exercising trace-replay edges the
// recorded kernels may not hit in small tests.
func synthetic(t *testing.T, build func(m *workload.Mem)) *workload.Trace {
	t.Helper()
	m := workload.NewMem()
	build(m)
	return m.Finish("synthetic", 0)
}

func runTrace(t *testing.T, tr *workload.Trace, scheme Scheme) *Result {
	t.Helper()
	cfg := Default("synthetic", scheme)
	cfg.Trace = tr
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestTickOnlyTrace(t *testing.T) {
	tr := synthetic(t, func(m *workload.Mem) {
		m.Tick(100000)
	})
	r := runTrace(t, tr, EDBP)
	if r.Instructions != 100000 {
		t.Fatalf("instructions = %d", r.Instructions)
	}
	if r.DCacheStats.Accesses() != 0 {
		t.Fatal("tick-only trace touched the data cache")
	}
	if r.ICacheStats.Accesses() == 0 {
		t.Fatal("instructions executed without any instruction fetches")
	}
}

func TestDeepNesting(t *testing.T) {
	tr := synthetic(t, func(m *workload.Mem) {
		regions := make([]workload.Region, 8)
		for i := range regions {
			regions[i] = m.NewRegion("r", 64)
		}
		var rec func(d int)
		rec = func(d int) {
			if d == len(regions) {
				m.Tick(64)
				return
			}
			m.Enter(regions[d])
			m.Tick(4)
			rec(d + 1)
			m.Leave()
		}
		for i := 0; i < 50; i++ {
			rec(0)
			buf := m.Alloc(64)
			m.Store32(buf, uint32(i))
		}
	})
	r := runTrace(t, tr, DecayEDBP)
	if r.Instructions != tr.Instructions {
		t.Fatalf("instructions %d != trace %d", r.Instructions, tr.Instructions)
	}
}

func TestSingleAccessTrace(t *testing.T) {
	tr := synthetic(t, func(m *workload.Mem) {
		a := m.Alloc(16)
		m.Store32(a, 1)
	})
	r := runTrace(t, tr, Baseline)
	if r.DCacheStats.Misses != 1 {
		t.Fatalf("one store should be one cold miss, got %+v", r.DCacheStats)
	}
}

func TestWriteHeavyTraceCheckpointsDirtyBlocks(t *testing.T) {
	tr := synthetic(t, func(m *workload.Mem) {
		// Dirty the whole cache and then burn cycles so an outage happens
		// while everything is dirty.
		buf := m.Alloc(8192)
		for pass := 0; pass < 20; pass++ {
			for i := 0; i < 4096; i += 4 {
				m.Store32(buf+uint32(i), uint32(i))
				m.Tick(20)
			}
		}
	})
	r := runTrace(t, tr, Baseline)
	if r.Checkpoints == 0 {
		t.Skip("energy trace kept the system alive; nothing to assert")
	}
	if r.CheckpointBlocks == 0 {
		t.Fatal("outages occurred with a dirty cache but nothing was checkpointed")
	}
	if r.RestoredBlocks != r.CheckpointBlocks {
		t.Fatalf("restored %d != checkpointed %d", r.RestoredBlocks, r.CheckpointBlocks)
	}
}

// TestReadOnlyTraceNeverWritesBack: clean workloads must never pay
// writebacks, under any scheme.
func TestReadOnlyTraceNeverWritesBack(t *testing.T) {
	tr := synthetic(t, func(m *workload.Mem) {
		buf := m.Alloc(16384)
		for pass := 0; pass < 5; pass++ {
			for i := 0; i < 16384; i += 64 {
				_ = m.Load32(buf + uint32(i))
				m.Tick(10)
			}
		}
	})
	for _, s := range []Scheme{Baseline, Decay, EDBP, DecayEDBP} {
		r := runTrace(t, tr, s)
		// The single Store is absent entirely, so no writebacks anywhere.
		if r.DCacheStats.Writebacks != 0 {
			t.Fatalf("%v: %d writebacks in a read-only workload", s, r.DCacheStats.Writebacks)
		}
	}
}

// fetchCounts replays a synthetic trace under Baseline and reports its
// instruction count and I-cache accesses and misses. The replay loop
// alone walks the PC: these cases pin where each instruction fetch falls.
func fetchCounts(t *testing.T, build func(m *workload.Mem)) (instrs, accesses, misses uint64) {
	t.Helper()
	r := runTrace(t, synthetic(t, build), Baseline)
	return r.Instructions, r.ICacheStats.Accesses(), r.ICacheStats.Misses
}

// TestFetchPerBlockBoundary: four instructions fit in one 16 B block and
// cost one fetch; the fifth crosses into the next block.
func TestFetchPerBlockBoundary(t *testing.T) {
	for _, tc := range []struct{ n, accesses uint64 }{{4, 1}, {5, 2}} {
		instrs, acc, _ := fetchCounts(t, func(m *workload.Mem) { m.Tick(int(tc.n)) })
		if instrs != tc.n || acc != tc.accesses {
			t.Errorf("Tick(%d): %d instructions, %d I-cache accesses; want %d, %d",
				tc.n, instrs, acc, tc.n, tc.accesses)
		}
	}
}

// TestTopLevelWraps: top-level code wraps within its implicit 1 KiB
// region, so 4096 instructions fetch 1024 blocks but miss only on the
// region's 64 distinct ones.
func TestTopLevelWraps(t *testing.T) {
	instrs, acc, miss := fetchCounts(t, func(m *workload.Mem) { m.Tick(4096) })
	if instrs != 4096 || acc != 1024 || miss != 64 {
		t.Fatalf("Tick(4096): %d instructions, %d accesses, %d misses; want 4096, 1024, 64",
			instrs, acc, miss)
	}
}

// TestRegionWrap: a 64 B region (four blocks) loops 40 times at 16
// instructions a pass, fetching its four blocks per pass. The call is one
// instruction in the caller's block, the return one in the region's first
// block (the last pass wrapped there), and execution resumes after the
// call: 2+1+640+1+3 instructions, one fetch before the call, 160 inside,
// one for the return and two after it. Only the region's four blocks and
// two top-level blocks ever miss.
func TestRegionWrap(t *testing.T) {
	instrs, acc, miss := fetchCounts(t, func(m *workload.Mem) {
		r := m.NewRegion("hot", 64)
		m.Tick(2)
		m.Enter(r)
		m.Tick(640)
		m.Leave()
		m.Tick(3)
	})
	if instrs != 647 || acc != 164 || miss != 6 {
		t.Fatalf("%d instructions, %d accesses, %d misses; want 647, 164, 6", instrs, acc, miss)
	}
}
