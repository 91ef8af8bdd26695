package predictor

import (
	"testing"

	"edbp/internal/cache"
	"edbp/internal/xrand"
)

// testEnv builds a small cache plus a gate hook that records gatings.
func testEnv(t *testing.T, ways int) (Env, *cache.Cache, *[]int) {
	t.Helper()
	c, err := cache.New(cache.Config{
		SizeBytes: 16 * ways * 8, BlockBytes: 16, Ways: ways,
		Policy: cache.LRU, Power: cache.GateInvalid,
	})
	if err != nil {
		t.Fatal(err)
	}
	var gated []int
	env := Env{
		Cache: c,
		GateBlock: func(set, way int) {
			if _, ok := c.Gate(set, way); ok {
				gated = append(gated, set*ways+way)
			}
		},
		ClockHz: 25e6,
	}
	return env, c, &gated
}

func TestNoneIsInert(t *testing.T) {
	var n None
	n.Attach(Env{})
	n.AfterAccess(cache.AccessResult{})
	n.Tick(1e6)
	n.OnVoltage(0)
	n.OnCheckpoint()
	n.OnReboot()
	if n.Name() != "none" {
		t.Fatal("name")
	}
}

func TestDecayGatesIdleBlock(t *testing.T) {
	env, c, gated := testEnv(t, 4)
	d, err := NewDecay(DecayConfig{Interval: 100, CounterMax: 2, MinInterval: 100, MaxInterval: 1000})
	if err != nil {
		t.Fatal(err)
	}
	d.Attach(env)

	res := c.Access(0x0, false)
	d.AfterAccess(res)
	// Idle for CounterMax+1 = 3 global ticks: the block decays.
	d.Tick(300)
	if len(*gated) != 1 {
		t.Fatalf("gated %d blocks, want 1", len(*gated))
	}
	if c.Block(res.Set, res.Way).Live() {
		t.Fatal("decayed block still live")
	}
}

func TestDecayAccessResetsCounter(t *testing.T) {
	env, c, gated := testEnv(t, 4)
	d, _ := NewDecay(DecayConfig{Interval: 100, CounterMax: 2, MinInterval: 100, MaxInterval: 1000})
	d.Attach(env)

	res := c.Access(0x0, false)
	d.AfterAccess(res)
	for i := 0; i < 10; i++ {
		d.Tick(150) // 1.5 intervals
		r := c.Access(0x0, false)
		d.AfterAccess(r)
		if !r.Hit {
			t.Fatal("kept-hot block must keep hitting")
		}
	}
	if len(*gated) != 0 {
		t.Fatal("hot block decayed despite accesses")
	}
}

func TestDecayCleanOnlySkipsDirty(t *testing.T) {
	env, c, gated := testEnv(t, 4)
	d, _ := NewDecay(DecayConfig{Interval: 100, CounterMax: 1, MinInterval: 100, MaxInterval: 1000, CleanOnly: true})
	d.Attach(env)
	d.AfterAccess(c.Access(0x0, true))   // dirty
	d.AfterAccess(c.Access(0x10, false)) // clean, another set
	d.Tick(500)
	if len(*gated) != 1 {
		t.Fatalf("gated %d blocks, want only the clean one", len(*gated))
	}
}

func TestDecayPersistCounters(t *testing.T) {
	mk := func(persist bool) (*Decay, Env, *cache.Cache, *[]int) {
		env, c, gated := testEnv(t, 4)
		d, _ := NewDecay(DecayConfig{Interval: 100, CounterMax: 2, MinInterval: 100, MaxInterval: 1000, PersistCounters: persist})
		d.Attach(env)
		return d, env, c, gated
	}

	// Volatile: idleness accrued before the outage is forgotten.
	d, _, c, gated := mk(false)
	d.AfterAccess(c.Access(0x0, true))
	d.Tick(200) // 2 ticks: counter at max, one tick from gating
	d.OnReboot()
	d.Tick(200) // only 2 more ticks: still not enough after the reset
	if len(*gated) != 0 {
		t.Fatal("volatile counters must reset at reboot")
	}

	// Persistent: the same sequence gates.
	d2, _, c2, gated2 := mk(true)
	d2.AfterAccess(c2.Access(0x0, true))
	d2.Tick(200)
	d2.OnReboot()
	d2.Tick(200)
	if len(*gated2) != 1 {
		t.Fatal("persistent counters must survive reboot and gate")
	}
}

func TestDecayAdaptWidensOnWrongKills(t *testing.T) {
	env, c, _ := testEnv(t, 4)
	d, _ := NewDecay(DecayConfig{Interval: 100, CounterMax: 1, Adaptive: true, MinInterval: 100, MaxInterval: 1 << 20})
	d.Attach(env)
	before := d.Interval()
	// Generate decays and wrong-kill feedback: touch, let decay, re-touch.
	for i := 0; i < 200; i++ {
		r := c.Access(uint64(i%8)*16, false)
		d.AfterAccess(r)
		d.Tick(250)
		// Re-demanding gated blocks produces WrongKill results.
		r2 := c.Access(uint64(i%8)*16, false)
		d.AfterAccess(r2)
	}
	if !(d.Interval() > before) {
		t.Fatalf("interval did not widen under wrong kills: %d", d.Interval())
	}
}

func TestDecayConfigValidation(t *testing.T) {
	if _, err := NewDecay(DecayConfig{Interval: 0, CounterMax: 3}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewDecay(DecayConfig{Interval: 100, CounterMax: 0}); err == nil {
		t.Error("zero counter max accepted")
	}
	if _, err := NewDecay(DecayConfig{Interval: 100, CounterMax: 1, Adaptive: true, MinInterval: 200, MaxInterval: 100}); err == nil {
		t.Error("inverted adaptive bounds accepted")
	}
	if _, err := NewDecay(DefaultDecay()); err != nil {
		t.Errorf("default rejected: %v", err)
	}
}

func TestAMCGatesAndAdapts(t *testing.T) {
	env, c, gated := testEnv(t, 4)
	a, err := NewAMC(AMCConfig{Interval: 1000, Window: 100000, TargetLow: 0.01, TargetHigh: 0.1, MinInterval: 100, MaxInterval: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	a.Attach(env)
	a.AfterAccess(c.Access(0x0, false))
	a.Tick(5000)
	if len(*gated) == 0 {
		t.Fatal("AMC did not gate an idle block")
	}
}

func TestAMCConfigValidation(t *testing.T) {
	if _, err := NewAMC(AMCConfig{Interval: 0, Window: 1}); err == nil {
		t.Error("zero interval accepted")
	}
	if _, err := NewAMC(AMCConfig{Interval: 1, Window: 1, TargetLow: 0.5, TargetHigh: 0.1}); err == nil {
		t.Error("inverted band accepted")
	}
	if _, err := NewAMC(DefaultAMC()); err != nil {
		t.Errorf("default rejected: %v", err)
	}
}

func TestSDBPKeepLogic(t *testing.T) {
	env, c, _ := testEnv(t, 4)
	p, err := NewSDBP(DefaultSDBP())
	if err != nil {
		t.Fatal(err)
	}
	p.Attach(env)

	rd := c.Access(0x0, true) // dirty
	dirty := c.Block(rd.Set, rd.Way)
	if !p.Keep(rd.Set, rd.Way, dirty) {
		t.Fatal("dirty blocks must always be checkpointed")
	}

	rc := c.Access(0x100, false) // clean, no history
	cleanB := c.Block(rc.Set, rc.Way)
	if p.Keep(rc.Set, rc.Way, cleanB) {
		t.Fatal("clean block with no reuse history must not be kept")
	}

	// Teach the table that this block historically saw 5 uses; with only
	// 1 use so far it is predicted live.
	p.Train(0x100, 5)
	if !p.Keep(rc.Set, rc.Way, cleanB) {
		t.Fatal("clean block below its historic use count must be kept")
	}
	// At or past the historic count it is predicted dead.
	p.Train(0x100, 1)
	if p.Keep(rc.Set, rc.Way, cleanB) {
		t.Fatal("clean block at its historic use count must be dropped")
	}
}

func TestSDBPTrainsOnEviction(t *testing.T) {
	env, c, _ := testEnv(t, 4)
	p, _ := NewSDBP(DefaultSDBP())
	p.Attach(env)
	// Fill one set beyond capacity so an eviction trains the table.
	sets := c.Sets()
	for tag := 0; tag < 5; tag++ {
		r := c.Access(uint64(tag)*uint64(sets)*16, false)
		p.AfterAccess(r)
	}
	// Tag 0 was evicted with 1 use; re-fill it and ask Keep: 1 use ≥
	// historic 1 → dead.
	r := c.Access(0, false)
	if p.Keep(r.Set, r.Way, c.Block(r.Set, r.Way)) {
		t.Fatal("single-use history must predict dead at one use")
	}
}

func TestSDBPValidation(t *testing.T) {
	if _, err := NewSDBP(SDBPConfig{TableBits: 0}); err == nil {
		t.Error("zero table accepted")
	}
	if _, err := NewSDBP(SDBPConfig{TableBits: 30}); err == nil {
		t.Error("oversized table accepted")
	}
}

func TestCombineFansOut(t *testing.T) {
	env, c, gated := testEnv(t, 4)
	d1, _ := NewDecay(DecayConfig{Interval: 100, CounterMax: 1, MinInterval: 100, MaxInterval: 1000})
	d2, _ := NewDecay(DecayConfig{Interval: 200, CounterMax: 1, MinInterval: 200, MaxInterval: 1000})
	comb := NewCombine(d1, d2)
	if comb.Name() != "decay+decay" {
		t.Fatalf("combined name = %q", comb.Name())
	}
	comb.Attach(env)
	comb.AfterAccess(c.Access(0x0, false))
	comb.Tick(250)
	if len(*gated) == 0 {
		t.Fatal("combined predictor did not fan out Tick")
	}
	if len(comb.Parts()) != 2 {
		t.Fatal("parts not exposed")
	}
	comb.OnVoltage(3.3)
	comb.OnCheckpoint()
	comb.OnReboot()
}

// sweepCounter is a Sink that counts predictor sweeps.
type sweepCounter struct{ n int }

func (s *sweepCounter) PredictorSweep(int, uint64) { s.n++ }

// TestAMCSweepSchedule drives AMC with seeded tick lengths (zero, below,
// at and above the sweep period, and across window resets whose
// adaptation doubles or halves the interval) and checks that it sweeps on
// exactly the ticks where the window passes a multiple of the period
// (interval/8 + 1): windowCycles%period < cycles, with windowCycles read
// after the tick.
func TestAMCSweepSchedule(t *testing.T) {
	env, _, _ := testEnv(t, 4)
	sink := &sweepCounter{}
	env.Trace = sink
	cfg := AMCConfig{Interval: 800, Window: 20000, TargetLow: 0.01, TargetHigh: 0.1, MinInterval: 100, MaxInterval: 1 << 14}
	a, err := NewAMC(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a.Attach(env)
	rng := xrand.New(7)
	var window uint64
	intervals := map[uint64]bool{}
	for i := 0; i < 20000; i++ {
		// Misses, all or none of them sleep misses, steer the adaptation
		// up in some windows and down in others.
		if i%500 == 0 {
			wrong := (i/5000)%2 == 0
			for k := 0; k < 40; k++ {
				a.AfterAccess(cache.AccessResult{WrongKill: wrong})
			}
		}
		var cycles uint64
		switch r := rng.Intn(10); {
		case r == 0:
			cycles = 0
		case r < 8:
			cycles = uint64(rng.Intn(40))
		default:
			cycles = uint64(rng.Intn(3000))
		}
		period := a.Interval()/8 + 1
		window += cycles
		want := sink.n
		if window%period < cycles {
			want++
		}
		if window >= cfg.Window {
			window = 0
		}
		a.Tick(cycles)
		if sink.n != want {
			t.Fatalf("tick %d (%d cycles, period %d): %d sweeps, want %d", i, cycles, period, sink.n, want)
		}
		intervals[a.Interval()] = true
	}
	if len(intervals) < 3 {
		t.Errorf("the interval took %d values; the adaptation was not exercised", len(intervals))
	}
}
