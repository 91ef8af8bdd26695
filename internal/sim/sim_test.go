package sim

import (
	"math"
	"strings"
	"testing"

	"edbp/internal/energy"
	"edbp/internal/workload"
)

// testTrace records one small workload shared by the tests.
var testTrace = func() *workload.Trace {
	app, err := workload.ByName("crc32")
	if err != nil {
		panic(err)
	}
	return app.Record(0.1)
}()

func testConfig(scheme Scheme) Config {
	cfg := Default("crc32", scheme)
	cfg.Trace = testTrace
	return cfg
}

func run(t *testing.T, cfg Config) *Result {
	t.Helper()
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestBaselineRunBasics(t *testing.T) {
	r := run(t, testConfig(Baseline))
	if r.Truncated {
		t.Fatal("run truncated")
	}
	if r.Instructions != testTrace.Instructions {
		t.Fatalf("executed %d instructions, trace has %d", r.Instructions, testTrace.Instructions)
	}
	if r.WallTime <= 0 || r.ActiveTime <= 0 {
		t.Fatal("no time elapsed")
	}
	if math.Abs(r.WallTime-(r.ActiveTime+r.OffTime)) > 1e-9 {
		t.Fatalf("wall %g != active %g + off %g", r.WallTime, r.ActiveTime, r.OffTime)
	}
	if r.PowerCycles == 0 {
		t.Fatal("RFHome must cause power cycles")
	}
	if r.Energy.Total() <= 0 {
		t.Fatal("no energy consumed")
	}
	if r.DCacheStats.Accesses() != testTrace.MemOps() {
		t.Fatalf("dcache accesses %d != trace mem ops %d", r.DCacheStats.Accesses(), testTrace.MemOps())
	}
}

func TestDeterminism(t *testing.T) {
	a := run(t, testConfig(EDBP))
	b := run(t, testConfig(EDBP))
	if a.WallTime != b.WallTime || a.Energy.Total() != b.Energy.Total() ||
		a.PowerCycles != b.PowerCycles || a.Prediction != b.Prediction {
		t.Fatal("identical configurations produced different results")
	}
}

func TestEnergyBucketsPositive(t *testing.T) {
	r := run(t, testConfig(DecayEDBP))
	e := r.Energy
	for name, v := range map[string]float64{
		"dcache dyn": e.DCacheDynamic, "dcache leak": e.DCacheLeak,
		"icache dyn": e.ICacheDynamic, "icache leak": e.ICacheLeak,
		"memory": e.Memory, "checkpoint": e.Checkpoint, "mcu": e.MCU,
	} {
		if v <= 0 {
			t.Errorf("%s bucket = %g, want positive", name, v)
		}
	}
}

// TestInfiniteEnergyDisablesEDBP pins the paper's Section VIII limitation:
// with an unlimited supply there are no outages, hence no zombies, and
// EDBP never activates.
func TestInfiniteEnergyDisablesEDBP(t *testing.T) {
	cfg := testConfig(EDBP)
	cfg.Source = energy.ConstantSource{P: 1.0} // one full watt
	r := run(t, cfg)
	if r.PowerCycles != 0 {
		t.Fatalf("constant 1 W still produced %d power cycles", r.PowerCycles)
	}
	if r.EDBP == nil {
		t.Fatal("EDBP stats missing")
	}
	if r.EDBP.Gated != 0 {
		t.Fatalf("EDBP gated %d blocks with no outages in sight", r.EDBP.Gated)
	}
	if r.Prediction.ZombieFN != 0 {
		t.Fatal("zombies cannot exist without outages")
	}
}

func TestGatingSchemesReduceLeak(t *testing.T) {
	base := run(t, testConfig(Baseline))
	for _, s := range []Scheme{Decay, EDBP, DecayEDBP, Ideal} {
		r := run(t, testConfig(s))
		if !(r.Energy.DCacheLeak < base.Energy.DCacheLeak) {
			t.Errorf("%v: leak %g not below baseline %g", s, r.Energy.DCacheLeak, base.Energy.DCacheLeak)
		}
	}
}

func TestLeakFactorMagic(t *testing.T) {
	cfg := testConfig(Baseline)
	cfg.DCacheLeakFactor = 0.2
	magic := run(t, cfg)
	base := run(t, testConfig(Baseline))
	ratio := magic.Energy.DCacheLeak / base.Energy.DCacheLeak
	// The paper's magic run leaves the hit rate untouched; in our closed
	// loop the shifted outage times move a few cold misses around, so
	// assert near-equality instead of identity.
	mm, bm := magic.DCacheStats.MissRate(), base.DCacheStats.MissRate()
	if math.Abs(mm-bm) > 0.2*bm {
		t.Fatalf("magic leak reduction changed the miss rate: %g vs %g", mm, bm)
	}
	if ratio > 0.35 {
		t.Fatalf("leak ratio = %g, want ≈0.2 (active-time shifts allowed)", ratio)
	}
}

func TestEDBPStatsPopulated(t *testing.T) {
	r := run(t, testConfig(EDBP))
	if r.EDBP == nil || r.EDBP.Gated == 0 {
		t.Fatal("EDBP ran on RFHome but gated nothing")
	}
	if r.GatedBlockSeconds <= 0 {
		t.Fatal("no gated block-time accumulated")
	}
}

func TestZombieProfileCollection(t *testing.T) {
	app, err := workload.ByName("crc32")
	if err != nil {
		t.Fatal(err)
	}
	cfg := testConfig(Baseline)
	cfg.Trace = app.Record(0.4) // enough power cycles for a stable profile
	cfg.CollectZombieProfile = true
	r := run(t, cfg)
	if r.ZombieProfile == nil {
		t.Fatal("profile not collected")
	}
	pts := r.ZombieProfile.Points()
	if len(pts) == 0 {
		t.Fatal("profile empty")
	}
	for _, p := range pts {
		if p.ZombieRatio < 0 || p.ZombieRatio > 1 {
			t.Fatalf("zombie ratio %g out of [0,1]", p.ZombieRatio)
		}
	}
	// The Figure 4 *shape* (ratio rising toward the outage) needs the
	// statistics of all twenty apps merged; internal/experiments owns that
	// assertion. Here only the invariants above are checked.
}

func TestIdealBeatsBaseline(t *testing.T) {
	base := run(t, testConfig(Baseline))
	ideal := run(t, testConfig(Ideal))
	if !(ideal.Energy.Total() < base.Energy.Total()) {
		t.Fatalf("ideal energy %g not below baseline %g", ideal.Energy.Total(), base.Energy.Total())
	}
	if !(ideal.WallTime < base.WallTime) {
		t.Fatalf("ideal wall %g not below baseline %g", ideal.WallTime, base.WallTime)
	}
}

func TestSRAMICacheVariant(t *testing.T) {
	cfg := testConfig(Baseline)
	cfg.ICacheSRAM = true
	r := run(t, cfg)
	base := run(t, testConfig(Baseline))
	// The SRAM I-cache is volatile: outages wipe it, so it must miss more
	// than the nonvolatile ReRAM I-cache.
	if !(r.ICacheStats.Misses > base.ICacheStats.Misses) {
		t.Fatalf("volatile icache misses %d not above nonvolatile %d",
			r.ICacheStats.Misses, base.ICacheStats.Misses)
	}
}

func TestPredictICacheRequiresSRAM(t *testing.T) {
	cfg := testConfig(EDBP)
	cfg.PredictICache = true
	cfg.ICacheSRAM = false
	if _, err := Run(cfg); err == nil {
		t.Fatal("PredictICache without ICacheSRAM accepted")
	}
}

func TestPredictICacheRuns(t *testing.T) {
	cfg := testConfig(DecayEDBP)
	cfg.ICacheSRAM = true
	cfg.PredictICache = true
	r := run(t, cfg)
	only := runHelper(t, func(c *Config) { c.ICacheSRAM = true })
	if !(r.Energy.ICacheLeak < only.Energy.ICacheLeak) {
		t.Fatalf("predicting the icache must cut its leak: %g !< %g",
			r.Energy.ICacheLeak, only.Energy.ICacheLeak)
	}
}

func runHelper(t *testing.T, mut func(*Config)) *Result {
	t.Helper()
	cfg := testConfig(DecayEDBP)
	mut(&cfg)
	return run(t, cfg)
}

func TestTruncationOnStarvation(t *testing.T) {
	cfg := testConfig(Baseline)
	cfg.Source = energy.ConstantSource{P: 1e-6} // 1 µW: hopeless
	cfg.MaxSimTime = 0.05
	r := run(t, cfg)
	if !r.Truncated {
		t.Fatal("starved run not truncated")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Run(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	cfg := testConfig(Baseline)
	cfg.Monitor.VCkpt = 2.0 // below VMin
	if _, err := Run(cfg); err == nil {
		t.Error("bad monitor config accepted")
	}
}

func TestUnknownAppFails(t *testing.T) {
	cfg := Default("nosuchapp", Baseline)
	if _, err := Run(cfg); err == nil {
		t.Fatal("unknown app accepted")
	}
}

func TestSchemeString(t *testing.T) {
	for _, s := range Schemes {
		if s.String() == "" {
			t.Errorf("scheme %d has empty name", int(s))
		}
	}
	if Scheme(99).String() == "" {
		t.Error("unknown scheme must still stringify")
	}
}

// TestParseScheme: every alias edbpsim and edbpd accepted maps to the
// same scheme, case does not matter, every String() form parses back
// (edbpd returns those names in its Result JSON), and anything else is
// an error.
func TestParseScheme(t *testing.T) {
	for want, names := range map[Scheme][]string{
		Baseline:     {"baseline", "nvsramcache", "none"},
		SDBP:         {"sdbp"},
		Decay:        {"decay", "cachedecay"},
		AMC:          {"amc"},
		EDBP:         {"edbp"},
		DecayEDBP:    {"decay+edbp", "cachedecay+edbp", "combined"},
		AMCEDBP:      {"amc+edbp"},
		Counting:     {"counting"},
		RefTrace:     {"reftrace"},
		CountingEDBP: {"counting+edbp"},
		RefTraceEDBP: {"reftrace+edbp"},
		Ideal:        {"ideal"},
	} {
		for _, name := range names {
			for _, n := range []string{name, strings.ToUpper(name)} {
				if got, err := ParseScheme(n); err != nil || got != want {
					t.Errorf("ParseScheme(%q) = %v, %v; want %v", n, got, err, want)
				}
			}
		}
	}
	for _, s := range Schemes {
		if got, err := ParseScheme(s.String()); err != nil || got != s {
			t.Errorf("ParseScheme(%q) = %v, %v; want %v", s.String(), got, err, s)
		}
	}
	for _, name := range []string{"", "bogus", "edbp+decay", "Scheme(99)", " edbp"} {
		if got, err := ParseScheme(name); err == nil {
			t.Errorf("ParseScheme(%q) = %v, want an error", name, got)
		}
	}
}

// TestEnergyConservation checks the ledger: everything the buckets record
// as consumed must have been drained from the capacitor.
func TestEnergyConservation(t *testing.T) {
	cfg := testConfig(DecayEDBP)
	e, err := newEngine(cfg2norm(t, cfg), testTrace, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.run()
	if err != nil {
		t.Fatal(err)
	}
	_, drained, _, _ := e.cap.Totals()
	consumed := res.Energy.Total() - res.Energy.CapacitorLeak
	if math.Abs(drained-consumed)/consumed > 0.01 {
		t.Fatalf("capacitor drained %g J but buckets account %g J", drained, consumed)
	}
}

func cfg2norm(t *testing.T, cfg Config) Config {
	t.Helper()
	n, err := cfg.normalize()
	if err != nil {
		t.Fatal(err)
	}
	return n
}

func TestOutageTimesRecorded(t *testing.T) {
	r := run(t, testConfig(Baseline))
	if len(r.OutageTimes) != r.Checkpoints && len(r.OutageTimes) != 4096 {
		t.Fatalf("recorded %d outage times for %d checkpoints", len(r.OutageTimes), r.Checkpoints)
	}
	for i := 1; i < len(r.OutageTimes); i++ {
		if r.OutageTimes[i] <= r.OutageTimes[i-1] {
			t.Fatal("outage times must be strictly increasing")
		}
	}
}

func TestSensitivityCapacitorSize(t *testing.T) {
	// Figure 16's premise: a much larger capacitor means fewer outages.
	small := run(t, testConfig(Baseline))
	cfg := testConfig(Baseline)
	cfg.Capacitor.Capacitance = 47e-6
	big := run(t, cfg)
	if !(big.PowerCycles < small.PowerCycles) {
		t.Fatalf("47 µF (%d cycles) must out-last 0.47 µF (%d cycles)",
			big.PowerCycles, small.PowerCycles)
	}
}

func TestSensitivityEnergyCondition(t *testing.T) {
	// Section VI-H6: richer sources cause fewer outages per instruction.
	rf := run(t, testConfig(Baseline))
	cfg := testConfig(Baseline)
	cfg.TraceKind = energy.Solar
	solar := run(t, cfg)
	if !(solar.PowerCycles < rf.PowerCycles) {
		t.Fatalf("solar (%d cycles) must beat RFHome (%d cycles)",
			solar.PowerCycles, rf.PowerCycles)
	}
	if !(solar.WallTime < rf.WallTime) {
		t.Fatal("solar must finish sooner than RFHome")
	}
}

// TestVoltageSampler: the sampler sees non-decreasing timestamps across
// both power states and never perturbs the run. Ideal's sampler observes
// only the reported replay pass, like its Recorder; driving it from the
// Baseline recording pass too made time restart at zero midway.
func TestVoltageSampler(t *testing.T) {
	for _, scheme := range []Scheme{Baseline, Ideal} {
		t.Run(scheme.String(), func(t *testing.T) {
			cfg := testConfig(scheme)
			var samples int
			lastT := -1.0
			sawOn, sawOff := false, false
			cfg.VoltageSampler = func(ts, v float64, on bool) {
				samples++
				if ts < lastT {
					t.Fatalf("sample %d: time went backwards: %g < %g", samples, ts, lastT)
				}
				lastT = ts
				if v < 0 || v > cfg.Capacitor.VMax+1e-9 {
					t.Fatalf("sampled voltage %g out of range", v)
				}
				if on {
					sawOn = true
				} else {
					sawOff = true
				}
			}
			r := run(t, cfg)
			if samples == 0 {
				t.Fatal("sampler never invoked")
			}
			if !sawOn || !sawOff {
				t.Fatalf("sampler must see both powered and hibernating phases (on=%v off=%v)", sawOn, sawOff)
			}
			// The sampler must not perturb the simulation.
			plain := run(t, testConfig(scheme))
			if r.WallTime != plain.WallTime || r.Energy.Total() != plain.Energy.Total() {
				t.Fatal("voltage sampling changed the simulation")
			}
		})
	}
}
