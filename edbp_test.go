package edbp

import (
	"strings"
	"testing"
)

func TestApps(t *testing.T) {
	apps := Apps()
	if len(apps) != 20 {
		t.Fatalf("Apps() returned %d names, want 20", len(apps))
	}
}

func TestRunBaselineAndEDBP(t *testing.T) {
	base, err := Run(Config{App: "crc32", Scheme: Baseline, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	with, err := Run(Config{App: "crc32", Scheme: EDBP, Scale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if base.WallSeconds <= 0 || with.WallSeconds <= 0 {
		t.Fatal("no simulated time")
	}
	if with.SpeedupOver(base) <= 0 || with.EnergyRatioOver(base) <= 0 {
		t.Fatal("comparison helpers returned nonsense")
	}
	if with.Energy.DataCacheLeak >= base.Energy.DataCacheLeak {
		t.Fatal("EDBP must reduce data cache leakage")
	}
	if with.Prediction.TP == 0 {
		t.Fatal("EDBP classified no true positives on RFHome")
	}
	if base.PowerCycles == 0 {
		t.Fatal("RFHome run saw no power cycles")
	}
}

func TestRunAllSharesTrace(t *testing.T) {
	rs, err := RunAll(Config{App: "sha", Scale: 0.1}, Baseline, CacheDecay, EDBP, CacheDecayEDBP)
	if err != nil {
		t.Fatal(err)
	}
	if len(rs) != 4 {
		t.Fatalf("got %d results", len(rs))
	}
	for i, r := range rs {
		if r.Instructions != rs[0].Instructions {
			t.Fatalf("result %d executed %d instructions, first executed %d — traces differ",
				i, r.Instructions, rs[0].Instructions)
		}
	}
	if rs[0].Scheme != Baseline || rs[3].Scheme != CacheDecayEDBP {
		t.Fatal("scheme labels wrong")
	}
}

func TestRunAllNeedsSchemes(t *testing.T) {
	if _, err := RunAll(Config{App: "sha"}); err == nil {
		t.Fatal("empty scheme list accepted")
	}
}

// TestRunAllRejectsBeforeRecording: RunAll validates like Run before it
// records the kernel (crc32 at scale 256 would take about 8 GB).
func TestRunAllRejectsBeforeRecording(t *testing.T) {
	_, err := RunAll(Config{App: "crc32", Scale: 256}, Baseline, EDBP)
	if err == nil || !strings.Contains(err.Error(), "Scale") {
		t.Fatalf("RunAll at scale 256: %v, want a Scale config error", err)
	}
}

func TestConfigErrors(t *testing.T) {
	cases := []Config{
		{},                                  // no app
		{App: "nope"},                       // unknown app
		{App: "crc32", EnergyTrace: "wind"}, // unknown trace
		{App: "crc32", Policy: "MRU"},       // unknown policy
		{App: "crc32", NVM: "DRAM"},         // unknown tech
	}
	for i, c := range cases {
		if _, err := Run(c); err == nil {
			t.Errorf("case %d: invalid config accepted", i)
		}
	}
}

func TestZombieProfileExposed(t *testing.T) {
	r, err := Run(Config{App: "crc32", Scheme: Baseline, Scale: 0.3, ZombieProfile: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(r.ZombieProfile) == 0 {
		t.Fatal("zombie profile missing")
	}
	for _, p := range r.ZombieProfile {
		if p.ZombieRatio < 0 || p.ZombieRatio > 1 {
			t.Fatalf("ratio %g out of range", p.ZombieRatio)
		}
	}
}

func TestKnobsReachSimulator(t *testing.T) {
	small, err := Run(Config{App: "sha", Scale: 0.1, CacheBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	large, err := Run(Config{App: "sha", Scale: 0.1, CacheBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	if !(small.CacheMissRate > large.CacheMissRate) {
		t.Fatalf("256 B cache (%.3f) must miss more than 4 kB (%.3f)",
			small.CacheMissRate, large.CacheMissRate)
	}
	bigCap, err := Run(Config{App: "sha", Scale: 0.1, CapacitorFarads: 47e-6})
	if err != nil {
		t.Fatal(err)
	}
	if !(bigCap.PowerCycles < large.PowerCycles) {
		t.Fatal("a 47 µF capacitor must cut power cycles")
	}
}

func TestSchemeStrings(t *testing.T) {
	for _, s := range Schemes {
		if s.String() == "" {
			t.Errorf("scheme %d has no name", int(s))
		}
	}
}

func TestIdealScheme(t *testing.T) {
	rs, err := RunAll(Config{App: "qsort", Scale: 0.15}, Baseline, Ideal)
	if err != nil {
		t.Fatal(err)
	}
	if !(rs[1].Energy.Total < rs[0].Energy.Total) {
		t.Fatal("the oracle must consume less than the baseline")
	}
}
