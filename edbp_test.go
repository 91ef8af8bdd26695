package edbp

import (
	"bytes"
	"context"
	"errors"
	"math"
	"strings"
	"testing"

	"edbp/internal/experiments"
	"edbp/internal/sim"
	"edbp/internal/store"
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

// TestConfigErrors: every config the simulator cannot run, a scheme
// outside the enum and a capacitance that is not a positive finite µF
// value included, is a *sim.ConfigError naming its field, never a panic
// or a silent default.
func TestConfigErrors(t *testing.T) {
	for _, tc := range []struct {
		c     Config
		field string
	}{
		{Config{}, "App"},
		{Config{App: "nope"}, "App"},
		{Config{App: "crc32", EnergyTrace: "wind"}, "TraceKind"},
		{Config{App: "crc32", Policy: "MRU"}, "DCachePolicy"},
		{Config{App: "crc32", NVM: "DRAM"}, "MemTech"},
		{Config{App: "crc32", Scheme: Scheme(99)}, "Scheme"},
		{Config{App: "crc32", CapacitorUF: math.NaN()}, "Capacitor"},
		{Config{App: "crc32", CapacitorUF: math.Inf(1)}, "Capacitor"},
		{Config{App: "crc32", CapacitorUF: math.Inf(-1)}, "Capacitor"},
		{Config{App: "crc32", CapacitorUF: -0.47}, "Capacitor"},
	} {
		_, err := Run(tc.c)
		var ce *sim.ConfigError
		if !errors.As(err, &ce) || ce.Field != tc.field {
			t.Errorf("%+v: error %v, want a %s *sim.ConfigError", tc.c, err, tc.field)
		}
	}
}

// TestOneRunIdentity: the library, a run request's knobs and the
// experiments' base config build one Config for one run, so runs made
// through sim.Knobs alone rebuild Figure 6 from the store byte for byte.
func TestOneRunIdentity(t *testing.T) {
	lib, err := Config{App: "crc32", Scheme: EDBP, Scale: 0.05}.internal()
	if err != nil {
		t.Fatal(err)
	}
	knobs, err := sim.Knobs{App: "crc32", Scheme: "edbp", Scale: 0.05}.Config()
	if err != nil {
		t.Fatal(err)
	}
	base := sim.Default("crc32", sim.EDBP)
	base.Scale = 0.05
	if h, hl, hk := sim.ConfigHash(base), sim.ConfigHash(lib), sim.ConfigHash(knobs); hl != h || hk != h {
		t.Errorf("ConfigHash: sim.Default %s, edbp.Config %s, sim.Knobs %s", h, hl, hk)
	}

	s, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, scheme := range []string{"decay", "edbp", "decay+edbp"} {
		cfg, err := sim.Knobs{App: "crc32", Scheme: scheme, Scale: 0.05}.Config()
		if err != nil {
			t.Fatal(err)
		}
		res, err := sim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.PutResult(store.KeyFor(cfg, "c1"), res, 1); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	opts := experiments.Options{Apps: []string{"crc32"}, Scale: 0.05, Seeds: 1}
	stored, err := s.Reconstruct(ctx, "fig6", opts)
	if err != nil {
		t.Fatal(err)
	}
	live, err := experiments.Figure6(ctx, opts)
	if err != nil {
		t.Fatal(err)
	}
	var want, got bytes.Buffer
	live.Print(&want)
	stored.Print(&got)
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Errorf("Figure 6 from knob-built runs:\n%s\nlive:\n%s", got.String(), want.String())
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
	bigCap, err := Run(Config{App: "sha", Scale: 0.1, CapacitorUF: 47})
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
