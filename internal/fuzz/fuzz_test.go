package fuzz

import (
	"bytes"
	"context"
	"reflect"
	"strings"
	"testing"
	"time"

	"edbp/internal/energy"
	"edbp/internal/obs"
	"edbp/internal/sim"
)

// starvedConfig is the fuzzer's original reproducer for the
// truncated-hibernation accounting bug (campaign seed 1, case 447): a
// ~0.66 mW constant source against a leaky 0.21 µF capacitor gives fft a
// ~6% duty cycle, so the run hits the 10 s horizon mid-hibernation.
func starvedConfig() sim.Config {
	return sim.Config{
		App:       "fft",
		Scale:     0.05,
		Source:    energy.ConstantSource{P: 0.66e-3},
		Capacitor: energy.CapacitorConfig{Capacitance: 2.07e-7, VMax: 3.86, VMin: 2.75, LeakTau: 9.76},
		Monitor:   energy.MonitorConfig{VCkpt: 3.18, VRst: 3.40},
		Scheme:    sim.AMC,

		// 512 8-byte blocks: the per-outage checkpoint sweep eats most of
		// each cycle's harvest, which is what keeps the run from finishing.
		DCacheBytes: 4096,
		DCacheWays:  8,
		BlockBytes:  8,

		MaxSimTime: fuzzMaxSimTime,
	}
}

// TestGenerateDeterministic pins the corpus derivation: the same master
// seed must reproduce byte-for-byte the same corpus, different seeds must
// diverge, and the scheme round-robin must cover all twelve schemes in
// any window of len(sim.Schemes) cases.
func TestGenerateDeterministic(t *testing.T) {
	a := Generate(Options{Seed: 7, Cases: 256})
	b := Generate(Options{Seed: 7, Cases: 256})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different corpora")
	}
	c := Generate(Options{Seed: 8, Cases: 256})
	diff := 0
	for i := range a {
		if !reflect.DeepEqual(a[i].Config, c[i].Config) {
			diff++
		}
	}
	if diff == 0 {
		t.Error("seeds 7 and 8 generated identical corpora")
	}
	seen := map[sim.Scheme]bool{}
	for _, cs := range a[:len(sim.Schemes)] {
		seen[cs.Config.Scheme] = true
	}
	if len(seen) != len(sim.Schemes) {
		t.Errorf("first %d cases cover %d schemes, want all %d", len(sim.Schemes), len(seen), len(sim.Schemes))
	}
}

// TestGenerateValidByConstruction spot-checks the structural promises the
// generator documents: ordered voltage ladders, power-of-two geometry with
// ways dividing the block count, and PredictICache only on SRAM I-caches
// under a non-Ideal scheme. (That every config is accepted by the
// simulator is proven stronger by TestCampaignAllGreen actually running
// them.)
func TestGenerateValidByConstruction(t *testing.T) {
	for _, cs := range Generate(Options{Seed: 3, Cases: 2048}) {
		cfg := cs.Config
		cap, mon := cfg.Capacitor, cfg.Monitor
		if !(cap.VMin < mon.VCkpt && mon.VCkpt < mon.VRst && mon.VRst <= cap.VMax) {
			t.Fatalf("case %d: voltage ladder out of order: VMin=%g VCkpt=%g VRst=%g VMax=%g",
				cs.Index, cap.VMin, mon.VCkpt, mon.VRst, cap.VMax)
		}
		if cap.Capacitance <= 0 || cap.LeakTau < 0 {
			t.Fatalf("case %d: bad capacitor: %+v", cs.Index, cap)
		}
		blocks := cfg.DCacheBytes / cfg.BlockBytes
		if cfg.DCacheBytes&(cfg.DCacheBytes-1) != 0 || blocks%cfg.DCacheWays != 0 {
			t.Fatalf("case %d: bad geometry: %d bytes, %d-byte blocks, %d ways",
				cs.Index, cfg.DCacheBytes, cfg.BlockBytes, cfg.DCacheWays)
		}
		if cfg.PredictICache && (!cfg.ICacheSRAM || cfg.Scheme == sim.Ideal) {
			t.Fatalf("case %d: PredictICache without SRAM I-cache or under Ideal", cs.Index)
		}
	}
}

// TestCampaignAllGreen is the in-tree slice of the acceptance criterion:
// a campaign across all twelve schemes with cancel probes, statistics and
// WCET enabled must execute every case and find
// zero invariant violations.
func TestCampaignAllGreen(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-case simulation campaign")
	}
	reg := obs.NewRegistry()
	c, err := Run(context.Background(), Options{
		Seed: 1, Cases: 96, WCET: true, Registry: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if c.Executed != 96 || c.Skipped != 0 {
		t.Errorf("executed %d, skipped %d, want 96/0", c.Executed, c.Skipped)
	}
	for _, v := range c.Violations {
		t.Errorf("violation: %s", v)
	}
	if c.CancelProbes == 0 {
		t.Error("cancellation probes did not run")
	}
	if c.WCET == nil || len(c.WCET.Classes) == 0 {
		t.Error("WCET report missing or empty")
	}
	cell := c.Stats.Cell(sim.Baseline, "wall(s)")
	if cell == nil || cell.N() == 0 {
		t.Error("Stats has no Baseline wall-time observations")
	}
	snap := reg.Snapshot()
	if len(snap) == 0 {
		t.Error("registry snapshot empty")
	}
}

// TestCampaignDeterministic pins the byte-for-byte reproducibility
// promise: the same options run twice must render identical reports.
func TestCampaignDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-case simulation campaign")
	}
	render := func() string {
		c, err := Run(context.Background(), Options{Seed: 42, Cases: 48, WCET: true, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		Report(&buf, c)
		return buf.String()
	}
	first, second := render(), render()
	if first != second {
		t.Errorf("same seed rendered different reports:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if !strings.Contains(first, sim.Baseline.String()) {
		t.Errorf("report missing per-scheme stats:\n%s", first)
	}
}

// TestCampaignBudgetSkips exercises the budget path: a budget that is
// already spent must skip every case without error — skipped cases are
// not violations.
func TestCampaignBudgetSkips(t *testing.T) {
	c, err := Run(context.Background(), Options{Seed: 1, Cases: 16, Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if c.Executed != 0 || c.Skipped != 16 {
		t.Errorf("executed %d, skipped %d, want 0/16 under a spent budget", c.Executed, c.Skipped)
	}
	if len(c.Violations) != 0 {
		t.Errorf("spent budget produced violations: %v", c.Violations)
	}
}

// TestCampaignCallerCancel distinguishes the caller's own cancellation
// from the budget's: the former is an error, not a silent skip.
func TestCampaignCallerCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, Options{Seed: 1, Cases: 8}); err == nil {
		t.Error("pre-cancelled context did not surface an error")
	}
}

// TestExecuteRejectsInvalidConfig pins the infrastructure-error path: a
// config the simulator rejects is an error from Execute, never a
// violation.
func TestExecuteRejectsInvalidConfig(t *testing.T) {
	cs := Generate(Options{Seed: 1, Cases: 1})[0]
	cs.Config.Capacitor.Capacitance = -1
	if _, err := Execute(context.Background(), cs, Options{}); err == nil {
		t.Error("Execute accepted an invalid config")
	}
}

// TestActiveCatalogFilter pins invariant selection by name and the error
// on unknown names.
func TestActiveCatalogFilter(t *testing.T) {
	got, err := activeCatalog(Options{Invariants: []string{"domains", "progress"}})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].Name != "domains" || got[1].Name != "progress" {
		t.Errorf("filtered catalog = %v", invariantNames(got))
	}
	if _, err := activeCatalog(Options{Invariants: []string{"no-such-invariant"}}); err == nil {
		t.Error("unknown invariant name accepted")
	}
}

// TestTruncatedHibernationConservation is the regression test for the
// fuzzer-found accounting bug: a starved run that hits its MaxSimTime
// horizon during hibernation closes its last power cycle at the final
// outage, but the engine's teardown flush still resolves the blocks left
// open there — and that residual must be folded into the recorded
// per-cycle sums, not dropped. The config is the shrinker's minimal
// reproducer for the original violation.
func TestTruncatedHibernationConservation(t *testing.T) {
	a, err := Execute(context.Background(), Case{Index: 0, Seed: 1, Config: starvedConfig()}, Options{CancelEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	if !a.Res.Truncated {
		t.Fatalf("run completed (wall=%gs, outages=%d); the regression needs a truncated run",
			a.Res.WallTime, a.Res.Outages)
	}
	for _, v := range evaluate(a, Catalog()) {
		t.Errorf("violation on truncated run: %s", v)
	}
}
