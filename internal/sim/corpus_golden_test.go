package sim_test

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"edbp/internal/cache"
	"edbp/internal/energy"
	"edbp/internal/fuzz"
	"edbp/internal/sim"
	evtrace "edbp/internal/trace"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/result_corpus.txt from the current engine")

// corpusPath holds one line per pinned run: a label naming the run's
// configuration, then the sha256 of its sim.EncodeResult bytes.
const corpusPath = "testdata/result_corpus.txt"

// corpusRow is one pinned run. label names it in the corpus file and is
// unique there; name is its subtest name inside its group.
type corpusRow struct {
	name, label string
	run         func() (*sim.Result, error)
}

// corpusRows lists every pinned run in file order: the kernel grid, then
// every configuration the replay loop's edge tests run, then the
// replacement policies, I-cache variants and zombie profiling, then the
// fuzzer's corpus.
func corpusRows() []corpusRow {
	rows := kernelRows()
	rows = append(rows, schemeRows(false)...)
	rows = append(rows, schemeRows(true)...)
	rows = append(rows, harvestRows(energy.RFOffice, energy.Thermal, energy.Solar)...)
	rows = append(rows, capacitanceRows()...)
	rows = append(rows, headroomRows()...)
	rows = append(rows, thresholdRows()...)
	rows = append(rows, cancelRow(), overflowRow())
	rows = append(rows, batchCapRows()...)
	rows = append(rows, variantRows()...)
	return append(rows, fuzzRows()...)
}

// runOf is the row closure for a plain sim.Run of cfg.
func runOf(cfg sim.Config) func() (*sim.Result, error) {
	return func() (*sim.Result, error) { return sim.Run(cfg) }
}

// crc32At is the paper's default configuration for crc32 at scale.
func crc32At(scale float64, scheme sim.Scheme) sim.Config {
	cfg := sim.Default("crc32", scheme)
	cfg.Scale = scale
	return cfg
}

// corpusApps are the kernels of the scale-0.05 grid: short and long
// traces, store-heavy and load-heavy mixes, and Ideal's schedule on all.
var corpusApps = []string{"crc32", "sha", "dijkstra", "rijndael", "adpcm_d", "susan"}

// kernelRows runs every scheme on every harvest trace over corpusApps at
// scale 0.05, seed 1.
func kernelRows() []corpusRow {
	var rows []corpusRow
	for _, app := range corpusApps {
		for _, kind := range energy.TraceKinds {
			for _, scheme := range sim.Schemes {
				cfg := sim.Default(app, scheme)
				cfg.Scale = 0.05
				cfg.TraceKind = kind
				label := fmt.Sprintf("%s %v %v", app, kind, scheme)
				rows = append(rows, corpusRow{label, label, runOf(cfg)})
			}
		}
	}
	return rows
}

// schemeRows runs every scheme on crc32 at scale 0.25, RFHome, optionally
// with a trace recorder sampling every 20 µs (gauge samples settle the
// batched loop mid-batch).
func schemeRows(traced bool) []corpusRow {
	var rows []corpusRow
	for _, scheme := range sim.Schemes {
		cfg := crc32At(0.25, scheme)
		r := corpusRow{scheme.String(), "crc32@0.25 RFHome " + scheme.String(), runOf(cfg)}
		if traced {
			r.label += " traced"
			r.run = func() (*sim.Result, error) {
				cfg := cfg
				cfg.Recorder = evtrace.NewRecorder(evtrace.Options{Label: "crc32/" + scheme.String(), SampleEvery: 20e-6})
				return sim.Run(cfg)
			}
		}
		rows = append(rows, r)
	}
	return rows
}

// harvestRows runs Baseline and EDBP on crc32 at scale 0.25 on each of
// kinds, so each trace's outages and recharges are pinned.
func harvestRows(kinds ...energy.TraceKind) []corpusRow {
	var rows []corpusRow
	for _, kind := range kinds {
		for _, scheme := range []sim.Scheme{sim.Baseline, sim.EDBP} {
			cfg := crc32At(0.25, scheme)
			cfg.TraceKind = kind
			rows = append(rows, corpusRow{
				kind.String() + "/" + scheme.String(),
				fmt.Sprintf("crc32@0.25 %v %v", kind, scheme),
				runOf(cfg),
			})
		}
	}
	return rows
}

// capacitanceRows draws capacitors from 0.5× to 2× the paper's 0.47 µF
// (seed 42) across the four harvest traces. Each capacitance moves every
// point where the batched loop's banked slack runs out.
func capacitanceRows() []corpusRow {
	rng := rand.New(rand.NewSource(42))
	var rows []corpusRow
	for _, kind := range energy.TraceKinds {
		for _, scheme := range []sim.Scheme{sim.Baseline, sim.EDBP} {
			cfg := crc32At(0.25, scheme)
			cfg.TraceKind = kind
			cfg.Capacitor.Capacitance = 0.47e-6 * (0.5 + 1.5*rng.Float64())
			rows = append(rows, corpusRow{
				kind.String() + "/" + scheme.String(),
				fmt.Sprintf("crc32@0.25 %v %v C=%g", kind, scheme, cfg.Capacitor.Capacitance),
				runOf(cfg),
			})
		}
	}
	return rows
}

// headroomRows start the capacitor 0, 1 and 16 worst-case flushes above
// the checkpoint threshold: the first flush or the first batch ends in a
// checkpoint.
func headroomRows() []corpusRow {
	var rows []corpusRow
	for _, scheme := range []sim.Scheme{sim.Baseline, sim.EDBP} {
		for _, flushes := range []float64{0, 1, 16} {
			name := fmt.Sprintf("%v/headroom=%g", scheme, flushes)
			rows = append(rows, corpusRow{name, "crc32@0.25 RFHome " + name, func() (*sim.Result, error) {
				return sim.RunFromHeadroom(crc32At(0.25, scheme), flushes)
			}})
		}
	}
	return rows
}

// thresholdRows start the capacitor exactly at the checkpoint threshold.
func thresholdRows() []corpusRow {
	var rows []corpusRow
	for _, scheme := range []sim.Scheme{sim.Baseline, sim.AMC, sim.EDBP} {
		rows = append(rows, corpusRow{scheme.String(), fmt.Sprintf("crc32@0.1 RFHome %v/headroom=0", scheme), func() (*sim.Result, error) {
			return sim.RunFromHeadroom(crc32At(0.1, scheme), 0)
		}})
	}
	return rows
}

// cancelAt is the powered voltage sample at which cancelRow cancels.
const cancelAt = 50000

// cancelRow cancels an EDBP run from its own voltage sampler at the
// cancelAt-th powered sample and pins the partial Result the *Canceled
// error carries. The engine polls its context every cancelPollMask+1
// events, so the cancellation lands on the same event every time.
func cancelRow() corpusRow {
	return corpusRow{"canceled", fmt.Sprintf("crc32@0.25 RFHome EDBP canceled@%d", cancelAt), func() (*sim.Result, error) {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		cfg := crc32At(0.25, sim.EDBP)
		seen := 0
		cfg.VoltageSampler = func(_, _ float64, on bool) {
			if on {
				seen++
				if seen == cancelAt {
					cancel()
				}
			}
		}
		res, err := sim.RunContext(ctx, cfg)
		var c *sim.Canceled
		switch {
		case err == nil:
			return nil, fmt.Errorf("run completed (%d samples) before the scripted cancellation", seen)
		case !errors.As(err, &c) || !errors.Is(err, context.Canceled):
			return nil, fmt.Errorf("error %v (%T) is not a *Canceled wrapping context.Canceled", err, err)
		case res != nil || c.Partial == nil:
			return nil, fmt.Errorf("canceled run returned result %v and partial %v", res, c.Partial)
		}
		return c.Partial, nil
	}}
}

// overflowRow shrinks the capacitor ~100× under a constant 0.2 mW source,
// so the run needs far more than sim.OutageTimeCap power cycles.
func overflowRow() corpusRow {
	cfg := crc32At(0.25, sim.Baseline)
	cfg.Capacitor.Capacitance = 5e-9
	cfg.Source = energy.ConstantSource{P: 2e-4}
	return corpusRow{"overflow", "crc32@0.25 const=0.2mW NVSRAMCache C=5e-09", runOf(cfg)}
}

// batchCapRows run small, odd and oversized batch caps. The cap is
// encoded into the Result, so each cap is its own row.
func batchCapRows() []corpusRow {
	rows := capRows(0.25, []sim.Scheme{sim.Baseline, sim.EDBP}, 1, 3, 64)
	return append(rows, capRows(0.02, []sim.Scheme{sim.Baseline, sim.EDBP, sim.Ideal}, 3, 1<<20)...)
}

// capRows runs crc32 at scale under each of schemes at each of caps.
func capRows(scale float64, schemes []sim.Scheme, caps ...int) []corpusRow {
	var rows []corpusRow
	for _, scheme := range schemes {
		for _, batchCap := range caps {
			cfg := crc32At(scale, scheme)
			cfg.BatchCap = batchCap
			name := fmt.Sprintf("%v/cap=%d", scheme, batchCap)
			rows = append(rows, corpusRow{name, fmt.Sprintf("crc32@%g RFHome %s", scale, name), runOf(cfg)})
		}
	}
	return rows
}

// variantRows cover the paths the default configuration never takes: the
// non-LRU replacement policies (no inlined hit path), the volatile SRAM
// I-cache with and without a predictor stack of its own, and Figure 4's
// zombie profiling.
func variantRows() []corpusRow {
	var rows []corpusRow
	add := func(name string, cfg sim.Config) {
		rows = append(rows, corpusRow{name, "crc32@0.25 RFHome " + name, runOf(cfg)})
	}
	for _, policy := range cache.PolicyKinds {
		if policy == cache.LRU {
			continue // every other row
		}
		for _, scheme := range []sim.Scheme{sim.Baseline, sim.EDBP, sim.Ideal} {
			cfg := crc32At(0.25, scheme)
			cfg.DCachePolicy = policy
			add(fmt.Sprintf("%v/policy=%v", scheme, policy), cfg)
		}
	}
	for _, scheme := range []sim.Scheme{sim.Baseline, sim.EDBP, sim.Ideal} {
		cfg := crc32At(0.25, scheme)
		cfg.ICacheSRAM = true
		add(fmt.Sprintf("%v/icache=SRAM", scheme), cfg)
	}
	for _, scheme := range []sim.Scheme{sim.Baseline, sim.EDBP, sim.DecayEDBP} {
		cfg := crc32At(0.25, scheme)
		cfg.ICacheSRAM = true
		cfg.PredictICache = true
		add(fmt.Sprintf("%v/icache=SRAM+predicted", scheme), cfg)
	}
	for _, scheme := range []sim.Scheme{sim.Baseline, sim.EDBP} {
		cfg := crc32At(0.25, scheme)
		cfg.CollectZombieProfile = true
		add(fmt.Sprintf("%v/zombie-profile", scheme), cfg)
	}
	return rows
}

// fuzzCases is how many of edbpfuzz's seed-1 cases the corpus pins.
const fuzzCases = 200

// fuzzRows run the first fuzzCases configurations cmd/edbpfuzz generates
// for its default seed 1: random capacitors, thresholds, geometries,
// policies, memory technologies, batch caps and starved constant sources.
func fuzzRows() []corpusRow {
	var rows []corpusRow
	for _, c := range fuzz.Generate(fuzz.Options{Seed: 1, Cases: fuzzCases}) {
		cfg := c.Config
		name := fmt.Sprintf("case=%d", c.Index)
		label := fmt.Sprintf("fuzz seed=1 %s %s@%g %v %v", name, cfg.App, cfg.Scale, cfg.TraceKind, cfg.Scheme)
		rows = append(rows, corpusRow{name, label, runOf(cfg)})
	}
	return rows
}

// hashRow runs r and returns its Result with the sha256 of the encoded
// bytes. A custom energy.Source is cleared before encoding, since
// EncodeResult rejects one; those rows name their source in the label.
func hashRow(r corpusRow) (*sim.Result, string, error) {
	res, err := r.run()
	if err != nil {
		return nil, "", err
	}
	enc := res
	if res.Config.Source != nil {
		c := *res
		c.Config.Source = nil
		enc = &c
	}
	data, err := sim.EncodeResult(enc)
	if err != nil {
		return nil, "", err
	}
	sum := sha256.Sum256(data)
	return res, hex.EncodeToString(sum[:]), nil
}

// TestResultCorpus pins full Results: the scale-0.05 kernel grid (every
// scheme on every harvest trace over six kernels), every configuration
// the replay loop's edge tests run, each replacement policy, both SRAM
// I-cache variants, zombie profiling and the fuzzer's first 200 seed-1
// cases, hashed through the byte-exact Result codec. The replay loop's
// arithmetic, down to the association of each float sum, is defined by
// these hashes. Regenerate with
//
//	go test ./internal/sim -run TestResultCorpus -update
//
// only for a change meant to move results, and review the diff.
func TestResultCorpus(t *testing.T) {
	rows := corpusRows()
	got := make([]string, len(rows))
	seen := make(map[string]bool, len(rows))
	for i, r := range rows {
		if seen[r.label] {
			t.Fatalf("duplicate corpus label %q", r.label)
		}
		seen[r.label] = true
		_, sum, err := hashRow(r)
		if err != nil {
			t.Fatalf("%s: %v", r.label, err)
		}
		got[i] = r.label + " " + sum
	}

	if *updateCorpus {
		if err := os.MkdirAll(filepath.Dir(corpusPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d runs to %s", len(got), corpusPath)
		return
	}

	want, err := readCorpus()
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if len(want) != len(got) {
		t.Fatalf("%s has %d runs, the corpus produced %d", corpusPath, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d drifted:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

// readCorpus returns the corpus file's lines.
func readCorpus() ([]string, error) {
	data, err := os.ReadFile(corpusPath)
	if err != nil {
		return nil, err
	}
	return strings.Split(strings.TrimSpace(string(data)), "\n"), nil
}

var (
	pinnedOnce sync.Once
	pinned     map[string]string // label -> hash
	pinnedErr  error
)

// checkPinned runs r, compares its hash with r's corpus line, and returns
// the Result for further checks.
func checkPinned(t *testing.T, r corpusRow) *sim.Result {
	t.Helper()
	pinnedOnce.Do(func() {
		var lines []string
		if lines, pinnedErr = readCorpus(); pinnedErr != nil {
			return
		}
		pinned = make(map[string]string, len(lines))
		for _, line := range lines {
			if i := strings.LastIndexByte(line, ' '); i > 0 {
				pinned[line[:i]] = line[i+1:]
			}
		}
	})
	if pinnedErr != nil {
		t.Fatal(pinnedErr)
	}
	want, ok := pinned[r.label]
	if !ok {
		t.Fatalf("%s: not in %s", r.label, corpusPath)
	}
	res, got, err := hashRow(r)
	if err != nil {
		t.Fatalf("%s: %v", r.label, err)
	}
	if got != want {
		t.Errorf("%s drifted:\n got %s\nwant %s", r.label, got, want)
	}
	return res
}

// The tests below check groups of corpus rows under the names of the
// loop-equality tests that ran the same configurations while the seed's
// per-event stepper still existed. Each of those compared the batched
// loop with the stepper on its configurations (reflect.DeepEqual, or for
// hibernation the cycle, checkpoint and off-time counts), and the corpus
// was pinned at a commit where all of them passed. (The traced group now
// covers all 12 schemes; the stepper comparison covered three.) A row
// that drifts names both the configuration and the Result it no longer
// reproduces.

// TestBatchedMatchesStepperAllSchemes: crc32 at 0.25, every scheme.
func TestBatchedMatchesStepperAllSchemes(t *testing.T) {
	for _, r := range schemeRows(false) {
		t.Run(r.name, func(t *testing.T) { checkPinned(t, r) })
	}
}

// TestBatchedTracedMatchesStepper: the same runs with a trace recorder
// attached, whose gauge samples settle the loop mid-batch.
func TestBatchedTracedMatchesStepper(t *testing.T) {
	for _, r := range schemeRows(true) {
		t.Run(r.name, func(t *testing.T) {
			if checkPinned(t, r).TraceSummary == nil {
				t.Error("traced run produced no TraceSummary")
			}
		})
	}
}

// TestBatchedFuzzEquivalence: random capacitances on every harvest trace.
func TestBatchedFuzzEquivalence(t *testing.T) {
	for _, r := range capacitanceRows() {
		t.Run(r.name, func(t *testing.T) { checkPinned(t, r) })
	}
}

// TestHibernateFastMatchesStepper: Baseline and EDBP on every harvest
// trace; every trace but Solar must go through power cycles.
func TestHibernateFastMatchesStepper(t *testing.T) {
	for _, r := range harvestRows(energy.TraceKinds...) {
		t.Run(r.name, func(t *testing.T) {
			res := checkPinned(t, r)
			if res.PowerCycles == 0 && !strings.HasPrefix(r.name, "Solar/") {
				t.Errorf("expected at least one power cycle on %s", r.name)
			}
		})
	}
}

// TestBatchHeadroomBoundaries: 0, 1 and 16 worst-case flushes of headroom.
// With at most one, the run must checkpoint immediately.
func TestBatchHeadroomBoundaries(t *testing.T) {
	for _, r := range headroomRows() {
		t.Run(r.name, func(t *testing.T) {
			res := checkPinned(t, r)
			if !strings.HasSuffix(r.name, "=16") && res.Outages == 0 {
				t.Errorf("%s: expected an immediate checkpoint, got none", r.name)
			}
		})
	}
}

// TestCapacitorExactlyAtCheckpointThreshold: zero headroom, the knife-edge
// between "checkpoint now" and "one more flush". Every hibernation must
// pair with a checkpoint.
func TestCapacitorExactlyAtCheckpointThreshold(t *testing.T) {
	for _, r := range thresholdRows() {
		res := checkPinned(t, r)
		if res.Checkpoints != res.Outages {
			t.Errorf("%s: %d checkpoints for %d outages", r.name, res.Checkpoints, res.Outages)
		}
		if res.Outages == 0 {
			t.Errorf("%s: an at-threshold start never checkpointed", r.name)
		}
	}
}

// TestReferenceOracleMatchesBatched: crc32 at 0.02 with a tiny odd batch
// cap, where the fuzzer's reference-replay invariant compared the loop
// with the stepper.
func TestReferenceOracleMatchesBatched(t *testing.T) {
	for _, r := range capRows(0.02, []sim.Scheme{sim.Baseline, sim.EDBP, sim.Ideal}, 3) {
		checkPinned(t, r)
	}
}

// TestBatchedCancelPartialMatchesStepper: the partial Result of a run
// canceled at a deterministic event.
func TestBatchedCancelPartialMatchesStepper(t *testing.T) {
	if checkPinned(t, cancelRow()).Instructions == 0 {
		t.Fatal("partial result shows no executed instructions")
	}
}

// TestOutageTimesOverflowBatched: more outages than OutageTimeCap.
// OutageTimes must saturate at the cap while Outages keeps the true
// count. TestOutageTimesCapEnforced drives powerFailure directly; this is
// its whole-run companion.
func TestOutageTimesOverflowBatched(t *testing.T) {
	res := checkPinned(t, overflowRow())
	if res.Outages <= sim.OutageTimeCap {
		t.Fatalf("run produced %d outages, want > %d to exercise the cap", res.Outages, sim.OutageTimeCap)
	}
	if len(res.OutageTimes) != sim.OutageTimeCap {
		t.Fatalf("len(OutageTimes) = %d, want exactly the cap %d", len(res.OutageTimes), sim.OutageTimeCap)
	}
	if times, truncated := res.OutageSample(); !truncated || len(times) != sim.OutageTimeCap {
		t.Fatalf("OutageSample: len=%d truncated=%v", len(times), truncated)
	}
}
