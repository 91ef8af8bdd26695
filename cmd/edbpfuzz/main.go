// Command edbpfuzz runs the simulator's configuration-matrix fuzzer: a
// seeded, reproducible sweep over capacitor sizes, checkpoint thresholds,
// cache geometries, NVM technologies and harvesting environments, with
// every result checked against the invariant catalog (forward progress,
// counter conservation, cancellation safety, value domains).
//
// Usage:
//
//	edbpfuzz -seeds 1000                          # 1000-case campaign
//	edbpfuzz -seeds 200 -budget 60s -wcet         # CI smoke configuration
//	edbpfuzz -seed 7 -invariant cycle-conservation,cancel-partial
//
// The same -seed always reproduces the same corpus, the same violations
// and a byte-identical report (when -budget does not cut the run short).
// On a violation the first failing case is shrunk to a minimal reproducer
// and printed as a ready-to-paste sim.Config literal; -repro-out also
// writes it to a file (for CI artifact upload). Exit status 1 means
// violations were found, 2 means the campaign itself failed to run.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"edbp/internal/buildinfo"
	"edbp/internal/fuzz"
	"edbp/internal/obs"
	"edbp/internal/obs/olog"
	"edbp/internal/store"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Stdout, os.Stderr, os.Args[1:]))
}

// run is main without the process plumbing, so tests can drive the full
// CLI and diff its output byte for byte.
func run(ctx context.Context, stdout, stderr io.Writer, args []string) int {
	fs := flag.NewFlagSet("edbpfuzz", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		seed        = fs.Uint64("seed", 1, "master seed; the corpus, violations and report all derive from it")
		seeds       = fs.Int("seeds", 256, "corpus size (number of fuzzed configurations)")
		budget      = fs.Duration("budget", 0, "wall-clock budget; cases beyond it are skipped, not failed (0 = unlimited)")
		workers     = fs.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
		invariants  = fs.String("invariant", "", "comma-separated invariant names to check (empty = the full catalog)")
		wcet        = fs.Bool("wcet", false, "add the per-(kernel, environment) worst-case completion-time table")
		cancelEvery = fs.Int("cancel-every", 0, "cancel every Nth case mid-run and validate the partial (0 = default 8, negative = off)")
		reproOut    = fs.String("repro-out", "", "write the shrunk minimal reproducer to this file on violation")
		noShrink    = fs.Bool("no-shrink", false, "skip shrinking on violation (report only)")
		quiet       = fs.Bool("quiet", false, "suppress progress lines on stderr")
		storeDir    = fs.String("store", "", "experiment store directory; with -wcet the per-class bounds are appended as trend records")
		version     = fs.Bool("version", false, "print the build stamp and exit")
	)
	lf := olog.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Stamp("edbpfuzz"))
		return 0
	}
	logger, err := olog.New(olog.Options{Component: "edbpfuzz", Level: lf.Level, Format: lf.Format, W: stderr})
	if err != nil {
		fmt.Fprintf(stderr, "edbpfuzz: %v\n", err)
		return 2
	}

	opts := fuzz.Options{
		Seed:        *seed,
		Cases:       *seeds,
		Workers:     *workers,
		Budget:      *budget,
		CancelEvery: *cancelEvery,
		WCET:        *wcet,
		Registry:    obs.NewRegistry(),
	}
	if *invariants != "" {
		opts.Invariants = strings.Split(*invariants, ",")
	}
	if !*quiet {
		opts.Log = logger.Printf
	}

	campaign, err := fuzz.Run(ctx, opts)
	if err != nil {
		logger.Error(err.Error())
		return 2
	}
	fuzz.Report(stdout, campaign)

	if *storeDir != "" && campaign.WCET != nil {
		if err := persistWCET(*storeDir, campaign.WCET); err != nil {
			logger.Error(fmt.Sprintf("persisting WCET bounds: %v", err))
			return 2
		}
		if !*quiet {
			logger.Printf("appended %d WCET class records to %s", len(campaign.WCET.Classes), *storeDir)
		}
	}

	if len(campaign.Violations) == 0 {
		return 0
	}
	if *noShrink {
		return 1
	}

	// Shrink the first violation (case order, so deterministic) to the
	// minimal configuration that still fails the same invariant.
	first := campaign.Violations[0]
	logger.Printf("shrinking case %d (%s)...", first.Case.Index, first.Invariant)
	minCase, evals, err := fuzz.Shrink(ctx, first, opts)
	if err != nil {
		logger.Error(fmt.Sprintf("shrink failed: %v", err))
		return 1 // the violation stands even if shrinking did not
	}
	repro := fmt.Sprintf(
		"// Minimal reproducer for invariant %q (campaign seed %#x, case %d, %d shrink evals).\n// Run with: sim.Run(cfg) and check the %q invariant from internal/fuzz.\ncfg := %s\n",
		first.Invariant, *seed, first.Case.Index, evals, first.Invariant,
		fuzz.FormatConfig(minCase.Config))
	fmt.Fprintf(stdout, "\n== Minimal reproducer ==\n%s", repro)
	if *reproOut != "" {
		if err := os.WriteFile(*reproOut, []byte(repro), 0o644); err != nil {
			logger.Error(fmt.Sprintf("writing %s: %v", *reproOut, err))
		} else {
			logger.Printf("wrote reproducer to %s", *reproOut)
		}
	}
	return 1
}

// persistWCET appends the campaign's per-(kernel, environment) worst-case
// completion bounds to the experiment store as trend records, stamped with
// the producing commit — "select wcet" in cmd/edbpq charts them across
// history.
func persistWCET(dir string, rep *fuzz.WCETReport) error {
	st, err := store.Open(dir, store.Options{})
	if err != nil {
		return err
	}
	defer st.Close()
	commit := buildinfo.Commit()
	now := time.Now().Unix()
	for _, cl := range rep.Classes {
		rec := store.WCETRecord{
			App:         cl.App,
			Env:         cl.Kind.String(),
			Commit:      commit,
			Time:        now,
			Cases:       cl.Cases,
			MaxObserved: cl.MaxObserved,
			MaxBound:    store.Bound(cl.MaxBound),
			Exceeded:    cl.Exceeded,
		}
		if err := st.PutWCET(rec); err != nil {
			return err
		}
	}
	return nil
}
