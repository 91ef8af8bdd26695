// Command experiments regenerates the paper's tables and figures.
//
// Usage:
//
//	experiments -run fig8,fig11 [-scale 0.5] [-apps crc32,sha]
//	experiments -run all
//	experiments -run fig8 -store runs.store   # persist every simulation
//
// With -store every completed simulation of the grid is appended to the
// persistent experiment store, keyed by config hash and the build's
// commit; cmd/edbpq can then rebuild the same tables without simulating.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"strings"
	"syscall"
	"time"

	"edbp/internal/buildinfo"
	"edbp/internal/experiments"
	"edbp/internal/obs/olog"
	"edbp/internal/store"
	"edbp/internal/workload"
)

func main() {
	// Ctrl-C / SIGTERM cancels the in-flight simulation grid instead of
	// killing the process mid-write; a second signal kills immediately.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process plumbing, so tests can drive the flag
// intake. The exit status is 0 on success, 1 on an error (a -scale that
// workload.CheckScale rejects fails before any kernel is recorded) and 2
// when the flags do not parse.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) (code int) {
	fs := flag.NewFlagSet("experiments", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		runIDs = fs.String("run", "all", "comma-separated experiment ids (or 'all'); ids: "+ids())
		apps   = fs.String("apps", "", "comma-separated app subset (default: all 20)")
		scale  = fs.Float64("scale", 1.0, "workload scale factor")
		seed   = fs.Uint64("seed", 1, "energy trace seed")
		seeds  = fs.Int("seeds", 0, "energy trace seeds to average (default 3)")
		format = fs.String("format", "text", "output format: text|csv")

		workers = fs.Int("workers", 0, "simulations to run concurrently (default GOMAXPROCS)")
		timeout = fs.Duration("timeout", 0, "abort the whole run after this long (e.g. 30m; 0 = no limit)")

		cpuprofile = fs.String("cpuprofile", "", "write a CPU profile of the experiment runs to this file")
		memprofile = fs.String("memprofile", "", "write a heap profile (after the runs) to this file")

		storeDir = fs.String("store", "", "experiment store directory; every completed simulation is appended to it")
		version  = fs.Bool("version", false, "print the build stamp and exit")
	)
	lf := olog.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Stamp("experiments"))
		return 0
	}
	lo := lf.Options("experiments")
	lo.W = stderr
	logger, err := olog.New(lo)
	if err != nil {
		fmt.Fprintf(stderr, "experiments: %v\n", err)
		return 2
	}
	fail := func(err error) int {
		logger.Error(err.Error())
		return 1
	}
	if err := workload.CheckScale(*scale); err != nil {
		return fail(err)
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return fail(err)
		}
		defer pprof.StopCPUProfile()
	}
	if *memprofile != "" {
		defer func() {
			f, err := os.Create(*memprofile)
			if err != nil {
				code = fail(err)
				return
			}
			defer f.Close()
			runtime.GC()
			if err := pprof.WriteHeapProfile(f); err != nil {
				code = fail(err)
			}
		}()
	}

	o := experiments.Options{Scale: *scale, Seed: *seed, Seeds: *seeds, Workers: *workers}
	if *apps != "" {
		o.Apps = strings.Split(*apps, ",")
	}
	if *storeDir != "" {
		st, err := store.Open(*storeDir, store.Options{})
		if err != nil {
			return fail(err)
		}
		defer st.Close()
		o.Persist = st.PersistHook(buildinfo.Commit(), func() int64 { return time.Now().Unix() })
		logger.Printf("persisting runs to %s (%d already stored)", *storeDir, st.Len())
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	want := map[string]bool{}
	if *runIDs != "all" {
		for _, id := range strings.Split(*runIDs, ",") {
			want[strings.TrimSpace(id)] = true
		}
	}

	ran := 0
	for _, e := range experiments.All {
		if len(want) > 0 && !want[e.ID] {
			continue
		}
		start := time.Now()
		t, err := e.Run(ctx, o)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return fail(fmt.Errorf("%s: -timeout %v expired: %w", e.ID, *timeout, err))
			}
			if errors.Is(err, context.Canceled) {
				return fail(fmt.Errorf("%s: interrupted: %w", e.ID, err))
			}
			return fail(fmt.Errorf("%s: %w", e.ID, err))
		}
		if *format == "csv" {
			fmt.Fprintf(stdout, "# %s: %s\n", t.ID, t.Title)
			t.CSV(stdout)
			fmt.Fprintln(stdout)
		} else {
			t.Print(stdout)
		}
		fmt.Fprintf(stdout, "(%s took %.1fs)\n\n", e.ID, time.Since(start).Seconds())
		ran++
	}
	if ran == 0 {
		return fail(fmt.Errorf("no experiments matched -run=%q; ids: %s", *runIDs, ids()))
	}
	return 0
}

func ids() string {
	var out []string
	for _, e := range experiments.All {
		out = append(out, e.ID)
	}
	return strings.Join(out, ",")
}
