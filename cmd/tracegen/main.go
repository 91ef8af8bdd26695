// Command tracegen records workload traces and synthetic energy traces and
// prints their statistics — the raw inputs every experiment consumes.
//
// Usage:
//
//	tracegen                       # stats for all 20 workloads
//	tracegen -app crc32 -dump 50   # first 50 trace events of one workload
//	tracegen -energy RFHome        # sample the harvesting power series
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"edbp/internal/buildinfo"
	"edbp/internal/energy"
	"edbp/internal/obs/olog"
	"edbp/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process plumbing, so tests can drive the flag
// intake. The exit status is 0 on success, 1 on an error (a -scale that
// workload.CheckScale rejects fails before anything is recorded) and 2
// when the flags do not parse.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracegen", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		app     = fs.String("app", "", "single workload to record (default: all)")
		scale   = fs.Float64("scale", 1.0, "workload scale factor")
		dump    = fs.Int("dump", 0, "print the first N trace events")
		etrace  = fs.String("energy", "", "sample an energy trace (RFHome|RFOffice|Thermal|Solar) instead")
		seed    = fs.Uint64("seed", 1, "energy trace seed")
		version = fs.Bool("version", false, "print the build stamp and exit")
	)
	lf := olog.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Stamp("tracegen"))
		return 0
	}
	lo := lf.Options("tracegen")
	lo.W = stderr
	logger, err := olog.New(lo)
	if err != nil {
		fmt.Fprintf(stderr, "tracegen: %v\n", err)
		return 2
	}
	fail := func(err error) int {
		logger.Error(err.Error())
		return 1
	}
	if err := workload.CheckScale(*scale); err != nil {
		return fail(err)
	}

	if *etrace != "" {
		kind, err := energy.ParseTraceKind(*etrace)
		if err != nil {
			return fail(err)
		}
		tr := energy.NewTrace(kind, *seed)
		fmt.Fprintf(stdout, "# %s seed=%d mean=%.2f mW\n", tr.Name(), *seed, tr.MeanPower()*1e3)
		for t := 0.0; t < 50e-3; t += 1e-3 {
			fmt.Fprintf(stdout, "%.3f ms  %6.2f mW\n", t*1e3, tr.Power(t)*1e3)
		}
		return 0
	}

	apps := workload.Apps()
	if *app != "" {
		a, err := workload.ByName(*app)
		if err != nil {
			return fail(err)
		}
		apps = []workload.App{a}
	}
	for _, a := range apps {
		tr, err := workload.Cached(a.Name, *scale)
		if err != nil {
			return fail(err)
		}
		fmt.Fprintf(stdout, "%-14s %-10s instr=%8d ld/st=%5.1f%% loads=%8d stores=%7d data=%7dB events=%8d regions=%2d checksum=%08x\n",
			tr.Name, a.Suite, tr.Instructions, 100*tr.LoadStoreRatio(), tr.Loads, tr.Stores,
			tr.DataBytes, len(tr.Events), len(tr.Regions), tr.Checksum)
		for i := 0; i < *dump && i < len(tr.Events); i++ {
			ev := tr.Events[i]
			fmt.Fprintf(stdout, "  %4d op=%d arg=%#x\n", i, ev.Op(), ev.Arg())
		}
	}
	return 0
}
