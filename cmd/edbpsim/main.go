// Command edbpsim runs a single simulation configuration and prints the
// timing, energy breakdown and prediction statistics.
//
// Usage:
//
//	edbpsim -app crc32 -scheme edbp [-trace RFHome] [-scale 1.0] ...
//	edbpsim -app crc32 -scheme edbp -trace-out run.json -trace-jsonl run.jsonl -sample-every 20
//
// -trace selects the harvested-energy trace; -trace-out / -trace-jsonl
// record the run itself (Chrome trace_event for Perfetto, and a JSON
// Lines stream for cmd/tracereport).
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"

	"edbp/internal/buildinfo"
	"edbp/internal/obs/olog"
	"edbp/internal/sim"
	tracepkg "edbp/internal/trace"
	"edbp/internal/workload"
)

// writeTraces exports the recorder to the requested formats. The JSONL
// stream carries the zombie profile alongside the events so tracereport
// can emit the Figure 4 CSV offline.
func writeTraces(logger *olog.Logger, rec *tracepkg.Recorder, res *sim.Result, chromePath, jsonlPath string) error {
	if chromePath != "" {
		if err := writeFile(chromePath, rec.WriteChromeTrace); err != nil {
			return err
		}
		logger.Printf("wrote Chrome trace %s (open in Perfetto or chrome://tracing)", chromePath)
	}
	if jsonlPath != "" {
		var profile []tracepkg.ProfilePoint
		if res.ZombieProfile != nil {
			for _, p := range res.ZombieProfile.Points() {
				profile = append(profile, tracepkg.ProfilePoint{
					Voltage: p.Voltage, ZombieRatio: p.ZombieRatio, Samples: p.Samples,
				})
			}
		}
		err := writeFile(jsonlPath, func(w io.Writer) error { return rec.WriteJSONL(w, profile) })
		if err != nil {
			return err
		}
		logger.Printf("wrote JSONL trace %s (summarise with cmd/tracereport)", jsonlPath)
	}
	return nil
}

// writeFile creates path and fills it with write.
func writeFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	os.Exit(run(ctx, os.Args[1:], os.Stdout, os.Stderr))
}

// run is main without the process plumbing, so tests can drive the full
// CLI and diff its output byte for byte. Ctrl-C / SIGTERM (through ctx) and
// -timeout cancel the simulation via the engine's context polls rather than
// killing the process mid-run. The exit status is 0 on success, 1 when the
// run fails and 2 for a usage error.
func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("edbpsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	// The run knobs are sim.Knobs, edbpd's request body; their flag
	// defaults are Table II's, read from sim.Default.
	var k sim.Knobs
	d := sim.Default("", sim.EDBP)
	fs.StringVar(&k.App, "app", "crc32", "workload name (see -list)")
	fs.StringVar(&k.Scheme, "scheme", "edbp", "baseline|sdbp|decay|amc|counting|reftrace|edbp|decay+edbp|amc+edbp|counting+edbp|reftrace+edbp|ideal")
	fs.StringVar(&k.Trace, "trace", d.TraceKind.String(), "energy trace: RFHome|RFOffice|Thermal|Solar")
	fs.Float64Var(&k.Scale, "scale", d.Scale, "workload scale factor")
	fs.IntVar(&k.CacheBytes, "dcache", d.DCacheBytes, "data cache bytes")
	fs.IntVar(&k.CacheWays, "ways", d.DCacheWays, "data cache associativity")
	fs.StringVar(&k.Policy, "policy", d.DCachePolicy.String(), "replacement policy: LRU|PLRU|FIFO|Random|DRRIP")
	fs.StringVar(&k.NVM, "nvm", d.MemTech.String(), "memory technology: ReRAM|FeRAM|STTRAM")
	fs.Int64Var(&k.MemMB, "mem", d.MemBytes>>20, "memory size in MB")
	fs.Float64Var(&k.CapUF, "cap", d.Capacitor.Capacitance*1e6, "capacitor size in µF")
	fs.Uint64Var(&k.Seed, "seed", d.SourceSeed, "energy trace seed")
	fs.BoolVar(&k.ICacheSRAM, "icache-sram", false, "use a volatile SRAM instruction cache (Section VI-I)")
	fs.BoolVar(&k.PredictICache, "predict-icache", false, "apply the predictor to the SRAM instruction cache too")
	fs.BoolVar(&k.Leak80Off, "leak80off", false, "magically reduce data cache leakage by 80%")
	var (
		list    = fs.Bool("list", false, "list workloads and exit")
		zombie  = fs.Bool("zombie-profile", false, "collect the Figure 4 zombie-vs-voltage profile")
		asJSON  = fs.Bool("json", false, "emit the result as JSON instead of text")
		timeout = fs.Duration("timeout", 0, "abort the run after this long (e.g. 5m; 0 = no limit)")
		vtrace  = fs.String("vtrace", "", "write a time,voltage,state CSV of the capacitor to this file")

		traceOut   = fs.String("trace-out", "", "write a Chrome trace_event file (load in Perfetto / chrome://tracing)")
		traceJSONL = fs.String("trace-jsonl", "", "write the raw event/sample stream as JSON Lines (read with cmd/tracereport)")
		sampleUS   = fs.Float64("sample-every", 20, "telemetry gauge sampling period in µs (with -trace-out/-trace-jsonl)")
		version    = fs.Bool("version", false, "print the build stamp and exit")
	)
	lf := olog.RegisterFlags(fs)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	if *version {
		fmt.Fprintln(stdout, buildinfo.Stamp("edbpsim"))
		return 0
	}
	lo := lf.Options("edbpsim")
	lo.W = stderr
	logger, err := olog.New(lo)
	if err != nil {
		fmt.Fprintf(stderr, "edbpsim: %v\n", err)
		return 2
	}
	fail := func(err error) int {
		logger.Error(err.Error())
		return 1
	}

	if *list {
		for _, a := range workload.Apps() {
			fmt.Fprintf(stdout, "%-14s (%s)\n", a.Name, a.Suite)
		}
		return 0
	}

	cfg, err := k.Config()
	if err != nil {
		return fail(err)
	}
	cfg.CollectZombieProfile = *zombie

	var rec *tracepkg.Recorder
	if *traceOut != "" || *traceJSONL != "" {
		rec = tracepkg.NewRecorder(tracepkg.Options{
			Label:       fmt.Sprintf("%s/%s/%s", cfg.App, cfg.Scheme, cfg.TraceKind),
			SampleEvery: *sampleUS * 1e-6,
		})
		cfg.Recorder = rec
		// The JSONL export embeds the Figure 4 voltage-vs-zombie profile so
		// tracereport can regenerate it without a second run.
		cfg.CollectZombieProfile = true
	}

	if *vtrace != "" {
		f, err := os.Create(*vtrace)
		if err != nil {
			return fail(err)
		}
		defer f.Close()
		w := bufio.NewWriter(f)
		defer w.Flush()
		fmt.Fprintln(w, "t_us,voltage,state")
		// Decimate to ≥10 µs spacing so the file stays plottable.
		last := -1.0
		cfg.VoltageSampler = func(t, v float64, on bool) {
			if t-last < 10e-6 {
				return
			}
			last = t
			state := "on"
			if !on {
				state = "off"
			}
			fmt.Fprintf(w, "%.1f,%.4f,%s\n", t*1e6, v, state)
		}
	}

	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			return fail(fmt.Errorf("-timeout %v expired: %w", *timeout, err))
		}
		return fail(err)
	}
	if rec != nil {
		if err := writeTraces(logger, rec, res, *traceOut, *traceJSONL); err != nil {
			return fail(err)
		}
	}
	if *asJSON {
		if err := printJSON(stdout, res); err != nil {
			return fail(err)
		}
		return 0
	}
	printResult(stdout, res)
	return 0
}

// printJSON emits a machine-readable summary (stable field names; the
// anonymous struct below is the schema).
func printJSON(w io.Writer, r *sim.Result) error {
	type breakdown struct {
		DCacheDynamic, DCacheLeak, ICacheDynamic, ICacheLeak float64
		Memory, Checkpoint, MCU, CapacitorLeak, Total        float64
	}
	type prediction struct {
		TP, FP, TN, FN, MissedFN uint64
		Coverage, Accuracy       float64
	}
	out := struct {
		App, Scheme, Trace               string
		WallSeconds, ActiveSeconds       float64
		Instructions                     uint64
		PowerCycles, Checkpoints         int
		Outages                          int
		CheckpointBlocks, RestoredBlocks int
		DCacheMissRate, ICacheMissRate   float64
		WrongKillMisses                  uint64
		GatedBlockSeconds                float64
		Energy                           breakdown
		Prediction                       prediction
		Truncated                        bool
	}{
		App: r.Config.App, Scheme: r.Config.Scheme.String(), Trace: r.Config.TraceKind.String(),
		WallSeconds: r.WallTime, ActiveSeconds: r.ActiveTime,
		Instructions: r.Instructions,
		PowerCycles:  r.PowerCycles, Checkpoints: r.Checkpoints, Outages: r.Outages,
		CheckpointBlocks: r.CheckpointBlocks, RestoredBlocks: r.RestoredBlocks,
		DCacheMissRate: r.DCacheStats.MissRate(), ICacheMissRate: r.ICacheStats.MissRate(),
		WrongKillMisses:   r.DCacheStats.GatedMisses,
		GatedBlockSeconds: r.GatedBlockSeconds,
		Energy: breakdown{
			DCacheDynamic: r.Energy.DCacheDynamic, DCacheLeak: r.Energy.DCacheLeak,
			ICacheDynamic: r.Energy.ICacheDynamic, ICacheLeak: r.Energy.ICacheLeak,
			Memory: r.Energy.Memory, Checkpoint: r.Energy.Checkpoint,
			MCU: r.Energy.MCU, CapacitorLeak: r.Energy.CapacitorLeak,
			Total: r.Energy.Total(),
		},
		Prediction: prediction{
			TP: r.Prediction.TP, FP: r.Prediction.FP, TN: r.Prediction.TN,
			FN: r.Prediction.FN, MissedFN: r.Prediction.ZombieFN,
			Coverage: r.Prediction.Coverage(), Accuracy: r.Prediction.Accuracy(),
		},
		Truncated: r.Truncated,
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

func printResult(w io.Writer, r *sim.Result) {
	fmt.Fprintf(w, "app=%s scheme=%s trace=%s\n", r.Config.App, r.Config.Scheme, r.Config.TraceKind)
	fmt.Fprintf(w, "  wall time      %.6f s (active %.6f, off %.6f)\n", r.WallTime, r.ActiveTime, r.OffTime)
	fmt.Fprintf(w, "  instructions   %d (%.2f effective MIPS)\n", r.Instructions, float64(r.Instructions)/r.WallTime/1e6)
	fmt.Fprintf(w, "  power cycles   %d (checkpoints %d, ckpt blocks %d, restored %d)\n",
		r.PowerCycles, r.Checkpoints, r.CheckpointBlocks, r.RestoredBlocks)
	e := r.Energy
	tot := e.Total()
	fmt.Fprintf(w, "  energy         %.4f mJ total, avg power %.3f mW\n", tot*1e3, r.AvgPower()*1e3)
	pct := func(x float64) float64 { return 100 * x / tot }
	fmt.Fprintf(w, "    dcache       %6.2f%% (dyn %.2f%%, leak %.2f%%)\n", pct(e.DCache()), pct(e.DCacheDynamic), pct(e.DCacheLeak))
	fmt.Fprintf(w, "    icache       %6.2f%% (dyn %.2f%%, leak %.2f%%)\n", pct(e.ICache()), pct(e.ICacheDynamic), pct(e.ICacheLeak))
	fmt.Fprintf(w, "    memory       %6.2f%%\n", pct(e.Memory))
	fmt.Fprintf(w, "    checkpoint   %6.2f%%\n", pct(e.Checkpoint))
	fmt.Fprintf(w, "    others       %6.2f%% (MCU %.2f%%, cap leak %.2f%%)\n", pct(e.Others()), pct(e.MCU), pct(e.CapacitorLeak))
	d := r.DCacheStats
	fmt.Fprintf(w, "  dcache         %.3f%% miss (%d acc, %d wrong-kill misses), %d writebacks\n",
		100*d.MissRate(), d.Accesses(), d.GatedMisses, d.Writebacks)
	i := r.ICacheStats
	fmt.Fprintf(w, "  icache         %.3f%% miss (%d acc)\n", 100*i.MissRate(), i.Accesses())
	c := r.Prediction
	if c.Total() > 0 {
		tp, fp, tn, fn, zfn := c.Rate()
		fmt.Fprintf(w, "  prediction     TP %.1f%% FP %.1f%% TN %.1f%% FN %.1f%% missed(zombie FN) %.1f%%\n",
			100*tp, 100*fp, 100*tn, 100*fn, 100*zfn)
		fmt.Fprintf(w, "                 coverage %.1f%%, accuracy %.1f%%, gated block-time %.4f s\n",
			100*c.Coverage(), 100*c.Accuracy(), r.GatedBlockSeconds)
	}
	if r.EDBP != nil {
		fmt.Fprintf(w, "  %s\n", r.EDBP)
	}
	if s := r.TraceSummary; s != nil {
		// Summary.String surfaces both rings' overwrite drop counts so
		// silent truncation of the exportable window is visible.
		fmt.Fprintf(w, "  %s\n", s)
	}
	if r.ZombieProfile != nil {
		fmt.Fprintln(w, "  zombie ratio by voltage:")
		for _, p := range r.ZombieProfile.Points() {
			fmt.Fprintf(w, "    %.3f V  %5.1f%%  (n=%.0f)\n", p.Voltage, 100*p.ZombieRatio, p.Samples)
		}
	}
	if r.Truncated {
		fmt.Fprintln(w, "  WARNING: run truncated at MaxSimTime (energy starvation)")
	}
}
