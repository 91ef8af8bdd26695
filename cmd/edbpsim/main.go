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
	"os"
	"os/signal"
	"syscall"

	"edbp/internal/buildinfo"
	"edbp/internal/cache"
	"edbp/internal/energy"
	"edbp/internal/nvm"
	"edbp/internal/obs/olog"
	"edbp/internal/sim"
	tracepkg "edbp/internal/trace"
	"edbp/internal/workload"
)

// logger is the process logger, built in main from the uniform
// -log-level / -log-format flags.
var logger = olog.Nop()

// writeTraces exports the recorder to the requested formats. The JSONL
// stream carries the zombie profile alongside the events so tracereport
// can emit the Figure 4 CSV offline.
func writeTraces(rec *tracepkg.Recorder, res *sim.Result, chromePath, jsonlPath string) {
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			logger.Fatal(err)
		}
		if err := rec.WriteChromeTrace(f); err != nil {
			logger.Fatal(err)
		}
		if err := f.Close(); err != nil {
			logger.Fatal(err)
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
		f, err := os.Create(jsonlPath)
		if err != nil {
			logger.Fatal(err)
		}
		if err := rec.WriteJSONL(f, profile); err != nil {
			logger.Fatal(err)
		}
		if err := f.Close(); err != nil {
			logger.Fatal(err)
		}
		logger.Printf("wrote JSONL trace %s (summarise with cmd/tracereport)", jsonlPath)
	}
}

func main() {
	var (
		app     = flag.String("app", "crc32", "workload name (see -list)")
		list    = flag.Bool("list", false, "list workloads and exit")
		scheme  = flag.String("scheme", "edbp", "baseline|sdbp|decay|amc|counting|reftrace|edbp|decay+edbp|amc+edbp|counting+edbp|reftrace+edbp|ideal")
		trace   = flag.String("trace", "RFHome", "energy trace: RFHome|RFOffice|Thermal|Solar")
		scale   = flag.Float64("scale", 1.0, "workload scale factor")
		dsize   = flag.Int("dcache", 4096, "data cache bytes")
		ways    = flag.Int("ways", 4, "data cache associativity")
		policy  = flag.String("policy", "LRU", "replacement policy: LRU|PLRU|FIFO|Random|DRRIP")
		tech    = flag.String("nvm", "ReRAM", "memory technology: ReRAM|FeRAM|STTRAM")
		memMB   = flag.Int64("mem", 16, "memory size in MB")
		capUF   = flag.Float64("cap", 0.47, "capacitor size in µF")
		seed    = flag.Uint64("seed", 1, "energy trace seed")
		icSRAM  = flag.Bool("icache-sram", false, "use a volatile SRAM instruction cache (Section VI-I)")
		icPred  = flag.Bool("predict-icache", false, "apply the predictor to the SRAM instruction cache too")
		zombie  = flag.Bool("zombie-profile", false, "collect the Figure 4 zombie-vs-voltage profile")
		leakOff = flag.Bool("leak80off", false, "magically reduce data cache leakage by 80%")
		asJSON  = flag.Bool("json", false, "emit the result as JSON instead of text")
		timeout = flag.Duration("timeout", 0, "abort the run after this long (e.g. 5m; 0 = no limit)")
		vtrace  = flag.String("vtrace", "", "write a time,voltage,state CSV of the capacitor to this file")

		traceOut   = flag.String("trace-out", "", "write a Chrome trace_event file (load in Perfetto / chrome://tracing)")
		traceJSONL = flag.String("trace-jsonl", "", "write the raw event/sample stream as JSON Lines (read with cmd/tracereport)")
		sampleUS   = flag.Float64("sample-every", 20, "telemetry gauge sampling period in µs (with -trace-out/-trace-jsonl)")
		version    = flag.Bool("version", false, "print the build stamp and exit")
	)
	lf := olog.RegisterFlags(flag.CommandLine)
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.Stamp("edbpsim"))
		return
	}
	logger = olog.MustNew(lf.Options("edbpsim"))

	if *list {
		for _, a := range workload.Apps() {
			fmt.Printf("%-14s (%s)\n", a.Name, a.Suite)
		}
		return
	}

	sch, err := sim.ParseScheme(*scheme)
	if err != nil {
		logger.Fatal(err)
	}
	cfg := sim.Default(*app, sch)
	cfg.Scale = *scale
	cfg.DCacheBytes = *dsize
	cfg.DCacheWays = *ways
	cfg.MemBytes = *memMB << 20
	cfg.Capacitor.Capacitance = *capUF * 1e-6
	cfg.SourceSeed = *seed
	cfg.ICacheSRAM = *icSRAM
	cfg.PredictICache = *icPred
	cfg.CollectZombieProfile = *zombie
	if *leakOff {
		cfg.DCacheLeakFactor = 0.2
	}
	if cfg.TraceKind, err = energy.ParseTraceKind(*trace); err != nil {
		logger.Fatal(err)
	}
	if cfg.DCachePolicy, err = cache.ParsePolicy(*policy); err != nil {
		logger.Fatal(err)
	}
	if cfg.MemTech, err = nvm.ParseTech(*tech); err != nil {
		logger.Fatal(err)
	}

	var rec *tracepkg.Recorder
	if *traceOut != "" || *traceJSONL != "" {
		rec = tracepkg.NewRecorder(tracepkg.Options{
			Label:       fmt.Sprintf("%s/%s/%s", *app, sch, cfg.TraceKind),
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
			logger.Fatal(err)
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

	// Ctrl-C / SIGTERM / -timeout cancel the simulation via the engine's
	// context polls rather than killing the process mid-run.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}

	res, err := sim.RunContext(ctx, cfg)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			logger.Fatalf("-timeout %v expired: %v", *timeout, err)
		}
		logger.Fatal(err)
	}
	if rec != nil {
		writeTraces(rec, res, *traceOut, *traceJSONL)
	}
	if *asJSON {
		printJSON(res)
		return
	}
	printResult(res)
}

// printJSON emits a machine-readable summary (stable field names; the
// anonymous struct below is the schema).
func printJSON(r *sim.Result) {
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
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(out); err != nil {
		logger.Fatal(err)
	}
}

func printResult(r *sim.Result) {
	fmt.Printf("app=%s scheme=%s trace=%s\n", r.Config.App, r.Config.Scheme, r.Config.TraceKind)
	fmt.Printf("  wall time      %.6f s (active %.6f, off %.6f)\n", r.WallTime, r.ActiveTime, r.OffTime)
	fmt.Printf("  instructions   %d (%.2f effective MIPS)\n", r.Instructions, float64(r.Instructions)/r.WallTime/1e6)
	fmt.Printf("  power cycles   %d (checkpoints %d, ckpt blocks %d, restored %d)\n",
		r.PowerCycles, r.Checkpoints, r.CheckpointBlocks, r.RestoredBlocks)
	e := r.Energy
	tot := e.Total()
	fmt.Printf("  energy         %.4f mJ total, avg power %.3f mW\n", tot*1e3, r.AvgPower()*1e3)
	pct := func(x float64) float64 { return 100 * x / tot }
	fmt.Printf("    dcache       %6.2f%% (dyn %.2f%%, leak %.2f%%)\n", pct(e.DCache()), pct(e.DCacheDynamic), pct(e.DCacheLeak))
	fmt.Printf("    icache       %6.2f%% (dyn %.2f%%, leak %.2f%%)\n", pct(e.ICache()), pct(e.ICacheDynamic), pct(e.ICacheLeak))
	fmt.Printf("    memory       %6.2f%%\n", pct(e.Memory))
	fmt.Printf("    checkpoint   %6.2f%%\n", pct(e.Checkpoint))
	fmt.Printf("    others       %6.2f%% (MCU %.2f%%, cap leak %.2f%%)\n", pct(e.Others()), pct(e.MCU), pct(e.CapacitorLeak))
	d := r.DCacheStats
	fmt.Printf("  dcache         %.3f%% miss (%d acc, %d wrong-kill misses), %d writebacks\n",
		100*d.MissRate(), d.Accesses(), d.GatedMisses, d.Writebacks)
	i := r.ICacheStats
	fmt.Printf("  icache         %.3f%% miss (%d acc)\n", 100*i.MissRate(), i.Accesses())
	c := r.Prediction
	if c.Total() > 0 {
		tp, fp, tn, fn, zfn := c.Rate()
		fmt.Printf("  prediction     TP %.1f%% FP %.1f%% TN %.1f%% FN %.1f%% missed(zombie FN) %.1f%%\n",
			100*tp, 100*fp, 100*tn, 100*fn, 100*zfn)
		fmt.Printf("                 coverage %.1f%%, accuracy %.1f%%, gated block-time %.4f s\n",
			100*c.Coverage(), 100*c.Accuracy(), r.GatedBlockSeconds)
	}
	if r.EDBP != nil {
		fmt.Printf("  %s\n", r.EDBP)
	}
	if s := r.TraceSummary; s != nil {
		// Summary.String surfaces both rings' overwrite drop counts so
		// silent truncation of the exportable window is visible.
		fmt.Printf("  %s\n", s)
	}
	if r.ZombieProfile != nil {
		fmt.Println("  zombie ratio by voltage:")
		for _, p := range r.ZombieProfile.Points() {
			fmt.Printf("    %.3f V  %5.1f%%  (n=%.0f)\n", p.Voltage, 100*p.ZombieRatio, p.Samples)
		}
	}
	if r.Truncated {
		fmt.Println("  WARNING: run truncated at MaxSimTime (energy starvation)")
	}
}
