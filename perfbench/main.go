// Command perfbench is the repository's benchmark. It drives the simulator
// the three ways users do — sim.Run in-process (replay), one edbpd
// (serve), and an edbpd coordinator with two workers (grid) — checks every
// simulated output, and prints the end-to-end metrics of one workload, or
// with -trace 1 the per-layer breakdown. Run it through run.sh, which
// builds it and edbpd first:
//
//	bash perfbench/run.sh --workload replay --seed 1 --seconds 55 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// Lines before it give the provenance stamp, every metric with its sample
// count, the failure ratio and the sha256 digest of the simulated outputs.
// README.md lists the workloads, the metrics and what each should move.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// setupReps is how many times a run sets up before its timed phase;
// setup_s is their median.
const setupReps = 9

type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	edbpd    string  // built edbpd binary (serve, grid and the traced run)
	workdir  string  // scratch root; each run gets a fresh directory in it
	commit   string  // provenance only
	slowdown float64 // sensitivity mode: busy-wait this fraction of each op
}

func (o options) duration() time.Duration { return time.Duration(o.seconds) * time.Second }

func parseFlags(args []string) (options, error) {
	var o options
	var trace int
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "replay | serve | grid")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed: picks the configs and their order")
	fs.IntVar(&o.seconds, "seconds", 55, "length of the timed phase")
	fs.IntVar(&trace, "trace", 0, "1 runs the per-layer breakdown instead of the end-to-end metrics")
	fs.StringVar(&o.edbpd, "edbpd", "", "path of the built edbpd binary")
	fs.StringVar(&o.workdir, "workdir", ".bench_build", "directory for run scratch files")
	fs.StringVar(&o.commit, "commit", "unknown", "commit being measured (provenance)")
	fs.Float64Var(&o.slowdown, "slowdown", 0, "sensitivity check: busy-wait this fraction of each op's time in the load generator")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case o.workload != "replay" && o.workload != "serve" && o.workload != "grid":
		return o, fmt.Errorf("-workload must be replay, serve or grid, got %q", o.workload)
	case o.seconds < 1:
		return o, fmt.Errorf("-seconds must be at least 1")
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("-trace must be 0 or 1")
	case o.slowdown < 0:
		return o, fmt.Errorf("-slowdown must be non-negative")
	}
	o.trace = trace == 1
	if (o.trace || o.workload != "replay") && o.edbpd == "" {
		return o, fmt.Errorf("-edbpd is required for %s", o.workload)
	}
	return o, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one run's result: the final JSON line plus the human-readable
// lines printed before it.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	notes     []string
	flags     []string // the edbpd command lines the run launched
}

func newReport() *report { return &report{Correct: true, Metrics: make(map[string]metric)} }

// set records a metric; n is its sample count.
func (r *report) set(name, unit string, v float64, n int) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.notes = append(r.notes, fmt.Sprintf("%-36s %14.6g %-9s n=%d", name, v, unit, n))
}

func (r *report) note(key string, v any) {
	r.notes = append(r.notes, fmt.Sprintf("%s: %v", key, v))
}

// fail marks the run incorrect with the reason.
func (r *report) fail(format string, args ...any) {
	r.Correct = false
	r.note("CHECK FAILED", fmt.Sprintf(format, args...))
}

// add folds a phase's op counts into the report.
func (r *report) add(st loopStats) {
	r.Attempted += st.attempted
	r.Failed += st.failed
	if st.failed > 0 {
		r.fail("%d of %d ops failed; first: %v", st.failed, st.attempted, st.firstErr)
	}
}

// timings are a workload's timing metrics: a rate, and the latencies its
// percentiles are taken over.
type timings struct {
	opsPerS float64
	lat     []float64 // ms
}

// wallTimings are a closed loop's timings as the clock saw them: completed
// ops ÷ the phase's wall time, and every op's latency.
func wallTimings(st loopStats) timings {
	return timings{opsPerS: float64(st.attempted-st.failed) / st.wall.Seconds(), lat: st.lat}
}

// endToEnd turns a timed phase and its timings into the end-to-end metrics
// every workload reports.
func endToEnd(st loopStats, t timings, setups []float64, rssMB float64) *report {
	r := newReport()
	r.add(st)
	n := len(t.lat)
	r.set("ops_per_s", "ops/s", t.opsPerS, n)
	r.set("op_ms_p50", "ms", quantile(t.lat, 0.50), n)
	r.set("op_ms_p99", "ms", quantile(t.lat, 0.99), n)
	r.set("setup_s", "s", median(setups), len(setups))
	r.set("peak_rss_mb", "MB", rssMB, 1)
	r.note("fail_ratio", fmt.Sprintf("%g (%d of %d ops)", float64(st.failed)/float64(max(st.attempted, 1)), st.failed, st.attempted))
	r.note("setup_s samples", setups)
	return r
}

// sourceDigest hashes the Go sources and module files under root, so a run
// is traceable to its code when the checkout carries no VCS metadata.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\n", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	return hex.EncodeToString(h.Sum(nil))[:16], err
}

func provenance(o options, edbpdFlags []string) map[string]any {
	src, err := sourceDigest(".")
	if err != nil {
		src = "error: " + err.Error()
	}
	return map[string]any{
		"commit":        o.commit,
		"source_sha256": src,
		"go":            runtime.Version(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"nproc":         runtime.NumCPU(),
		"workload":      o.workload,
		"seed":          o.seed,
		"seconds":       o.seconds,
		"trace":         o.trace,
		"slowdown":      o.slowdown,
		"edbpd_flags":   edbpdFlags,
	}
}

func run(o options) (*report, error) {
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(o.workdir, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	o.workdir = dir
	if o.trace {
		return runLayers(o)
	}
	switch o.workload {
	case "replay":
		return runReplay(o)
	case "serve":
		return runServe(o)
	default:
		return runGrid(o)
	}
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	prov, err := json.Marshal(provenance(o, rep.flags))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Printf("provenance: %s\n", prov)
	for _, l := range rep.notes {
		fmt.Println(l)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
}
