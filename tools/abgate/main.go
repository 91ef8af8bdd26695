// Command abgate is the engine's performance gate. It times this
// checkout's simulator (module edbp) against a base commit's copy of it
// (the same tree renamed to module edbpbase) in one process, cell by cell,
// and exits 1 when the head is slower beyond run-to-run noise. Build and
// run it with
//
//	bash tools/abgate/run.sh <base-commit>
//
// The cells are Figures 6–8's workload: crc32, sha, dijkstra and rijndael
// at scale 0.25 under Baseline, EDBP, CacheDecay+EDBP and Ideal. An
// untimed warm-up round lets each copy record its own kernels; then every
// round times each cell under both copies back to back, the base first in
// even rounds and the head first in odd ones. The verdict rule is package
// gate's. The driver uses only edbp.Run, edbp.Config{App, Scheme, Scale}
// and the scheme constants, so any base where that API compiles can be
// gated.
package main

import (
	"fmt"
	"os"
	"strings"
	"time"

	"edbp"
	"edbp/tools/abgate/gate"
	base "edbpbase"
)

const scale = 0.25

var (
	apps        = []string{"crc32", "sha", "dijkstra", "rijndael"}
	headSchemes = []edbp.Scheme{edbp.Baseline, edbp.EDBP, edbp.CacheDecayEDBP, edbp.Ideal}
	baseSchemes = []base.Scheme{base.Baseline, base.EDBP, base.CacheDecayEDBP, base.Ideal}
)

func main() {
	failed, err := run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "abgate:", err)
		os.Exit(2)
	}
	if failed {
		os.Exit(1)
	}
}

func timeHead(app string, s int) (time.Duration, error) {
	start := time.Now()
	_, err := edbp.Run(edbp.Config{App: app, Scheme: headSchemes[s], Scale: scale})
	return time.Since(start), err
}

func timeBase(app string, s int) (time.Duration, error) {
	start := time.Now()
	_, err := base.Run(base.Config{App: app, Scheme: baseSchemes[s], Scale: scale})
	return time.Since(start), err
}

// round times every cell under both copies and returns its head÷base
// ratios, indexed by scheme then app.
func round(baseFirst bool) ([][]float64, error) {
	ratios := make([][]float64, len(headSchemes))
	for s := range headSchemes {
		for _, app := range apps {
			var h, b time.Duration
			var herr, berr error
			if baseFirst {
				b, berr = timeBase(app, s)
				h, herr = timeHead(app, s)
			} else {
				h, herr = timeHead(app, s)
				b, berr = timeBase(app, s)
			}
			if herr != nil || berr != nil {
				return nil, fmt.Errorf("%s under %v: head: %v, base: %v", app, headSchemes[s], herr, berr)
			}
			ratios[s] = append(ratios[s], float64(h)/float64(b))
		}
	}
	return ratios, nil
}

func run() (failed bool, err error) {
	// Warm-up: each copy records its own kernels and harvest traces.
	if _, err := round(true); err != nil {
		return false, err
	}
	all := make([]float64, gate.Rounds)
	perScheme := make([][]float64, len(headSchemes))
	for r := range all {
		ratios, err := round(r%2 == 0)
		if err != nil {
			return false, err
		}
		var cells []float64
		for s, rs := range ratios {
			perScheme[s] = append(perScheme[s], gate.Geomean(rs))
			cells = append(cells, rs...)
		}
		all[r] = gate.Geomean(cells)
	}

	fmt.Printf("%d cells (%s at scale %g, %d schemes), %d rounds; per-round geomean of head÷base time\n",
		len(apps)*len(headSchemes), strings.Join(apps, ", "), scale, len(headSchemes), gate.Rounds)
	fmt.Printf("%-16s %7s %7s %7s %7s\n", "", "median", "q1", "q3", "slower")
	line := func(name string, ratios []float64) gate.Summary {
		sum := gate.Summarize(ratios)
		fmt.Printf("%-16s %7.3f %7.3f %7.3f %4d/%d\n", name, sum.Median, sum.Q1, sum.Q3, sum.Slower, sum.N)
		return sum
	}
	verdict := line("all", all)
	for s, rs := range perScheme {
		line(headSchemes[s].String(), rs)
	}
	rounds := make([]string, len(all))
	for r, v := range all {
		rounds[r] = fmt.Sprintf("%.3f", v)
	}
	fmt.Printf("rounds: %s\n", strings.Join(rounds, " "))
	rule := fmt.Sprintf("fails when the median is above %g and the head is slower in at least %d of %d rounds", gate.Bound, gate.MinSlower, gate.Rounds)
	if verdict.Fails() {
		fmt.Printf("FAIL: the head is slower than the base (%s)\n", rule)
		return true, nil
	}
	fmt.Printf("pass (%s)\n", rule)
	return false, nil
}
