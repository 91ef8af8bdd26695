package fuzz

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"

	"edbp/internal/experiments"
	"edbp/internal/sim"
)

// Report renders the campaign: corpus summary, per-scheme statistics
// (mean ± 95% CI with the min/max envelope), any violations, the WCET
// table when enabled, and the obs registry snapshot when attached. The
// output is deterministic byte for byte for a given seed whenever the
// budget did not bind: every number derives from the simulation, never
// from wall-clock time, and every iteration order is pinned.
func Report(w io.Writer, c *Campaign) {
	summary := &experiments.Table{
		ID:     "Fuzz",
		Title:  "configuration-matrix campaign",
		Header: []string{"seed", "cases", "executed", "skipped", "truncated", "cancel-probes", "violations"},
		Rows: [][]string{{
			fmt.Sprintf("%#x", c.Opts.Seed),
			strconv.Itoa(len(c.Cases)),
			strconv.Itoa(c.Executed),
			strconv.Itoa(c.Skipped),
			strconv.Itoa(c.Truncated),
			strconv.Itoa(c.CancelProbes),
			strconv.Itoa(len(c.Violations)),
		}},
	}
	if c.Skipped > 0 {
		summary.Notes = append(summary.Notes, "skipped cases were cut by the budget; statistics cover executed cases only")
	}
	summary.Print(w)

	stats := &experiments.Table{
		ID:     "Fuzz stats",
		Title:  "per-scheme metrics over the executed corpus (mean ± 95% CI [min, max])",
		Header: append([]string{"Scheme", "n"}, MetricNames()...),
	}
	for _, scheme := range sim.Schemes {
		n := 0
		if cell := c.Stats.Cell(scheme, MetricNames()[0]); cell != nil {
			n = cell.N()
		}
		if n == 0 {
			continue
		}
		row := []string{scheme.String(), strconv.Itoa(n)}
		for _, name := range MetricNames() {
			row = append(row, formatCell(c.Stats.Cell(scheme, name)))
		}
		stats.Rows = append(stats.Rows, row)
	}
	stats.Print(w)

	if len(c.Violations) > 0 {
		fmt.Fprintf(w, "== Fuzz violations: %d ==\n", len(c.Violations))
		for _, v := range c.Violations {
			fmt.Fprintf(w, "FAIL %s\n", v)
		}
		fmt.Fprintln(w)
	}

	if c.WCET != nil {
		wcet := &experiments.Table{
			ID:     "Fuzz WCET",
			Title:  "ETAP-style worst-case completion per kernel per trace class (completed runs)",
			Header: []string{"App", "Trace", "n", "worst observed(s)", "worst estimate(s)", "exceeded"},
			Notes: []string{
				"estimate = active time + (outages+1) worst-case recharges at the trace's mean power",
				"exceeded counts runs beating their own estimate (outages cluster in lulls below mean power)",
			},
		}
		for _, cl := range c.WCET.Classes {
			bound := "inf"
			if !math.IsInf(cl.MaxBound, 1) {
				bound = fmt.Sprintf("%.3f", cl.MaxBound)
			}
			wcet.Rows = append(wcet.Rows, []string{
				cl.App, cl.Kind.String(), strconv.Itoa(cl.Cases),
				fmt.Sprintf("%.3f", cl.MaxObserved), bound, strconv.Itoa(cl.Exceeded),
			})
		}
		wcet.Print(w)
	}

	if c.Opts.Registry != nil {
		obsTable := &experiments.Table{
			ID:     "Fuzz obs",
			Title:  "campaign metrics (obs registry snapshot)",
			Header: []string{"series", "value"},
		}
		for _, s := range c.Opts.Registry.Snapshot() {
			name := s.Name
			if len(s.Labels) > 0 {
				keys := make([]string, 0, len(s.Labels))
				for k := range s.Labels {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				pairs := make([]string, len(keys))
				for i, k := range keys {
					pairs[i] = fmt.Sprintf("%s=%q", k, s.Labels[k])
				}
				name += "{" + strings.Join(pairs, ",") + "}"
			}
			switch {
			case s.Value != nil:
				obsTable.Rows = append(obsTable.Rows, []string{name, formatNum(*s.Value)})
			case s.Count != nil:
				row := fmt.Sprintf("count=%d", *s.Count)
				if s.Sum != nil {
					row += fmt.Sprintf(" sum=%s", formatNum(*s.Sum))
				}
				obsTable.Rows = append(obsTable.Rows, []string{name, row})
			}
		}
		obsTable.Print(w)
	}
}

// formatCell renders one statistics cell as "mean±ci [min, max]".
func formatCell(cell *Welford) string {
	if cell == nil || cell.N() == 0 {
		return "-"
	}
	return fmt.Sprintf("%s±%s [%s, %s]",
		formatNum(cell.Mean()), formatNum(cell.CI95()), formatNum(cell.Min()), formatNum(cell.Max()))
}

// formatNum renders a number compactly and deterministically: fixed
// 4-significant-digit precision so column widths stay stable.
func formatNum(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e9 {
		return strconv.FormatFloat(v, 'f', -1, 64)
	}
	return strconv.FormatFloat(v, 'g', 4, 64)
}
