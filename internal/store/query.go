// Query surface over the experiment store: a small SELECT-style grammar
// (DESIGN.md §11) parsed by ParseQuery and evaluated by Execute into an
// experiments.Table, the repo's common printable artefact. cmd/edbpq and
// edbpd's GET /query share both halves.
package store

import (
	"context"
	"fmt"
	"sort"
	"strconv"
	"strings"

	"edbp/internal/experiments"
	"edbp/internal/fuzz"
	"edbp/internal/sim"
)

// Metric is one queryable per-run quantity. LowerIsBetter drives the
// direction-aware regression flagging of delta queries (Delta.Mark).
type Metric struct {
	Name          string
	Help          string
	LowerIsBetter bool
	Get           func(*sim.Result) float64
}

// Metrics lists every queryable metric, in presentation order.
var Metrics = []Metric{
	{"wall_s", "simulated end-to-end seconds (hibernation included)", true,
		func(r *sim.Result) float64 { return r.WallTime }},
	{"active_s", "simulated powered seconds", true,
		func(r *sim.Result) float64 { return r.ActiveTime }},
	{"energy_mj", "total consumed energy (mJ)", true,
		func(r *sim.Result) float64 { return r.Energy.Total() * 1e3 }},
	{"miss_pct", "data cache demand miss rate (%)", true,
		func(r *sim.Result) float64 { return 100 * r.DCacheStats.MissRate() }},
	{"outages", "power failures over the run", true,
		func(r *sim.Result) float64 { return float64(r.Outages) }},
	{"checkpoints", "JIT checkpoints taken", true,
		func(r *sim.Result) float64 { return float64(r.Checkpoints) }},
	{"coverage_pct", "dead/zombie blocks correctly identified (%)", false,
		func(r *sim.Result) float64 { return 100 * r.Prediction.Coverage() }},
	{"accuracy_pct", "gating decisions that were correct (%)", false,
		func(r *sim.Result) float64 { return 100 * r.Prediction.Accuracy() }},
	{"instructions", "instructions retired", false,
		func(r *sim.Result) float64 { return float64(r.Instructions) }},
}

// MetricByName resolves a metric name.
func MetricByName(name string) (Metric, error) {
	for _, m := range Metrics {
		if m.Name == name {
			return m, nil
		}
	}
	names := make([]string, len(Metrics))
	for i, m := range Metrics {
		names[i] = m.Name
	}
	return Metric{}, fmt.Errorf("store: unknown metric %q (want one of %s)", name, strings.Join(names, ", "))
}

// QueryKind discriminates parsed queries.
type QueryKind int

const (
	// QueryRuns lists matching stored runs.
	QueryRuns QueryKind = iota
	// QueryAgg aggregates a metric per scheme (mean ± 95% CI, min/max).
	QueryAgg
	// QueryDelta diffs a metric per scheme between two commits with
	// direction-aware regression flagging.
	QueryDelta
	// QueryWCET lists stored worst-case completion-time records.
	QueryWCET
	// QueryDistinct lists distinct apps, schemes or commits.
	QueryDistinct
)

// Query is one parsed statement.
type Query struct {
	Kind      QueryKind
	Metric    string  // agg, delta
	From, To  string  // delta
	Threshold float64 // delta; default 0.10
	Distinct  string  // "apps" | "schemes" | "commits"
	Filter    Filter
}

// ParseQuery parses the SELECT-style grammar:
//
//	select runs  [where <cond> [and <cond>]…] [limit N]
//	select agg <metric> [where …]
//	select delta <metric> from <commitA> to <commitB> [where …] [threshold 0.15]
//	select wcet  [where …] [limit N]
//	select apps | schemes | commits
//
// Conditions are key=value over app, scheme, seed, commit, hash and env
// (WCET queries). The leading "select" may be omitted.
func ParseQuery(q string) (*Query, error) {
	toks := strings.Fields(q)
	if len(toks) > 0 && strings.EqualFold(toks[0], "select") {
		toks = toks[1:]
	}
	if len(toks) == 0 {
		return nil, fmt.Errorf("store: empty query")
	}
	out := &Query{Threshold: 0.10}
	verb := strings.ToLower(toks[0])
	toks = toks[1:]
	switch verb {
	case "runs":
		out.Kind = QueryRuns
	case "agg":
		out.Kind = QueryAgg
		if len(toks) == 0 {
			return nil, fmt.Errorf("store: agg needs a metric (e.g. \"select agg wall_s\")")
		}
		if _, err := MetricByName(toks[0]); err != nil {
			return nil, err
		}
		out.Metric, toks = toks[0], toks[1:]
	case "delta":
		out.Kind = QueryDelta
		if len(toks) < 5 || !strings.EqualFold(toks[1], "from") || !strings.EqualFold(toks[3], "to") {
			return nil, fmt.Errorf("store: delta syntax is \"select delta <metric> from <commit> to <commit>\"")
		}
		if _, err := MetricByName(toks[0]); err != nil {
			return nil, err
		}
		out.Metric, out.From, out.To = toks[0], toks[2], toks[4]
		toks = toks[5:]
	case "wcet":
		out.Kind = QueryWCET
	case "apps", "schemes", "commits":
		out.Kind = QueryDistinct
		out.Distinct = verb
	default:
		return nil, fmt.Errorf("store: unknown query verb %q (want runs, agg, delta, wcet, apps, schemes or commits)", verb)
	}

	for len(toks) > 0 {
		switch strings.ToLower(toks[0]) {
		case "where", "and":
			toks = toks[1:]
			if len(toks) == 0 {
				return nil, fmt.Errorf("store: dangling where/and")
			}
			k, v, ok := strings.Cut(toks[0], "=")
			if !ok {
				return nil, fmt.Errorf("store: condition %q is not key=value", toks[0])
			}
			switch strings.ToLower(k) {
			case "app":
				out.Filter.App = v
			case "scheme":
				out.Filter.Scheme = v
			case "commit":
				out.Filter.Commit = v
			case "hash", "config_hash":
				out.Filter.ConfigHash = v
			case "env":
				out.Filter.Env = v
			case "seed":
				seed, err := strconv.ParseUint(v, 10, 64)
				if err != nil {
					return nil, fmt.Errorf("store: bad seed %q", v)
				}
				out.Filter.Seed = &seed
			default:
				return nil, fmt.Errorf("store: unknown condition field %q (want app, scheme, seed, commit, hash or env)", k)
			}
			toks = toks[1:]
		case "limit":
			if len(toks) < 2 {
				return nil, fmt.Errorf("store: limit needs a count")
			}
			n, err := strconv.Atoi(toks[1])
			if err != nil || n < 1 {
				return nil, fmt.Errorf("store: bad limit %q", toks[1])
			}
			out.Filter.Limit = n
			toks = toks[2:]
		case "threshold":
			if out.Kind != QueryDelta {
				return nil, fmt.Errorf("store: threshold applies only to delta queries")
			}
			if len(toks) < 2 {
				return nil, fmt.Errorf("store: threshold needs a value")
			}
			t, err := strconv.ParseFloat(toks[1], 64)
			if err != nil || t < 0 {
				return nil, fmt.Errorf("store: bad threshold %q", toks[1])
			}
			out.Threshold = t
			toks = toks[2:]
		default:
			return nil, fmt.Errorf("store: unexpected token %q", toks[0])
		}
	}
	return out, nil
}

// Execute evaluates a parsed query into a printable table.
func (s *Store) Execute(ctx context.Context, q *Query) (*experiments.Table, error) {
	switch q.Kind {
	case QueryRuns:
		return s.execRuns(q)
	case QueryAgg:
		return s.execAgg(q)
	case QueryDelta:
		return s.execDelta(q)
	case QueryWCET:
		return s.execWCET(q)
	case QueryDistinct:
		return s.execDistinct(q)
	}
	return nil, fmt.Errorf("store: unknown query kind %d", q.Kind)
}

func shortHash(h string) string {
	if len(h) > 12 {
		return h[:12]
	}
	return h
}

func (s *Store) execRuns(q *Query) (*experiments.Table, error) {
	runs, err := s.Select(q.Filter)
	if err != nil {
		return nil, err
	}
	t := &experiments.Table{
		ID:     "runs",
		Title:  "stored runs (append order)",
		Header: []string{"app", "scheme", "seed", "commit", "cfg", "time", "wall_s", "energy_mj", "miss_pct", "outages", "trunc"},
	}
	for _, r := range runs {
		trunc := ""
		if r.Result.Truncated {
			trunc = "yes"
		}
		t.Rows = append(t.Rows, []string{
			r.Key.App, r.Key.Scheme, strconv.FormatUint(r.Key.Seed, 10),
			r.Key.Commit, shortHash(r.Key.ConfigHash), strconv.FormatInt(r.Time, 10),
			fmt.Sprintf("%.6f", r.Result.WallTime),
			fmt.Sprintf("%.6f", r.Result.Energy.Total()*1e3),
			fmt.Sprintf("%.2f", 100*r.Result.DCacheStats.MissRate()),
			strconv.Itoa(r.Result.Outages), trunc,
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d run(s)", len(runs)))
	return t, nil
}

// schemeOrder sorts scheme names in sim presentation order, with unknown
// names (future schemes) alphabetical at the end.
func schemeOrder(names []string) {
	rank := make(map[string]int, len(sim.Schemes))
	for i, sch := range sim.Schemes {
		rank[sch.String()] = i
	}
	sort.Slice(names, func(i, j int) bool {
		ri, iok := rank[names[i]]
		rj, jok := rank[names[j]]
		switch {
		case iok && jok:
			return ri < rj
		case iok:
			return true
		case jok:
			return false
		default:
			return names[i] < names[j]
		}
	})
}

func (s *Store) execAgg(q *Query) (*experiments.Table, error) {
	m, err := MetricByName(q.Metric)
	if err != nil {
		return nil, err
	}
	runs, err := s.Select(q.Filter)
	if err != nil {
		return nil, err
	}
	acc := map[string]*fuzz.Welford{}
	for _, r := range runs {
		w := acc[r.Key.Scheme]
		if w == nil {
			w = &fuzz.Welford{}
			acc[r.Key.Scheme] = w
		}
		w.Add(m.Get(r.Result))
	}
	names := make([]string, 0, len(acc))
	for n := range acc {
		names = append(names, n)
	}
	schemeOrder(names)
	t := &experiments.Table{
		ID:     "agg " + m.Name,
		Title:  m.Help + " per scheme, mean ± 95% CI",
		Header: []string{"scheme", "n", "mean", "ci95", "min", "max"},
	}
	for _, n := range names {
		w := acc[n]
		t.Rows = append(t.Rows, []string{
			n, strconv.Itoa(w.N()),
			fmt.Sprintf("%.6f", w.Mean()), fmt.Sprintf("%.6f", w.CI95()),
			fmt.Sprintf("%.6f", w.Min()), fmt.Sprintf("%.6f", w.Max()),
		})
	}
	return t, nil
}

// Delta is one scheme's old→new comparison in a delta query.
type Delta struct {
	Old, New float64
	// Pct is the signed relative change (new-old)/old; +0.20 means the
	// metric grew 20%.
	Pct float64
	// Regression is true when the change is in the bad direction by more
	// than the threshold.
	Regression bool
}

// Mark fills Pct and Regression from Old/New: the signed relative change,
// flagged when it moves in the bad direction by more than threshold. A
// zero Old never flags.
func (d *Delta) Mark(lowerIsBetter bool, threshold float64) {
	d.Pct = 0
	if d.Old != 0 {
		d.Pct = (d.New - d.Old) / d.Old
	}
	bad := d.Pct
	if !lowerIsBetter {
		bad = -bad
	}
	d.Regression = d.Old != 0 && bad > threshold
}

func (s *Store) execDelta(q *Query) (*experiments.Table, error) {
	m, err := MetricByName(q.Metric)
	if err != nil {
		return nil, err
	}
	means := func(commit string) (map[string]*fuzz.Welford, error) {
		f := q.Filter
		f.Commit = commit
		f.Limit = 0
		runs, err := s.Select(f)
		if err != nil {
			return nil, err
		}
		acc := map[string]*fuzz.Welford{}
		for _, r := range runs {
			w := acc[r.Key.Scheme]
			if w == nil {
				w = &fuzz.Welford{}
				acc[r.Key.Scheme] = w
			}
			w.Add(m.Get(r.Result))
		}
		return acc, nil
	}
	oldM, err := means(q.From)
	if err != nil {
		return nil, err
	}
	newM, err := means(q.To)
	if err != nil {
		return nil, err
	}
	if len(oldM) == 0 {
		return nil, fmt.Errorf("store: no runs stored at commit %q", q.From)
	}
	if len(newM) == 0 {
		return nil, fmt.Errorf("store: no runs stored at commit %q", q.To)
	}
	names := make([]string, 0, len(oldM))
	for n := range oldM {
		if _, ok := newM[n]; ok {
			names = append(names, n)
		}
	}
	schemeOrder(names)
	t := &experiments.Table{
		ID:     "delta " + m.Name,
		Title:  fmt.Sprintf("%s per scheme, %s → %s (threshold %g%%, %s is better)", m.Help, q.From, q.To, 100*q.Threshold, betterWord(m)),
		Header: []string{"scheme", "n_old", "n_new", "old", "new", "pct", "verdict"},
	}
	regressions := 0
	for _, n := range names {
		d := Delta{Old: oldM[n].Mean(), New: newM[n].Mean()}
		d.Mark(m.LowerIsBetter, q.Threshold)
		verdict := "ok"
		if d.Regression {
			verdict = "REGRESSION"
			regressions++
		}
		t.Rows = append(t.Rows, []string{
			n, strconv.Itoa(oldM[n].N()), strconv.Itoa(newM[n].N()),
			fmt.Sprintf("%.6f", d.Old), fmt.Sprintf("%.6f", d.New),
			fmt.Sprintf("%+.2f%%", 100*d.Pct), verdict,
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d scheme(s) compared, %d regression(s)", len(names), regressions))
	return t, nil
}

func betterWord(m Metric) string {
	if m.LowerIsBetter {
		return "lower"
	}
	return "higher"
}

func (s *Store) execWCET(q *Query) (*experiments.Table, error) {
	recs := s.WCETs(q.Filter)
	sort.SliceStable(recs, func(i, j int) bool {
		a, b := recs[i], recs[j]
		if a.App != b.App {
			return a.App < b.App
		}
		if a.Env != b.Env {
			return a.Env < b.Env
		}
		if a.Time != b.Time {
			return a.Time < b.Time
		}
		return a.Commit < b.Commit
	})
	t := &experiments.Table{
		ID:     "wcet",
		Title:  "worst-case completion-time bounds per (app, environment) class, oldest first",
		Header: []string{"app", "env", "commit", "time", "cases", "max_observed_s", "max_bound_s", "exceeded"},
	}
	for _, w := range recs {
		bound := "inf"
		if f := float64(w.MaxBound); f == f && !(f > 1e308) { // finite
			bound = fmt.Sprintf("%.3f", f)
		}
		t.Rows = append(t.Rows, []string{
			w.App, w.Env, w.Commit, strconv.FormatInt(w.Time, 10),
			strconv.Itoa(w.Cases), fmt.Sprintf("%.3f", w.MaxObserved), bound, strconv.Itoa(w.Exceeded),
		})
	}
	t.Notes = append(t.Notes, fmt.Sprintf("%d record(s)", len(recs)))
	return t, nil
}

func (s *Store) execDistinct(q *Query) (*experiments.Table, error) {
	var vals []string
	switch q.Distinct {
	case "apps":
		vals = s.Apps()
	case "schemes":
		vals = s.SchemeNames()
	case "commits":
		vals = s.Commits()
	}
	t := &experiments.Table{
		ID:     q.Distinct,
		Title:  "distinct stored " + q.Distinct,
		Header: []string{q.Distinct},
	}
	for _, v := range vals {
		t.Rows = append(t.Rows, []string{v})
	}
	return t, nil
}
