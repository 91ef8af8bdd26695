package experiments

import (
	"context"

	"fmt"

	"edbp/internal/cache"
	"edbp/internal/energy"
	"edbp/internal/nvm"
	"edbp/internal/sim"
)

// sensitivitySchemes are the bars of each sensitivity figure.
var sensitivitySchemes = []sim.Scheme{sim.Baseline, sim.Decay, sim.EDBP, sim.DecayEDBP}

// sensitivity runs every scheme at every axis value and reports speedups
// normalized to the *default-configuration* baseline, exactly like the
// paper's Figures 10–17 ("normalized to NVSRAMCache with default
// settings in Table II").
func (ts *traceSet) sensitivity(ctx context.Context, id, title, axis string, values []string, mutate func(c *sim.Config, vi int)) (*Table, error) {
	// Default-config baseline (the denominator) plus every variant.
	jobs := []job{{scheme: sim.Baseline}}
	for vi := range values {
		for _, s := range sensitivitySchemes {
			vi, s := vi, s
			jobs = append(jobs, job{scheme: s, mutate: func(c *sim.Config) { mutate(c, vi) }})
		}
	}
	res, err := ts.runMatrix(ctx, jobs)
	if err != nil {
		return nil, err
	}
	base := res[0]

	t := &Table{
		ID:     id,
		Title:  title,
		Header: []string{axis},
	}
	for _, s := range sensitivitySchemes {
		t.Header = append(t.Header, s.String())
	}
	k := 1
	for vi := range values {
		row := []string{values[vi]}
		for range sensitivitySchemes {
			row = append(row, f3(geoSpeedup(res[k], base)))
			k++
		}
		t.Rows = append(t.Rows, row)
	}
	return t, nil
}

// Figure10 reproduces Figure 10: replacement-policy sensitivity (the
// paper contrasts naive LRU against DRRIP; we include the other
// implemented policies as extension rows).
func Figure10(ctx context.Context, o Options) (*Table, error) {
	o = o.normalize()
	ts, err := newTraceSet(o)
	if err != nil {
		return nil, err
	}
	policies := []cache.PolicyKind{cache.LRU, cache.DRRIP, cache.PLRU, cache.FIFO, cache.Random}
	labels := make([]string, len(policies))
	for i, p := range policies {
		labels[i] = p.String()
	}
	t, err := ts.sensitivity(ctx, "Figure 10", "Sensitivity: cache replacement policy", "policy", labels,
		func(c *sim.Config, vi int) { c.DCachePolicy = policies[vi] })
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "the paper evaluates LRU vs DRRIP; PLRU/FIFO/Random rows are extensions")
	return t, nil
}

// Figure11 reproduces Figure 11: cache-size sensitivity.
func Figure11(ctx context.Context, o Options) (*Table, error) {
	o = o.normalize()
	ts, err := newTraceSet(o)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(cacheSizes))
	for i, s := range cacheSizes {
		labels[i] = sizeLabel(s)
	}
	return ts.sensitivity(ctx, "Figure 11", "Sensitivity: data cache size (normalized to 4kB baseline)", "size", labels,
		func(c *sim.Config, vi int) { c.DCacheBytes = cacheSizes[vi] })
}

// Figure12 reproduces Figure 12: associativity sensitivity. EDBP's
// threshold ladder re-derives per associativity (n−1 thresholds).
func Figure12(ctx context.Context, o Options) (*Table, error) {
	o = o.normalize()
	ts, err := newTraceSet(o)
	if err != nil {
		return nil, err
	}
	ways := []int{1, 2, 4, 8}
	labels := make([]string, len(ways))
	for i, w := range ways {
		labels[i] = fmt.Sprintf("%d-way", w)
	}
	return ts.sensitivity(ctx, "Figure 12", "Sensitivity: cache associativity (normalized to 4-way baseline)", "assoc", labels,
		func(c *sim.Config, vi int) { c.DCacheWays = ways[vi] })
}

// Figure13 reproduces Figure 13: NVM technology sensitivity.
func Figure13(ctx context.Context, o Options) (*Table, error) {
	o = o.normalize()
	ts, err := newTraceSet(o)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(nvm.Techs))
	for i, t := range nvm.Techs {
		labels[i] = t.String()
	}
	return ts.sensitivity(ctx, "Figure 13", "Sensitivity: NVM technology", "tech", labels,
		func(c *sim.Config, vi int) { c.MemTech = nvm.Techs[vi] })
}

// Figure14 reproduces Figure 14: memory-size sensitivity.
func Figure14(ctx context.Context, o Options) (*Table, error) {
	o = o.normalize()
	ts, err := newTraceSet(o)
	if err != nil {
		return nil, err
	}
	sizesMB := []int64{2, 8, 16, 32}
	labels := make([]string, len(sizesMB))
	for i, s := range sizesMB {
		labels[i] = fmt.Sprintf("%dMB", s)
	}
	return ts.sensitivity(ctx, "Figure 14", "Sensitivity: memory size", "memory", labels,
		func(c *sim.Config, vi int) { c.MemBytes = sizesMB[vi] << 20 })
}

// Figure15 reproduces Figure 15: energy-condition sensitivity across the
// four harvesting environments.
func Figure15(ctx context.Context, o Options) (*Table, error) {
	o = o.normalize()
	ts, err := newTraceSet(o)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(energy.TraceKinds))
	for i, k := range energy.TraceKinds {
		labels[i] = k.String()
	}
	return ts.sensitivity(ctx, "Figure 15", "Sensitivity: energy conditions", "trace", labels,
		func(c *sim.Config, vi int) { c.TraceKind = energy.TraceKinds[vi] })
}

// capSizes is the Figure 16 capacitor sweep in µF.
var capSizes = []float64{0.47, 1, 4.7, 10, 47, 100}

// Figure16 reproduces Figure 16: capacitor-size sensitivity.
func Figure16(ctx context.Context, o Options) (*Table, error) {
	o = o.normalize()
	ts, err := newTraceSet(o)
	if err != nil {
		return nil, err
	}
	labels := make([]string, len(capSizes))
	for i, c := range capSizes {
		labels[i] = fmt.Sprintf("%gµF", c)
	}
	t, err := ts.sensitivity(ctx, "Figure 16", "Sensitivity: capacitor size", "capacitor", labels,
		func(c *sim.Config, vi int) { c.Capacitor.Capacitance = sim.Farads(capSizes[vi]) })
	if err != nil {
		return nil, err
	}
	t.Notes = append(t.Notes, "larger capacitors mean fewer outages and fewer zombies: EDBP's edge over the baseline shrinks")
	return t, nil
}

// Figure17 reproduces Figure 17's condensed sensitivity grid: one row per
// non-default axis setting, normalized to the default baseline.
func Figure17(ctx context.Context, o Options) (*Table, error) {
	o = o.normalize()
	ts, err := newTraceSet(o)
	if err != nil {
		return nil, err
	}
	type axisPoint struct {
		label  string
		mutate func(*sim.Config)
	}
	points := []axisPoint{
		{"policy=DRRIP", func(c *sim.Config) { c.DCachePolicy = cache.DRRIP }},
		{"size=1kB", func(c *sim.Config) { c.DCacheBytes = 1024 }},
		{"size=16kB", func(c *sim.Config) { c.DCacheBytes = 16384 }},
		{"assoc=2", func(c *sim.Config) { c.DCacheWays = 2 }},
		{"assoc=8", func(c *sim.Config) { c.DCacheWays = 8 }},
		{"nvm=STTRAM", func(c *sim.Config) { c.MemTech = nvm.STTRAM }},
		{"mem=32MB", func(c *sim.Config) { c.MemBytes = 32 << 20 }},
		{"trace=Solar", func(c *sim.Config) { c.TraceKind = energy.Solar }},
		{"cap=47µF", func(c *sim.Config) { c.Capacitor.Capacitance = 47e-6 }},
		{"default", func(c *sim.Config) {}},
	}
	labels := make([]string, len(points))
	for i, p := range points {
		labels[i] = p.label
	}
	return ts.sensitivity(ctx, "Figure 17", "Sensitivity grid (normalized to default baseline)", "setting", labels,
		func(c *sim.Config, vi int) { points[vi].mutate(c) })
}
