// Package gate is the performance gate's verdict rule. Each round times
// every cell once under the head and once under the base; the round's
// ratio is the geometric mean of head÷base time over its cells. The gate
// fails only when the median round ratio is above Bound and the head was
// slower in at least MinSlower of the Rounds rounds.
//
// Both constants come from runs on a 2-vCPU host. Ten runs of a commit
// against itself read medians 0.958–1.005, most of them below 1 from code
// layout alone, with the head slower in 2–8 of 15 rounds. Ten runs of a
// head that busy-waits 10% of each run read 1.083–1.119, slower in 14–15
// of 15.
package gate

import (
	"math"
	"sort"
)

const (
	// Rounds is how many timed rounds the gate runs.
	Rounds = 15
	// Bound is the median round ratio the head must exceed to fail.
	Bound = 1.04
	// MinSlower is how many rounds the head must also be slower in.
	MinSlower = 12
)

// Summary describes a set of round ratios.
type Summary struct {
	Median, Q1, Q3 float64
	// Slower counts the rounds whose ratio is above 1, of N.
	Slower, N int
}

// Summarize computes the median, the quartiles (linear interpolation
// between order statistics) and the slower-round count of ratios.
func Summarize(ratios []float64) Summary {
	s := append([]float64(nil), ratios...)
	sort.Float64s(s)
	out := Summary{Median: quantile(s, 0.5), Q1: quantile(s, 0.25), Q3: quantile(s, 0.75), N: len(s)}
	for _, r := range s {
		if r > 1 {
			out.Slower++
		}
	}
	return out
}

// Fails is the verdict: the median above Bound and the head slower in at
// least MinSlower rounds.
func (s Summary) Fails() bool { return s.Median > Bound && s.Slower >= MinSlower }

// Geomean is the geometric mean of ratios.
func Geomean(ratios []float64) float64 {
	var logs float64
	for _, r := range ratios {
		logs += math.Log(r)
	}
	return math.Exp(logs / float64(len(ratios)))
}

// quantile reads the q-quantile of sorted s; NaN when s is empty.
func quantile(s []float64, q float64) float64 {
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
