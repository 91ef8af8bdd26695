package gate

import (
	"math"
	"testing"
)

// rounds is n rounds at ratio v followed by rest.
func rounds(v float64, n int, rest ...float64) []float64 {
	out := make([]float64, 0, n+len(rest))
	for i := 0; i < n; i++ {
		out = append(out, v)
	}
	return append(out, rest...)
}

func near(a, b float64) bool { return math.Abs(a-b) < 1e-12 }

func TestSummarize(t *testing.T) {
	// 0.93 … 1.07 in steps of 0.01, out of order.
	ratios := []float64{1.07, 0.93, 1.00, 0.96, 1.04, 0.99, 1.01, 0.95, 1.03, 0.97, 1.06, 0.94, 1.02, 0.98, 1.05}
	got := Summarize(ratios)
	if !near(got.Median, 1.00) || !near(got.Q1, 0.965) || !near(got.Q3, 1.035) {
		t.Errorf("median %v, quartiles [%v, %v]; want 1.00 [0.965, 1.035]", got.Median, got.Q1, got.Q3)
	}
	if got.Slower != 7 || got.N != 15 {
		t.Errorf("slower %d of %d, want 7 of 15", got.Slower, got.N)
	}
	if ratios[0] != 1.07 {
		t.Error("Summarize reordered its input")
	}
}

// TestVerdict pins the rule: fail only when the median is above 1.04
// and the head is slower in at least 12 of 15 rounds.
func TestVerdict(t *testing.T) {
	for _, tc := range []struct {
		name   string
		ratios []float64
		fails  bool
	}{
		{"identical code, 4 of 15 slower", rounds(0.98, 11, 1.01, 1.01, 1.02, 1.03), false},
		{"10% slower in every round", rounds(1.08, 15), true},
		{"slower in exactly 12 rounds", rounds(1.08, 12, 0.99, 0.99, 0.99), true},
		{"slower in only 11 rounds", rounds(1.08, 11, 0.99, 0.99, 0.99, 0.99), false},
		{"median exactly at the bound", rounds(1.04, 15), false},
		{"median just under the bound", rounds(1.039, 15), false},
		{"median just over the bound", rounds(1.041, 15), true},
		{"ties at 1 are not slower", rounds(1.05, 11, 1, 1, 1, 1), false},
	} {
		s := Summarize(tc.ratios)
		if s.Fails() != tc.fails {
			t.Errorf("%s: median %v, slower %d of %d: fails = %v, want %v", tc.name, s.Median, s.Slower, s.N, s.Fails(), tc.fails)
		}
	}
}

func TestGeomean(t *testing.T) {
	if g := Geomean([]float64{2, 0.5, 1, 1}); !near(g, 1) {
		t.Errorf("Geomean(2, 0.5, 1, 1) = %v, want 1", g)
	}
	if g := Geomean([]float64{1.1, 1.1, 1.1}); !near(g, 1.1) {
		t.Errorf("Geomean(1.1 ×3) = %v, want 1.1", g)
	}
}
