package store

import "testing"

// TestDeltaMark pins the regression semantics of delta queries: the
// signed relative change, flagged in the metric's bad direction.
func TestDeltaMark(t *testing.T) {
	for _, tc := range []struct {
		old, new  float64
		lower     bool
		threshold float64
		pct       float64
		regressed bool
	}{
		{100, 120, true, 0.10, 0.20, true},
		{100, 105, true, 0.10, 0.05, false},
		{100, 80, false, 0.10, -0.20, true},  // higher-is-better dropped 20%
		{100, 120, false, 0.10, 0.20, false}, // higher-is-better improved
		{0, 50, true, 0.10, 0, false},        // zero baseline never flags
	} {
		d := Delta{Old: tc.old, New: tc.new}
		d.Mark(tc.lower, tc.threshold)
		if d.Pct != tc.pct || d.Regression != tc.regressed {
			t.Errorf("Mark(%v→%v lower=%v thr=%v) = pct %v regression %v, want %v/%v",
				tc.old, tc.new, tc.lower, tc.threshold, d.Pct, d.Regression, tc.pct, tc.regressed)
		}
	}
}
