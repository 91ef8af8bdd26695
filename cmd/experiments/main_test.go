package main

import (
	"bytes"
	"context"
	"runtime"
	"strings"
	"testing"
)

// TestScaleRejectedBeforeRecording: every -scale workload.CheckScale
// rejects fails with status 1 before any kernel is recorded (crc32 just
// past the bound would allocate about 76 MB), and a valid one runs.
func TestScaleRejectedBeforeRecording(t *testing.T) {
	args := func(scale string) []string {
		return []string{"-run", "fig6", "-apps", "crc32", "-seeds", "1", "-scale", scale}
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, scale := range []string{"NaN", "+Inf", "-Inf", "-1", "4.0000001", "5", "256"} {
		var stdout, stderr bytes.Buffer
		if code := run(context.Background(), args(scale), &stdout, &stderr); code != 1 {
			t.Errorf("-scale %s: exit %d, want 1", scale, code)
		}
		if stdout.Len() != 0 || !strings.Contains(stderr.String(), "scale must be") {
			t.Errorf("-scale %s: stdout %q, stderr %q", scale, stdout.String(), stderr.String())
		}
	}
	runtime.ReadMemStats(&after)
	if mb := float64(after.TotalAlloc-before.TotalAlloc) / (1 << 20); mb > 16 {
		t.Errorf("the rejected scales allocated %.1f MB: a kernel was recorded", mb)
	}

	var stdout, stderr bytes.Buffer
	if code := run(context.Background(), args("0.05"), &stdout, &stderr); code != 0 || !strings.Contains(stdout.String(), "(fig6 took ") {
		t.Errorf("-scale 0.05: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}
