package main

import (
	"bytes"
	"runtime"
	"strings"
	"testing"
)

// TestScaleRejectedBeforeRecording: every -scale workload.CheckScale
// rejects fails with status 1 before any kernel is recorded (crc32 just
// past the bound would allocate about 76 MB), and a valid one records.
func TestScaleRejectedBeforeRecording(t *testing.T) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for _, scale := range []string{"NaN", "+Inf", "-Inf", "-1", "4.0000001", "5", "256"} {
		var stdout, stderr bytes.Buffer
		if code := run([]string{"-app", "crc32", "-scale", scale}, &stdout, &stderr); code != 1 {
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
	if code := run([]string{"-app", "crc32", "-scale", "0.05"}, &stdout, &stderr); code != 0 || !strings.HasPrefix(stdout.String(), "crc32 ") {
		t.Errorf("-scale 0.05: exit %d, stdout %q, stderr %q", code, stdout.String(), stderr.String())
	}
}

// TestDumpGolden pins the bytes of one event dump: the stats line and the
// first 16 events of crc32 at scale 0.05, as op number and hex argument.
func TestDumpGolden(t *testing.T) {
	const want = `crc32          MiBench    instr=   64258 ld/st= 37.7% loads=   16000 stores=   8256 data=   9024B events=   40258 regions= 1 checksum=fc395591
     0 op=2 arg=0x0
     1 op=0 arg=0x2
     2 op=2 arg=0x1
     3 op=0 arg=0x2
     4 op=2 arg=0x2
     5 op=0 arg=0x2
     6 op=2 arg=0x3
     7 op=0 arg=0x2
     8 op=2 arg=0x4
     9 op=0 arg=0x2
    10 op=2 arg=0x5
    11 op=0 arg=0x2
    12 op=2 arg=0x6
    13 op=0 arg=0x2
    14 op=2 arg=0x7
    15 op=0 arg=0x2
`
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-app", "crc32", "-scale", "0.05", "-dump", "16"}, &stdout, &stderr); code != 0 {
		t.Fatalf("exit %d, stderr %q", code, stderr.String())
	}
	if got := stdout.String(); got != want {
		t.Errorf("dump changed:\n got %q\nwant %q", got, want)
	}
}
