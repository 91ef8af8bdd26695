package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestJSONGolden pins edbpsim -json byte for byte for three command lines:
// Table II defaults at a small scale, every run knob set, and the
// leakage/I-cache switches at full scale. A change meant to move results
// regenerates a file with `go run ./cmd/edbpsim <args> -json`.
func TestJSONGolden(t *testing.T) {
	for _, tc := range []struct {
		golden string
		args   string
	}{
		{"crc32_scale005.json", "-app crc32 -scale 0.05"},
		{"every_knob.json", "-app sha -scheme decay+edbp -trace RFOffice -scale 0.1 -dcache 8192 -ways 8 -policy FIFO" +
			" -nvm FeRAM -mem 8 -cap 0.22 -seed 3 -icache-sram -predict-icache -leak80off"},
		{"leak80off_icache.json", "-leak80off -icache-sram -predict-icache"},
	} {
		t.Run(tc.golden, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", tc.golden))
			if err != nil {
				t.Fatal(err)
			}
			var out, errBuf bytes.Buffer
			args := append(strings.Fields(tc.args), "-json")
			if code := run(context.Background(), args, &out, &errBuf); code != 0 {
				t.Fatalf("edbpsim %s: exit %d; stderr:\n%s", tc.args, code, errBuf.String())
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("edbpsim %s -json drifted from testdata/%s:\n got: %s\nwant: %s", tc.args, tc.golden, out.Bytes(), want)
			}
		})
	}
}

// TestUnknownApp: a workload the registry does not know is a failed run,
// exit status 1, with the reason on stderr and nothing on stdout.
func TestUnknownApp(t *testing.T) {
	var out, errBuf bytes.Buffer
	if code := run(context.Background(), []string{"-app", "nope", "-json"}, &out, &errBuf); code != 1 {
		t.Fatalf("exit %d, want 1; stderr: %s", code, errBuf.String())
	}
	if !strings.Contains(errBuf.String(), `unknown app "nope"`) || out.Len() != 0 {
		t.Errorf("stdout %q, stderr %q: want the unknown-app error on stderr only", out.String(), errBuf.String())
	}
}
