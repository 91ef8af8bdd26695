package sim

import (
	"reflect"
	"strings"
	"testing"

	"edbp/internal/trace"
)

// TestResultCodecRoundTrip proves the store's core guarantee: a real run's
// Result — trace summary, zombie profile and EDBP registers included —
// survives Encode/Decode DeepEqual-exactly in its portable form.
func TestResultCodecRoundTrip(t *testing.T) {
	cfg := Default("crc32", DecayEDBP)
	cfg.Scale = 0.02
	cfg.CollectZombieProfile = true
	cfg.Recorder = trace.NewRecorder(trace.Options{Label: "codec-test", EventCap: 256, SampleCap: 64, SampleEvery: 1})
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceSummary == nil || res.ZombieProfile == nil || res.EDBP == nil {
		t.Fatalf("test run produced no summary/profile/edbp stats — the round trip would not cover them")
	}

	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if want := res.Portable(); !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded Result differs from the portable original\n got: %+v\nwant: %+v", got, want)
	}

	// Encoding is deterministic: same Result, same bytes. The edbpd smoke
	// job asserts the same property over HTTP.
	again, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != string(data) {
		t.Fatalf("encoding is not byte-deterministic")
	}
}

// TestResultCodecGolden pins the version envelope and the portable-field
// stripping against a hand-built Result.
func TestResultCodecGolden(t *testing.T) {
	res := &Result{
		Config:       Default("sha", EDBP),
		WallTime:     1.5,
		ActiveTime:   1.25,
		OffTime:      0.25,
		Instructions: 123456,
		PowerCycles:  3,
		Outages:      2,
		OutageTimes:  []float64{0.5, 1.0},
		EDBP:         &EDBPStats{Gated: 10, WrongKills: 1, FinalFPR: 0.1},
	}
	data, err := EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(data), `{"v":1,"result":{`) {
		t.Fatalf("envelope lost its version stamp: %.60s", data)
	}
	got, err := DecodeResult(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res.Portable()) {
		t.Fatalf("golden round trip mismatch\n got: %+v\nwant: %+v", got, res.Portable())
	}
}

func TestEncodeResultRejectsCustomSource(t *testing.T) {
	res := &Result{Config: Default("crc32", Baseline)}
	res.Config.Source = constSourceStub{}
	if _, err := EncodeResult(res); err == nil {
		t.Fatal("expected an error encoding a Result with a custom energy.Source")
	}
}

// constSourceStub is a minimal energy.Source for the rejection test.
type constSourceStub struct{}

func (constSourceStub) Power(t float64) float64 { return 1e-3 }
func (constSourceStub) Name() string            { return "stub" }

func TestDecodeResultVersionMismatch(t *testing.T) {
	if _, err := DecodeResult([]byte(`{"v":99,"result":{}}`)); err == nil || !strings.Contains(err.Error(), "version 99") {
		t.Fatalf("want version mismatch error, got %v", err)
	}
	if _, err := DecodeResult([]byte(`{"v":1}`)); err == nil {
		t.Fatal("want error for an envelope with no result")
	}
	if _, err := DecodeResult([]byte(`not json`)); err == nil {
		t.Fatal("want error for malformed bytes")
	}
}

// TestConfigHash pins the key-generation semantics the store relies on:
// runtime-only fields never shift the hash, every result-shaping knob
// does.
func TestConfigHash(t *testing.T) {
	base := Default("crc32", EDBP)
	h := ConfigHash(base)
	if len(h) != 64 {
		t.Fatalf("want a sha256 hex digest, got %q", h)
	}

	withRuntime := base
	withRuntime.Recorder = trace.NewRecorder(trace.Options{Label: "x"})
	withRuntime.VoltageSampler = func(t, v float64, on bool) {}
	if ConfigHash(withRuntime) != h {
		t.Fatal("attaching observability hooks must not change the config hash")
	}

	for name, mutate := range map[string]func(*Config){
		"scale":     func(c *Config) { c.Scale = 0.5 },
		"seed":      func(c *Config) { c.SourceSeed = 7 },
		"scheme":    func(c *Config) { c.Scheme = Decay },
		"cache":     func(c *Config) { c.DCacheBytes = 8192 },
		"leak":      func(c *Config) { c.DCacheLeakFactor = 0.2 },
		"app":       func(c *Config) { c.App = "sha" },
		"batchless": func(c *Config) { c.BatchCap = 1 },
	} {
		c := base
		mutate(&c)
		if ConfigHash(c) == h {
			t.Errorf("%s: changing the knob must change the hash", name)
		}
	}
}

// FuzzDecodeResult feeds arbitrary bytes to DecodeResult, the decoder of
// every stored run. It must never panic, and a Result it accepts must
// encode and decode again to a DeepEqual Result. The seed corpus under
// testdata/fuzz/FuzzDecodeResult holds EncodeResult outputs of real runs
// (trace summary, zombie profile and EDBP registers among them) and of
// TestResultCodecGolden's hand-built Result; the envelopes below cover the
// rejections.
func FuzzDecodeResult(f *testing.F) {
	for _, env := range []string{`{}`, `{"v":1}`, `{"v":1,"result":null}`, `{"v":2,"result":{}}`, `{"v":1,"result":{}}`} {
		f.Add([]byte(env))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeResult(data)
		if err != nil {
			return
		}
		enc, err := EncodeResult(r)
		if err != nil {
			t.Fatalf("%q decodes, but its Result does not encode: %v", data, err)
		}
		again, err := DecodeResult(enc)
		if err != nil {
			t.Fatalf("%q decodes, but its re-encoding %s does not: %v", data, enc, err)
		}
		if !reflect.DeepEqual(again, r) {
			t.Fatalf("%q decodes to\n%+v\nand after a round trip through %s to\n%+v", data, r, enc, again)
		}
	})
}
