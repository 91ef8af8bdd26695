package sim

import (
	"errors"
	"math"
	"strings"
	"testing"

	"edbp/internal/cache"
	"edbp/internal/core"
	"edbp/internal/predictor"
	"edbp/internal/workload"
)

// TestConfigRejections audits Config validation: every invalid
// configuration a fuzzer can generate must come back as a typed
// *ConfigError naming the offending field — never a panic, a hang, or a
// silently-degenerate run. One subtest per rejection.
func TestConfigRejections(t *testing.T) {
	emptyTrace := workload.NewMem().Finish("empty", 0)

	cases := []struct {
		name   string
		mutate func(*Config)
		field  string // expected ConfigError.Field substring
	}{
		{"zero capacitance", func(c *Config) { c.Capacitor.Capacitance = 0; c.Capacitor.VMax = 3.5 }, "Capacitor"},
		{"negative capacitance", func(c *Config) { c.Capacitor.Capacitance = -1e-6 }, "Capacitor"},
		{"NaN capacitance", func(c *Config) { c.Capacitor.Capacitance = math.NaN() }, "Capacitor"},
		{"inverted voltage window", func(c *Config) { c.Capacitor.VMin = 3.6 }, "Capacitor"},
		{"NaN checkpoint threshold", func(c *Config) { c.Monitor.VCkpt = math.NaN() }, "Monitor"},
		{"restore below checkpoint", func(c *Config) { c.Monitor.VRst = c.Monitor.VCkpt - 0.1 }, "Monitor"},
		{"checkpoint below brown-out", func(c *Config) { c.Monitor.VCkpt = c.Capacitor.VMin - 0.1 }, "Monitor"},
		{"negative-way data cache", func(c *Config) { c.DCacheWays = -4 }, "DCacheWays"},
		{"non-power-of-two data cache", func(c *Config) { c.DCacheBytes = 3000 }, "DCacheBytes"},
		{"block larger than cache", func(c *Config) { c.DCacheBytes = 64; c.BlockBytes = 256 }, "DCacheBytes"},
		{"512-way data cache", func(c *Config) { c.DCacheBytes = 16384; c.DCacheWays = 512 }, "DCacheWays"},
		{"64-way PLRU data cache", func(c *Config) { c.DCacheWays = 64; c.DCachePolicy = cache.PLRU }, "DCachePolicy"},
		{"unknown data cache policy", func(c *Config) { c.DCachePolicy = cache.PolicyKind(99) }, "DCachePolicy"},
		{"negative-way instruction cache", func(c *Config) { c.ICacheWays = -1 }, "ICacheWays"},
		{"512-way instruction cache", func(c *Config) { c.ICacheBytes = 16384; c.ICacheWays = 512 }, "ICacheWays"},
		{"empty trace", func(c *Config) { c.Trace = emptyTrace }, "Trace"},
		{"no app and no trace", func(c *Config) { c.App = "" }, "App"},
		{"unknown app", func(c *Config) { c.App = "nope" }, "App"},
		{"EDBP thresholds for 4 ways on an 8-way cache", func(c *Config) {
			e := core.DefaultConfig(4, c.Monitor.VCkpt, c.Monitor.VRst)
			c.DCacheWays, c.EDBPCfg = 8, &e
		}, "EDBPCfg"},
		{"zero decay interval", func(c *Config) {
			d := predictor.DefaultDecay()
			d.Interval = 0
			c.Scheme, c.DecayCfg = Decay, &d
		}, "DecayCfg"},
		{"2 MiB data cache", func(c *Config) { c.DCacheBytes = 2 << 20 }, "DCacheBytes"},
		{"negative scale", func(c *Config) { c.Scale = -1 }, "Scale"},
		{"NaN scale", func(c *Config) { c.Scale = math.NaN() }, "Scale"},
		{"scale past the bound", func(c *Config) { c.Scale = 256 }, "Scale"},
		{"negative horizon", func(c *Config) { c.MaxSimTime = -5 }, "MaxSimTime"},
		{"NaN horizon", func(c *Config) { c.MaxSimTime = math.NaN() }, "MaxSimTime"},
		{"negative batch cap", func(c *Config) { c.BatchCap = -1 }, "BatchCap"},
		{"NaN leak factor", func(c *Config) { c.DCacheLeakFactor = math.NaN() }, "DCacheLeakFactor"},
		{"negative dynamic scale", func(c *Config) { c.CacheDynScale = -0.5 }, "CacheDynScale"},
		{"predict I-cache without SRAM", func(c *Config) { c.PredictICache = true }, "PredictICache"},
		{"predict I-cache under Ideal", func(c *Config) { c.Scheme = Ideal; c.ICacheSRAM = true; c.PredictICache = true }, "PredictICache"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := Default("crc32", EDBP)
			cfg.Scale = 0.02
			tc.mutate(&cfg)
			res, err := Run(cfg)
			if err == nil {
				t.Fatalf("Run accepted the invalid config (result: %v)", res)
			}
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("error %v (%T) is not a *ConfigError", err, err)
			}
			if !strings.Contains(ce.Field, tc.field) {
				t.Errorf("ConfigError.Field = %q, want it to name %q", ce.Field, tc.field)
			}
			if ce.Error() == "" || !strings.Contains(ce.Error(), "sim: invalid Config.") {
				t.Errorf("unhelpful error string %q", ce.Error())
			}
		})
	}
}

// TestConfigZeroValueDefaults pins the established zero-value convention
// the rejections above must not break: zeroed geometry/threshold fields
// mean "use the Table II default", and only explicitly-invalid values are
// rejected.
func TestConfigZeroValueDefaults(t *testing.T) {
	cfg := Config{App: "crc32", Scale: 0.02, Scheme: Baseline}
	got, err := cfg.normalize()
	if err != nil {
		t.Fatalf("zero-value config rejected: %v", err)
	}
	want := Default("crc32", Baseline)
	if got.DCacheBytes != want.DCacheBytes || got.DCacheWays != want.DCacheWays ||
		got.BlockBytes != want.BlockBytes || got.Capacitor != want.Capacitor ||
		got.Monitor != want.Monitor || got.BatchCap != DefaultBatchCap {
		t.Errorf("normalize() defaults diverged from Default():\n got:  %+v\n want: %+v", got, want)
	}
}
