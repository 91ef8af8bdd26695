package sim

import (
	"encoding/json"
	"errors"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// TestKnobsDefaults: zero knobs build Default's Table II config with
// EDBP, so a run built from knobs and one built from Default share a
// ConfigHash, the key stored runs are filed under.
func TestKnobsDefaults(t *testing.T) {
	got, err := Knobs{App: "crc32"}.Config()
	if err != nil {
		t.Fatal(err)
	}
	want := Default("crc32", EDBP)
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Knobs{App: crc32}.Config() =\n %+v\nwant\n %+v", got, want)
	}
	explicit, err := Knobs{App: "crc32", CapUF: 0.47}.Config()
	if err != nil {
		t.Fatal(err)
	}
	if ConfigHash(explicit) != ConfigHash(got) {
		t.Error("an explicit 0.47 µF builds another config than the default")
	}
}

// TestFarads pins the µF → F conversion: the µF value's decimal with the
// exponent lowered by 6, not the product uf × 1e-6, which lands one ulp
// low for each of these.
func TestFarads(t *testing.T) {
	for _, tc := range []struct{ uf, f float64 }{
		{0.22, 2.2e-07},
		{0.47, Default("", EDBP).Capacitor.Capacitance},
		{10, 1e-05},
		{100, 1e-04},
	} {
		if got := Farads(tc.uf); got != tc.f {
			t.Errorf("Farads(%g) = %g, want %g", tc.uf, got, tc.f)
		}
		cfg, err := Knobs{App: "crc32", CapUF: tc.uf}.Config()
		if err != nil {
			t.Fatal(err)
		}
		if got := cfg.Capacitor.Capacitance; got != tc.f {
			t.Errorf("cap_uf %g builds %g F, want %g", tc.uf, got, tc.f)
		}
	}
}

// TestKnobsRejections: every knob Config cannot use is a *ConfigError
// naming the Config field it sets.
func TestKnobsRejections(t *testing.T) {
	for _, tc := range []struct {
		knobs Knobs
		field string
	}{
		{Knobs{}, "App"},
		{Knobs{App: "nope"}, "App"},
		{Knobs{App: "crc32", Scheme: "bogus"}, "Scheme"},
		{Knobs{App: "crc32", Trace: "Lunar"}, "TraceKind"},
		{Knobs{App: "crc32", Policy: "MRU"}, "DCachePolicy"},
		{Knobs{App: "crc32", NVM: "DRAM"}, "MemTech"},
		{Knobs{App: "crc32", MemMB: 1 << 44}, "MemBytes"},
		{Knobs{App: "crc32", MemMB: -1 << 44}, "MemBytes"},
		{Knobs{App: "crc32", MemMB: -1}, "MemBytes"},
		{Knobs{App: "crc32", CacheBytes: 2 << 20}, "DCacheBytes"},
		{Knobs{App: "crc32", Scale: -1}, "Scale"},
		{Knobs{App: "crc32", CapUF: -1}, "Capacitor"},
		{Knobs{App: "crc32", CapUF: 5e-324}, "Capacitor"}, // underflows to 0 F
		{Knobs{App: "crc32", PredictICache: true}, "PredictICache"},
	} {
		_, err := tc.knobs.Config()
		var ce *ConfigError
		if !errors.As(err, &ce) {
			t.Errorf("%+v: error %v (%T), want a *ConfigError", tc.knobs, err, err)
			continue
		}
		if !strings.Contains(ce.Field, tc.field) {
			t.Errorf("%+v: ConfigError.Field = %q, want it to name %q", tc.knobs, ce.Field, tc.field)
		}
	}
}

// FuzzKnobs decodes arbitrary bytes as a run request body, the bytes edbpd
// reads from POST /run and grid cells. Config must never panic, every
// error it returns must be a *ConfigError (edbpd's 400), and an accepted
// Knobs, encoded and decoded again, must build the same ConfigHash. An
// accepted cap_uf of at most 15 significant digits converts exactly: the
// capacitance prints with cap_uf's digits and its exponent lowered by 6.
func FuzzKnobs(f *testing.F) {
	for _, body := range []string{
		`{"app":"crc32","scheme":"edbp","scale":0.05}`,
		`{"app":"crc32"}`,
		`{"app":"crc32","cap_uf":0.47}`,
		`{"app":"crc32","cap_uf":0.22}`,
		`{"app":"crc32","cap_uf":10}`,
		`{"app":"crc32","cap_uf":100}`,
		`{"app":"crc32","cap_uf":5e-324}`,
		`{"app":"sha","scheme":"amc+edbp","trace":"Thermal","scale":0.25,"seed":7,"cache_bytes":8192,` +
			`"cache_ways":8,"policy":"DRRIP","nvm":"STTRAM","mem_mb":64,"cap_uf":1.5}`,
		`{"app":"crc32","scale":0.05,"leak80off":true}`,
		`{"app":"crc32","scale":0.05,"icache_sram":true,"predict_icache":true}`,
		`{"app":"crc32","scheme":"CacheDecay","trace":"rfhome","policy":"lru","scale":0.05}`,
		`{"app":"crc32","scale":0.05,"cache_bytes":16384,"cache_ways":512}`,
		`{"app":"crc32","scale":0.05,"mem_mb":17592186044416}`,
		`{"app":"nope","scale":-1}`,
	} {
		f.Add([]byte(body))
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		var k Knobs
		if json.Unmarshal(body, &k) != nil {
			return
		}
		cfg, err := k.Config()
		if err != nil {
			var ce *ConfigError
			if !errors.As(err, &ce) {
				t.Fatalf("%s: error %v (%T) is not a *ConfigError", body, err, err)
			}
			return
		}
		if k.CapUF != 0 {
			digits, exp := decimal(k.CapUF)
			gotDigits, gotExp := decimal(cfg.Capacitor.Capacitance)
			// Up to 15 significant digits, a decimal survives a float64
			// round trip (DBL_DIG); a subnormal result keeps fewer.
			if len(digits) <= 15 && cfg.Capacitor.Capacitance >= 0x1p-1022 &&
				(gotDigits != digits || gotExp != exp-6) {
				t.Fatalf("%s: cap_uf %g converts to %g F, want digits %s and exponent %d",
					body, k.CapUF, cfg.Capacitor.Capacitance, digits, exp-6)
			}
		}
		enc, err := json.Marshal(k)
		if err != nil {
			t.Fatalf("%s: re-encoding accepted knobs: %v", body, err)
		}
		var again Knobs
		if err := json.Unmarshal(enc, &again); err != nil {
			t.Fatalf("%s: decoding %s: %v", body, enc, err)
		}
		cfg2, err := again.Config()
		if err != nil {
			t.Fatalf("%s: accepted, but its re-encoding %s is rejected: %v", body, enc, err)
		}
		if h, h2 := ConfigHash(cfg), ConfigHash(cfg2); h != h2 {
			t.Fatalf("%s: ConfigHash %s, after a JSON round trip %s", body, h, h2)
		}
	})
}

// decimal splits v's shortest decimal into its significant digits, without
// the point, and its exponent: 4.7e-07 is ("47", -7).
func decimal(v float64) (digits string, exp int) {
	s := strconv.FormatFloat(v, 'e', -1, 64)
	mant, e, _ := strings.Cut(s, "e")
	exp, _ = strconv.Atoi(e)
	return strings.Replace(mant, ".", "", 1), exp
}
