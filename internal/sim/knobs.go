package sim

import (
	"math"
	"strconv"
	"strings"

	"edbp/internal/cache"
	"edbp/internal/energy"
	"edbp/internal/nvm"
)

// Knobs are a run's user-facing settings: the body of edbpd's POST /run
// and of its grid cells, and cmd/edbpsim's flags. Names are parsed
// case-blind (schemes with ParseScheme's aliases); memory is in MB and
// the capacitor in µF. A zero knob selects Default's Table II value, and
// an empty Scheme selects EDBP. The JSON field names are the wire format.
type Knobs struct {
	App    string  `json:"app"`
	Scheme string  `json:"scheme"`
	Trace  string  `json:"trace,omitempty"`
	Scale  float64 `json:"scale,omitempty"`
	Seed   uint64  `json:"seed,omitempty"`

	CacheBytes int     `json:"cache_bytes,omitempty"`
	CacheWays  int     `json:"cache_ways,omitempty"`
	Policy     string  `json:"policy,omitempty"`
	NVM        string  `json:"nvm,omitempty"`
	MemMB      int64   `json:"mem_mb,omitempty"`
	CapUF      float64 `json:"cap_uf,omitempty"`

	ICacheSRAM    bool `json:"icache_sram,omitempty"`
	PredictICache bool `json:"predict_icache,omitempty"`
	Leak80Off     bool `json:"leak80off,omitempty"`
}

// Config builds the run's Config from Default and validates it as
// RunContext would, so every rejection is a *ConfigError before the run
// is queued. It is the one builder of a run's Config from its settings:
// the library, edbpd and edbpsim all call it. The Config is returned
// un-normalized: its ConfigHash is the run's identity (internal/store
// keys by it), and spellings of one setting build one Config.
func (k Knobs) Config() (Config, error) {
	scheme := EDBP
	var err error
	if k.Scheme != "" {
		if scheme, err = ParseScheme(k.Scheme); err != nil {
			return Config{}, &ConfigError{Field: "Scheme", Err: err}
		}
	}
	cfg := Default(k.App, scheme)
	if k.Trace != "" {
		if cfg.TraceKind, err = energy.ParseTraceKind(k.Trace); err != nil {
			return Config{}, &ConfigError{Field: "TraceKind", Err: err}
		}
	}
	if k.Policy != "" {
		if cfg.DCachePolicy, err = cache.ParsePolicy(k.Policy); err != nil {
			return Config{}, &ConfigError{Field: "DCachePolicy", Err: err}
		}
	}
	if k.NVM != "" {
		if cfg.MemTech, err = nvm.ParseTech(k.NVM); err != nil {
			return Config{}, &ConfigError{Field: "MemTech", Err: err}
		}
	}
	if k.Scale != 0 {
		cfg.Scale = k.Scale
	}
	if k.Seed != 0 {
		cfg.SourceSeed = k.Seed
	}
	if k.CacheBytes != 0 {
		cfg.DCacheBytes = k.CacheBytes
	}
	if k.CacheWays != 0 {
		cfg.DCacheWays = k.CacheWays
	}
	if k.MemMB != 0 {
		if k.MemMB > math.MaxInt64>>20 || k.MemMB < math.MinInt64>>20 {
			return Config{}, cfgErrf("MemBytes", "%d MB overflows a byte count", k.MemMB)
		}
		cfg.MemBytes = k.MemMB << 20
	}
	if k.CapUF != 0 {
		cfg.Capacitor.Capacitance = Farads(k.CapUF)
	}
	cfg.ICacheSRAM = k.ICacheSRAM
	cfg.PredictICache = k.PredictICache
	if k.Leak80Off {
		cfg.DCacheLeakFactor = 0.2
	}
	if _, err = cfg.normalize(); err != nil {
		return Config{}, err
	}
	return cfg, nil
}

// Farads converts a capacitance in µF to farads exactly: it parses uf's
// shortest decimal with the exponent lowered by 6. So 0.47 µF is
// Default's 0.47e-6 F and 10 µF is 1e-05 F, where uf × 1e-6 lands one
// ulp below each. NaN and ±Inf pass through for validation to reject.
func Farads(uf float64) float64 {
	s := strconv.FormatFloat(uf, 'e', -1, 64)
	i := strings.IndexByte(s, 'e')
	if i < 0 {
		return uf
	}
	// FormatFloat's 'e' form always parses back, so neither call fails;
	// a value that underflows parses as 0, which validation rejects.
	exp, _ := strconv.Atoi(s[i+1:])
	f, _ := strconv.ParseFloat(s[:i]+"e"+strconv.Itoa(exp-6), 64)
	return f
}
