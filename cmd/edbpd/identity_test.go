package main

import (
	"encoding/json"
	"net/http"
	"testing"

	"edbp/internal/sim"
)

// requestConfig decodes a POST /run body into the sim.Config edbpd runs
// for it.
func requestConfig(body string) (sim.Config, error) {
	var k sim.Knobs
	if err := json.Unmarshal([]byte(body), &k); err != nil {
		return sim.Config{}, err
	}
	return k.Config()
}

// TestRequestConfigHash pins sim.ConfigHash, the key every run is stored
// under, of the Config edbpd builds from each request body. A body's hash
// moving orphans every stored run of that config, so these change only
// with a change meant to move store keys. Spellings of one scheme, trace
// or policy name one config, and a body without cap_uf hashes as the
// config sim.Default builds, which the library and cmd/experiments run.
func TestRequestConfigHash(t *testing.T) {
	const (
		crc32EDBP    = "12ba532825d7796b66ec1b1cd67eefe62ae657613984d5b0008c3f69f89658b4"
		crc32Default = "b673f48c4c969da4f6d264ed7bd327de9cbfbcfa5062d4ec6fa89d268040b1da"
		crc32Decay   = "5f81e5943a50e10c0e0ee12baf386bbf99611f5848ce3a12a98c418de2ebe2fa"
	)
	for _, tc := range []struct{ body, hash string }{
		{`{"app":"crc32","scheme":"edbp","scale":0.05}`, crc32EDBP},
		{`{"app":"crc32"}`, crc32Default},
		// An omitted cap_uf is Default's 0.47 µF, exactly.
		{`{"app":"crc32","cap_uf":0.47}`, crc32Default},
		// Every non-boolean field set.
		{`{"app":"sha","scheme":"amc+edbp","trace":"Thermal","scale":0.25,"seed":7,"cache_bytes":8192,` +
			`"cache_ways":8,"policy":"DRRIP","nvm":"STTRAM","mem_mb":64,"cap_uf":1.5}`,
			"64846f191930ba164b0c12b4cdd306d03879c07a4e6fedc01f7364ed46e4b1c4"},
		{`{"app":"crc32","scale":0.05,"leak80off":true}`,
			"c3ae97711cd5b5bfc0837774be08adef1318dc2da195cba4e3a945f121bbd411"},
		{`{"app":"crc32","scale":0.05,"icache_sram":true,"predict_icache":true}`,
			"1686faddd0618a190c6fabd06e4df1e7ff0136c44e004ad72df15a26ad5c94c0"},
		// Alias spellings.
		{`{"app":"crc32","scheme":"decay","scale":0.05}`, crc32Decay},
		{`{"app":"crc32","scheme":"cachedecay","scale":0.05}`, crc32Decay},
		{`{"app":"crc32","scheme":"CacheDecay","scale":0.05}`, crc32Decay},
		{`{"app":"crc32","trace":"RFHome","scale":0.05}`, crc32EDBP},
		{`{"app":"crc32","trace":"rfhome","scale":0.05}`, crc32EDBP},
		{`{"app":"crc32","policy":"LRU","scale":0.05}`, crc32EDBP},
		{`{"app":"crc32","policy":"lru","scale":0.05}`, crc32EDBP},
		{`{"app":"crc32","scheme":"EDBP","trace":"rfhome","policy":"lru","scale":0.05}`, crc32EDBP},
	} {
		cfg, err := requestConfig(tc.body)
		if err != nil {
			t.Errorf("%s: %v", tc.body, err)
			continue
		}
		if got := sim.ConfigHash(cfg); got != tc.hash {
			t.Errorf("%s: ConfigHash %s, want %s", tc.body, got, tc.hash)
		}
	}
}

// aliasGroups are request bodies that spell one config three, two and two
// ways: scheme, trace and policy names.
var aliasGroups = [][]string{
	{
		`{"app":"crc32","scale":0.05,"scheme":"decay"}`,
		`{"app":"crc32","scale":0.05,"scheme":"cachedecay"}`,
		`{"app":"crc32","scale":0.05,"scheme":"CacheDecay"}`,
	},
	{
		`{"app":"crc32","scale":0.05,"seed":2,"trace":"RFHome"}`,
		`{"app":"crc32","scale":0.05,"seed":2,"trace":"rfhome"}`,
	},
	{
		`{"app":"crc32","scale":0.05,"seed":3,"policy":"LRU"}`,
		`{"app":"crc32","scale":0.05,"seed":3,"policy":"lru"}`,
	},
}

// TestAliasOneRun: spellings of one config are one run. Through a
// coordinator and two workers, each alias group is simulated once, on one
// worker, and its other spellings are coordinator cache hits carrying the
// same result; the workers' stores hold each config once.
func TestAliasOneRun(t *testing.T) {
	coord, workers := newFleet(t, "w1", "w2")
	for _, group := range aliasGroups {
		var first runOutput
		for i, body := range group {
			var out runOutput
			if code := doJSON(t, "POST", coord.ts.URL+"/run", body, &out); code != http.StatusOK {
				t.Fatalf("POST /run %s = %d", body, code)
			}
			if i == 0 {
				first = out
				continue
			}
			if !out.CacheHit {
				t.Errorf("%s missed the cache entry of %s", body, group[0])
			}
			out.CacheHit = false
			if out != first {
				t.Errorf("%s answered %+v, %s answered %+v", body, out, group[0], first)
			}
		}
		if first.Node == "" {
			t.Errorf("%s was not dispatched to a worker", group[0])
		}
	}
	if got := fleetRuns(workers); got != float64(len(aliasGroups)) {
		t.Errorf("fleet simulated %g runs for %d configs", got, len(aliasGroups))
	}
	if got := coord.srv.met.cacheHits.Value(); got != 4 {
		t.Errorf("coordinator cache hits = %g, want 4", got)
	}
	if n := storesDisjoint(t, workers); n != len(aliasGroups) {
		t.Errorf("fleet stores hold %d configs, want %d", n, len(aliasGroups))
	}
}

// TestClusterGridAliasDedupe: a grid whose cells differ only in spelling
// dedupes to its distinct configs. Six spellings of two schemes over two
// seeds are four cells, each simulated once and stored on one worker.
func TestClusterGridAliasDedupe(t *testing.T) {
	coord, workers := newFleet(t, "w1", "w2")
	body := `{"base":{"app":"crc32","scale":0.05},"seeds":[1,2],` +
		`"schemes":["decay","cachedecay","CacheDecay","decay+edbp","cachedecay+edbp","combined"]}`
	var view gridView
	if code := doJSON(t, "POST", coord.ts.URL+"/grid?wait=1", body, &view); code != http.StatusOK {
		t.Fatalf("POST /grid?wait=1 = %d", code)
	}
	if view.Summary.Entries != 4 || view.Summary.Done != 4 {
		t.Errorf("grid summary = %+v, want 4 cells done", view.Summary)
	}
	if got := fleetRuns(workers); got != 4 {
		t.Errorf("fleet simulated %g runs for 4 configs", got)
	}
	if n := storesDisjoint(t, workers); n != 4 {
		t.Errorf("fleet stores hold %d configs, want 4", n)
	}
}
