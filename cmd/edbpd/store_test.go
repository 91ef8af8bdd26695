package main

import (
	"encoding/json"
	"io"
	"net/http"
	"net/url"
	"reflect"
	"strings"
	"testing"

	"edbp/internal/sim"
	"edbp/internal/store"
)

func storeServer(t *testing.T) (*server, *httptest2, *store.Store) {
	t.Helper()
	st, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	s, ts := testServer(t, serverOptions{store: st, commit: "testcommit12"})
	return s, &httptest2{URL: ts.URL}, st
}

// httptest2 narrows *httptest.Server to what these tests use, keeping the
// helper signature stable.
type httptest2 struct{ URL string }

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, body
}

// TestStorePersistence proves edbpd -store end to end: a fresh run is
// appended (a cache hit is not), GET /runs serves it back, and
// GET /runs?format=raw returns the stored encoding byte for byte — twice.
func TestStorePersistence(t *testing.T) {
	s, ts, st := storeServer(t)

	var out runOutput
	if code := doJSON(t, "POST", ts.URL+"/run", `{"app":"crc32","scheme":"edbp","scale":0.05}`, &out); code != http.StatusOK {
		t.Fatalf("POST /run = %d", code)
	}
	if st.Len() != 1 {
		t.Fatalf("store holds %d records after a fresh run, want 1", st.Len())
	}
	// The identical request is a cache hit: no second append.
	doJSON(t, "POST", ts.URL+"/run", `{"app":"crc32","scheme":"edbp","scale":0.05}`, &out)
	if st.Len() != 1 {
		t.Fatalf("cache hit appended to the store: %d records", st.Len())
	}
	if v := s.met.storeAppends.Value(); v != 1 {
		t.Fatalf("store append counter = %g, want 1", v)
	}

	code, body := get(t, ts.URL+"/runs")
	if code != http.StatusOK {
		t.Fatalf("GET /runs = %d: %s", code, body)
	}
	var runs []storedRun
	mustUnmarshal(t, body, &runs)
	if len(runs) != 1 {
		t.Fatalf("GET /runs returned %d runs, want 1", len(runs))
	}
	k := runs[0].Key
	if k.App != "crc32" || k.Scheme != "EDBP" || k.Commit != "testcommit12" || len(k.ConfigHash) != 64 {
		t.Fatalf("stored key %+v", k)
	}
	if runs[0].Result.WallTime != out.WallSeconds {
		t.Fatalf("stored wall %v, response wall %v", runs[0].Result.WallTime, out.WallSeconds)
	}

	// Byte-exact raw round trip, stable across reads.
	rawURL := ts.URL + "/runs?format=raw&config_hash=" + k.ConfigHash
	code, raw1 := get(t, rawURL)
	if code != http.StatusOK {
		t.Fatalf("raw fetch = %d: %s", code, raw1)
	}
	_, raw2 := get(t, rawURL)
	if string(raw1) != string(raw2) {
		t.Fatal("two raw fetches of the same run differ")
	}
	dec, err := sim.DecodeResult(raw1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dec, runs[0].Result) {
		t.Fatal("raw bytes decode to a different Result than GET /runs returned")
	}

	// Filters behave over HTTP as they do in-process.
	if code, body := get(t, ts.URL+"/runs?app=nosuch"); code != http.StatusOK || string(body) != "[]\n" {
		t.Fatalf("empty filter: %d %q", code, body)
	}
	if code, _ := get(t, ts.URL+"/runs?seed=zzz"); code != http.StatusBadRequest {
		t.Fatalf("bad seed = %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/runs?format=raw"); code != http.StatusBadRequest {
		t.Fatalf("raw without config_hash = %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/runs?format=raw&config_hash=feedbeef"); code != http.StatusNotFound {
		t.Fatalf("raw for unknown hash = %d, want 404", code)
	}
}

// TestQueryEndpoint drives GET /query: JSON and text renderings, parse and
// execution failures, and the obs counters behind them.
func TestQueryEndpoint(t *testing.T) {
	s, ts, _ := storeServer(t)
	var out runOutput
	if code := doJSON(t, "POST", ts.URL+"/run", `{"app":"crc32","scheme":"edbp","scale":0.05}`, &out); code != http.StatusOK {
		t.Fatalf("POST /run = %d", code)
	}

	code, body := get(t, ts.URL+"/query?q="+url.QueryEscape("select agg wall_s"))
	if code != http.StatusOK {
		t.Fatalf("GET /query = %d: %s", code, body)
	}
	var table struct {
		Header []string   `json:"header"`
		Rows   [][]string `json:"rows"`
	}
	mustUnmarshal(t, body, &table)
	if len(table.Rows) != 1 || table.Rows[0][0] != "EDBP" || table.Rows[0][1] != "1" {
		t.Fatalf("agg rows: %+v", table.Rows)
	}

	code, body = get(t, ts.URL+"/query?format=text&q="+url.QueryEscape("select schemes"))
	if code != http.StatusOK || !containsAll(string(body), "== schemes:", "EDBP") {
		t.Fatalf("text query: %d %q", code, body)
	}

	if code, _ := get(t, ts.URL+"/query"); code != http.StatusBadRequest {
		t.Fatalf("missing q = %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/query?q="+url.QueryEscape("select bogus")); code != http.StatusBadRequest {
		t.Fatalf("parse error = %d, want 400", code)
	}
	if code, _ := get(t, ts.URL+"/query?q="+url.QueryEscape("select delta wall_s from aaa to bbb")); code != http.StatusUnprocessableEntity {
		t.Fatalf("execution error = %d, want 422", code)
	}
	if ok, bad := s.met.storeQueries.Value(), s.met.storeQueryErrors.Value(); ok != 2 || bad != 2 {
		t.Fatalf("query counters ok=%g bad=%g, want 2/2", ok, bad)
	}
}

// TestStoreEndpointsWithoutStore: /runs and /query are 404 when edbpd runs
// without -store.
func TestStoreEndpointsWithoutStore(t *testing.T) {
	_, ts := testServer(t, serverOptions{})
	if code := doJSON(t, "GET", ts.URL+"/runs", "", nil); code != http.StatusNotFound {
		t.Fatalf("GET /runs = %d, want 404", code)
	}
	if code := doJSON(t, "GET", ts.URL+"/query?q=select+schemes", "", nil); code != http.StatusNotFound {
		t.Fatalf("GET /query = %d, want 404", code)
	}
}

func mustUnmarshal(t *testing.T, data []byte, v any) {
	t.Helper()
	if err := json.Unmarshal(data, v); err != nil {
		t.Fatalf("bad JSON %q: %v", data, err)
	}
}

func containsAll(s string, frags ...string) bool {
	for _, f := range frags {
		if !strings.Contains(s, f) {
			return false
		}
	}
	return true
}
