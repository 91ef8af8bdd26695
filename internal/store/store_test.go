package store

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edbp/internal/sim"
	"edbp/internal/trace"
)

// fakeResult builds a cheap, fully-populated Result without running the
// simulator; the distinguishing fields make superseding visible.
func fakeResult(app string, scheme sim.Scheme, seed uint64, wall float64) *sim.Result {
	cfg := sim.Default(app, scheme)
	cfg.SourceSeed = seed
	res := &sim.Result{
		Config:       cfg,
		WallTime:     wall,
		ActiveTime:   wall * 0.8,
		OffTime:      wall * 0.2,
		Instructions: uint64(1000 * wall),
		Outages:      3,
		OutageTimes:  []float64{0.1, 0.2, 0.3},
		Checkpoints:  2,
	}
	return res
}

func put(t *testing.T, s *Store, res *sim.Result, commit string, at int64) Key {
	t.Helper()
	k := KeyFor(res.Config, commit)
	if err := s.PutResult(k, res, at); err != nil {
		t.Fatal(err)
	}
	return k
}

func TestRoundTripRealRun(t *testing.T) {
	cfg := sim.Default("crc32", sim.DecayEDBP)
	cfg.Scale = 0.02
	cfg.CollectZombieProfile = true
	cfg.Recorder = trace.NewRecorder(trace.Options{Label: "store-test", EventCap: 256, SampleCap: 64, SampleEvery: 1})
	res, err := sim.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceSummary == nil || res.ZombieProfile == nil {
		t.Fatal("run produced no trace summary / zombie profile — round trip would not cover them")
	}

	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	key := KeyFor(cfg, "abc123")
	if err := s.PutResult(key, res, 1700000000); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Reopen cold: everything must come back from disk.
	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, ok, err := s2.Get(key)
	if err != nil || !ok {
		t.Fatalf("Get after reopen: ok=%v err=%v", ok, err)
	}
	if want := res.Portable(); !reflect.DeepEqual(got, want) {
		t.Fatalf("stored Result differs from portable original\n got: %+v\nwant: %+v", got, want)
	}

	// RawByHash returns the exact EncodeResult bytes.
	raw, _, ok, err := s2.RawByHash(key.ConfigHash)
	if err != nil || !ok {
		t.Fatalf("RawByHash: ok=%v err=%v", ok, err)
	}
	want, err := sim.EncodeResult(res)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(raw, want) {
		t.Fatal("RawByHash bytes differ from sim.EncodeResult output")
	}
}

func TestSupersedeAndGetLatest(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	r1 := fakeResult("crc32", sim.EDBP, 1, 1.0)
	r2 := fakeResult("crc32", sim.EDBP, 1, 2.0) // same key, newer
	k := put(t, s, r1, "c1", 100)
	put(t, s, r2, "c1", 200)

	got, ok, err := s.Get(k)
	if err != nil || !ok {
		t.Fatalf("Get: ok=%v err=%v", ok, err)
	}
	if got.WallTime != 2.0 {
		t.Fatalf("Get returned the superseded record: wall=%v", got.WallTime)
	}

	// A later commit of the same run wins the commit-agnostic lookup.
	r3 := fakeResult("crc32", sim.EDBP, 1, 3.0)
	put(t, s, r3, "c2", 300)
	res, key, ok, err := s.GetLatest("crc32", sim.EDBP.String(), 1, k.ConfigHash)
	if err != nil || !ok {
		t.Fatalf("GetLatest: ok=%v err=%v", ok, err)
	}
	if res.WallTime != 3.0 || key.Commit != "c2" {
		t.Fatalf("GetLatest = wall %v commit %q, want 3 at c2", res.WallTime, key.Commit)
	}

	if n := s.Len(); n != 3 {
		t.Fatalf("Len = %d, want 3 (superseded records retained)", n)
	}
}

func TestSelectFilters(t *testing.T) {
	s, err := Open(t.TempDir(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	put(t, s, fakeResult("crc32", sim.Baseline, 1, 1), "c1", 1)
	put(t, s, fakeResult("crc32", sim.EDBP, 1, 2), "c1", 2)
	put(t, s, fakeResult("sha", sim.EDBP, 2, 3), "c2", 3)
	put(t, s, fakeResult("crc32", sim.EDBP, 1, 4), "c2", 4) // supersedes run, new commit

	check := func(name string, f Filter, wantWalls ...float64) {
		t.Helper()
		runs, err := s.Select(f)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []float64
		for _, r := range runs {
			got = append(got, r.Result.WallTime)
		}
		if !reflect.DeepEqual(got, wantWalls) {
			t.Fatalf("%s: walls %v, want %v", name, got, wantWalls)
		}
	}

	check("all", Filter{}, 1, 2, 3, 4)
	check("app ci", Filter{App: "CRC32"}, 1, 2, 4)
	check("scheme", Filter{Scheme: "EDBP"}, 2, 3, 4)
	check("commit", Filter{Commit: "c2"}, 3, 4)
	seed := uint64(2)
	check("seed", Filter{Seed: &seed}, 3)
	check("limit", Filter{Limit: 2}, 1, 2)
	check("latest-only", Filter{LatestOnly: true}, 1, 2, 3, 4) // distinct keys: commit differs

	// Hash prefix match.
	k := KeyFor(fakeResult("sha", sim.EDBP, 2, 0).Config, "")
	check("hash prefix", Filter{ConfigHash: k.ConfigHash[:12]}, 3)
}

func TestWCETRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	recs := []WCETRecord{
		{App: "crc32", Env: "solar", Commit: "c1", Time: 10, Cases: 5, MaxObserved: 1.25, MaxBound: Bound(2.5)},
		{App: "sha", Env: "rf", Commit: "c1", Time: 11, Cases: 3, MaxObserved: 9.5, MaxBound: Bound(math.Inf(1)), Exceeded: 1},
	}
	for _, r := range recs {
		if err := s.PutWCET(r); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got := s2.WCETs(Filter{})
	if !reflect.DeepEqual(got, recs) {
		t.Fatalf("WCET records after reopen:\n got: %+v\nwant: %+v", got, recs)
	}
	if !math.IsInf(float64(got[1].MaxBound), 1) {
		t.Fatal("+Inf bound did not survive the round trip")
	}
	if byEnv := s2.WCETs(Filter{Env: "RF"}); len(byEnv) != 1 || byEnv[0].App != "sha" {
		t.Fatalf("env filter: %+v", byEnv)
	}
}

// TestTornTailRecovery appends records, simulates a crash mid-append by
// corrupting the active segment's tail, and proves reopening recovers every
// complete record and accepts new appends.
func TestTornTailRecovery(t *testing.T) {
	for name, tear := range map[string]func([]byte) []byte{
		"short frame": func(b []byte) []byte {
			return append(b, kindResult, 0xFF, 0xFF) // header torn mid-length
		},
		"bad crc": func(b []byte) []byte {
			payload := []byte(`{"key":{},"unix_time":1,"data":{"v":1,"result":{}}}`)
			b = appendFrame(b, kindResult, payload)
			b[len(b)-1] ^= 0xFF // flip the payload's last byte
			return b
		},
		"truncated payload": func(b []byte) []byte {
			payload := []byte(`{"key":{},"unix_time":1,"data":{"v":1,"result":{}}}`)
			b = appendFrame(b, kindResult, payload)
			return b[:len(b)-7] // lose the payload's tail
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			k1 := put(t, s, fakeResult("crc32", sim.EDBP, 1, 1), "c1", 1)
			k2 := put(t, s, fakeResult("sha", sim.Decay, 2, 2), "c1", 2)
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}

			seg := filepath.Join(dir, segName(1))
			data, err := os.ReadFile(seg)
			if err != nil {
				t.Fatal(err)
			}
			cleanLen := len(data)
			if err := os.WriteFile(seg, tear(data), 0o644); err != nil {
				t.Fatal(err)
			}

			s2, err := Open(dir, Options{})
			if err != nil {
				t.Fatalf("reopen after torn tail: %v", err)
			}
			defer s2.Close()
			if n := s2.Len(); n != 2 {
				t.Fatalf("recovered %d records, want 2", n)
			}
			for _, k := range []Key{k1, k2} {
				if _, ok, err := s2.Get(k); !ok || err != nil {
					t.Fatalf("Get(%v) after recovery: ok=%v err=%v", k, ok, err)
				}
			}
			// The torn bytes are physically gone, and appends still work.
			st, err := os.Stat(seg)
			if err != nil {
				t.Fatal(err)
			}
			if st.Size() != int64(cleanLen) {
				t.Fatalf("segment is %d bytes after recovery, want %d", st.Size(), cleanLen)
			}
			k3 := put(t, s2, fakeResult("fft", sim.AMC, 3, 3), "c1", 3)
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3, err := Open(dir, Options{})
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if _, ok, err := s3.Get(k3); !ok || err != nil {
				t.Fatalf("post-recovery append lost: ok=%v err=%v", ok, err)
			}
		})
	}
}

// TestMidFileCorruptionIsNoTear: a bad frame in the active segment with
// intact records after it is not a torn append. Open fails, naming the
// segment and the frame's offset, and leaves the file byte for byte as it
// was, instead of cutting the four good records behind it.
func TestMidFileCorruptionIsNoTear(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 5; i++ {
		put(t, s, fakeResult("crc32", sim.EDBP, i, float64(i)), "c1", int64(i))
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, segName(1))
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[len(segMagic)+frameOverhead+10] ^= 1 // a payload bit of the first record
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}

	if s, err := Open(dir, Options{}); err == nil {
		s.Close()
		t.Fatal("Open accepted a segment with a corrupt record before four intact ones")
	} else if want := fmt.Sprintf("%s @%d", segName(1), len(segMagic)); !strings.Contains(err.Error(), want) {
		t.Errorf("Open error %q does not name %q", err, want)
	}
	after, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, data) {
		t.Errorf("Open changed the segment: %d bytes before, %d after", len(data), len(after))
	}
}

// TestSegmentRollingAndSidecars forces tiny segments so appends roll, then
// proves a reopen indexes the store from its segments alone: stale and
// garbage .idx sidecars, as builds that wrote sidecar indexes leave them,
// change nothing, and a one-bit flip inside a sealed segment's payload is
// never served.
func TestSegmentRollingAndSidecars(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	var keys []Key
	for i := uint64(0); i < 8; i++ {
		keys = append(keys, put(t, s, fakeResult("crc32", sim.EDBP, i, float64(i+1)), "c1", int64(i)))
	}
	if err := s.PutWCET(WCETRecord{App: "crc32", Env: "solar", Commit: "c1", Cases: 1, MaxObserved: 1, MaxBound: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) < 2 {
		t.Fatalf("expected rolling to create multiple segments, got %v", segs)
	}
	if idxs, _ := filepath.Glob(filepath.Join(dir, "*.idx")); len(idxs) != 0 {
		t.Fatalf("sealing wrote sidecar indexes: %v", idxs)
	}

	verify := func(s *Store, keys []Key) {
		t.Helper()
		if n := s.Len(); n != len(keys) {
			t.Fatalf("Len = %d, want %d", n, len(keys))
		}
		for _, k := range keys {
			res, ok, err := s.Get(k)
			if !ok || err != nil {
				t.Fatalf("Get(seed=%d): ok=%v err=%v", k.Seed, ok, err)
			}
			if res.WallTime != float64(k.Seed+1) {
				t.Fatalf("seed %d: wall %v, want %d", k.Seed, res.WallTime, k.Seed+1)
			}
		}
		if w := s.WCETs(Filter{}); len(w) != 1 {
			t.Fatalf("WCET records: %d, want 1", len(w))
		}
	}

	s2, err := Open(dir, Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	verify(s2, keys)
	s2.Close()

	// Sidecars beside every sealed segment: index frames (kind 3) listing a
	// record the segment does not hold, and bytes that frame nothing.
	for n := 1; n < len(segs); n++ {
		side := appendFrame(append([]byte{}, segMagic...), 3,
			[]byte(fmt.Sprintf(`{"segment":%d,"entries":[{"kind":1,"key":{"app":"stale"},"off":9,"len":5}]}`, n)))
		if n%2 == 0 {
			side = []byte("not an index")
		}
		if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("%06d.idx", n)), side, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	s3, err := Open(dir, Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	verify(s3, keys)
	s3.Close()

	// Flip one bit of seed 1's WallTime digit in sealed segment 2 (2 reads
	// as 3): the scan's CRC check drops the record instead of serving it.
	seg2 := filepath.Join(dir, segName(2))
	data, err := os.ReadFile(seg2)
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(data, []byte(`"WallTime":2,`))
	if i < 0 {
		t.Fatal("segment 2 does not hold seed 1's record")
	}
	data[i+len(`"WallTime":`)] ^= 1
	if err := os.WriteFile(seg2, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s4, err := Open(dir, Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s4.Close()
	if res, ok, err := s4.Get(keys[1]); ok || err != nil {
		t.Fatalf("Get of the flipped record: ok=%v err=%v res=%+v, want not found", ok, err, res)
	}
	if _, _, ok, err := s4.RawByHash(keys[1].ConfigHash); ok || err != nil {
		t.Fatalf("RawByHash of the flipped record: ok=%v err=%v, want not found", ok, err)
	}
	verify(s4, append([]Key{keys[0]}, keys[2:]...))
}

// TestAlteredRecordIsAnError alters records on disk after Open, a payload
// bit in a sealed segment and a kind byte in the active one: every read of
// them is an error, never the altered record.
func TestAlteredRecordIsAnError(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	sealed := put(t, s, fakeResult("crc32", sim.EDBP, 1, 1.25), "c1", 1) // segment 1
	active := put(t, s, fakeResult("sha", sim.Decay, 2, 2.5), "c1", 2)   // segment 2
	alter := func(n int, at func([]byte) int) {
		t.Helper()
		path := filepath.Join(dir, segName(n))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[at(data)] ^= 1
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	// 1.25 reads as 1.24 in sealed segment 1, and the active segment's
	// first frame turns from kind 1 to kind 0.
	alter(1, func(b []byte) int { return bytes.Index(b, []byte(`"WallTime":1.25`)) + len(`"WallTime":1.2`) })
	alter(2, func([]byte) int { return len(segMagic) })

	for _, k := range []Key{sealed, active} {
		if res, ok, err := s.Get(k); err == nil {
			t.Errorf("Get(%v) = ok %v, %+v; want an error", k, ok, res)
		}
		if res, _, ok, err := s.GetLatest(k.App, k.Scheme, k.Seed, k.ConfigHash); err == nil {
			t.Errorf("GetLatest(%v) = ok %v, %+v; want an error", k, ok, res)
		}
		if runs, err := s.Select(Filter{App: k.App}); err == nil {
			t.Errorf("Select(app=%s) = %d runs; want an error", k.App, len(runs))
		}
		if _, _, ok, err := s.RawByHash(k.ConfigHash); err == nil {
			t.Errorf("RawByHash(%v) = ok %v; want an error", k, ok)
		}
	}
}

func TestOpenEmptyDirAndClosedStore(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(filepath.Join(dir, "fresh"), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if n := s.Len(); n != 0 {
		t.Fatalf("fresh store Len = %d", n)
	}
	if _, ok, err := s.Get(Key{App: "x"}); ok || err != nil {
		t.Fatalf("Get on empty store: ok=%v err=%v", ok, err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal("double Close must be a no-op")
	}
	if err := s.PutResult(Key{}, fakeResult("crc32", sim.EDBP, 1, 1), 1); err == nil {
		t.Fatal("PutResult on a closed store must fail")
	}
}
