package store

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"edbp/internal/sim"
)

// storeState summarizes what a store directory opens to: Open's error,
// or every run's key and wall time and every WCET record, in append
// order.
func storeState(t *testing.T, dir string) string {
	t.Helper()
	s, err := Open(dir, Options{MaxSegmentBytes: 2048})
	if err != nil {
		return "error: " + strings.ReplaceAll(err.Error(), dir, "<dir>")
	}
	defer s.Close()
	runs, err := s.Select(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	for _, r := range runs {
		fmt.Fprintf(&b, "run %s/%s/%d wall=%g\n", r.Key.App, r.Key.Scheme, r.Key.Seed, r.Result.WallTime)
	}
	for _, w := range s.WCETs(Filter{}) {
		fmt.Fprintf(&b, "wcet %+v\n", w)
	}
	return b.String()
}

// TestFlippedKindIsCorruption: in a version-2 segment the CRC covers the
// kind byte, so a run record whose kind turns from 1 to 2 (a WCET record)
// is a corrupt frame, exactly as a flipped payload bit in the same record
// is: in a sealed segment the scan drops it, in the active segment, with
// bytes after it, Open fails. It never reads as a WCET record.
func TestFlippedKindIsCorruption(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	for i := uint64(1); i <= 3; i++ {
		put(t, s, fakeResult("crc32", sim.EDBP, i, float64(i)), "c1", int64(i))
	}
	if err := s.PutWCET(WCETRecord{App: "crc32", Env: "solar", Commit: "c1", Cases: 1, MaxObserved: 1, MaxBound: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "*.seg"))
	if len(segs) != 3 {
		t.Fatalf("want three segments, one run each, got %v", segs)
	}

	// edited copies dir with segment n's first frame altered by edit.
	edited := func(n int, edit func(frame []byte)) string {
		t.Helper()
		cp := t.TempDir()
		for _, p := range segs {
			data, err := os.ReadFile(p)
			if err != nil {
				t.Fatal(err)
			}
			if filepath.Base(p) == segName(n) {
				edit(data[len(segMagic):])
			}
			if err := os.WriteFile(filepath.Join(cp, filepath.Base(p)), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return cp
	}
	for _, tc := range []struct {
		name string
		seg  int
	}{
		{"sealed", 1},
		{"active", 3}, // its run is followed by the WCET record
	} {
		t.Run(tc.name, func(t *testing.T) {
			kindFlip := storeState(t, edited(tc.seg, func(f []byte) {
				if f[0] != kindResult {
					t.Fatalf("segment %d starts with kind %d", tc.seg, f[0])
				}
				f[0] = kindWCET
			}))
			payloadFlip := storeState(t, edited(tc.seg, func(f []byte) { f[frameOverhead+10] ^= 1 }))
			if kindFlip != payloadFlip {
				t.Errorf("a flipped kind opens as\n%s\na flipped payload bit as\n%s", kindFlip, payloadFlip)
			}
			if strings.Contains(kindFlip, "wcet {App: ") {
				t.Errorf("the flipped kind yielded a WCET record:\n%s", kindFlip)
			}
		})
	}
	if got := storeState(t, dir); strings.Count(got, "run ") != 3 || strings.Count(got, "wcet ") != 1 {
		t.Errorf("the unedited store opens as\n%s", got)
	}
}

// TestOpenV1Segments opens a store written in layout version 1, three
// sealed-or-active segments committed under testdata/v1: every record
// reads back under its payload-only CRC, a new append starts a version-2
// segment and leaves the old files as they were, and the mixed store
// reopens whole.
func TestOpenV1Segments(t *testing.T) {
	dir := t.TempDir()
	fixture, _ := filepath.Glob(filepath.Join("testdata", "v1", "*.seg"))
	if len(fixture) != 3 {
		t.Fatalf("fixture segments: %v", fixture)
	}
	orig := map[string][]byte{}
	for _, p := range fixture {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.HasPrefix(data, segMagicV1) {
			t.Fatalf("%s is not a version-1 segment", p)
		}
		orig[filepath.Base(p)] = data
		if err := os.WriteFile(filepath.Join(dir, filepath.Base(p)), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	const want = `run crc32/EDBP/1 wall=1.25
run sha/CacheDecay/2 wall=2.5
run dijkstra/NVSRAMCache/3 wall=3.75
wcet {App:crc32 Env:solar Commit:v1 Time:4 Cases:5 MaxObserved:1.25 MaxBound:2.5 Exceeded:0}
`
	if got := storeState(t, dir); got != want {
		t.Fatalf("version-1 store opens as\n%s\nwant\n%s", got, want)
	}

	s, err := Open(dir, Options{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	runs, err := s.Select(Filter{})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range runs {
		if res, ok, err := s.Get(r.Key); !ok || err != nil || !reflect.DeepEqual(res, r.Result) {
			t.Fatalf("Get(%v): ok=%v err=%v", r.Key, ok, err)
		}
		if r.Key.Commit != "v1" || r.Time != int64(r.Key.Seed) {
			t.Errorf("run %v stored at %d", r.Key, r.Time)
		}
	}
	put(t, s, fakeResult("fft", sim.AMC, 4, 5), "v2", 5)
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	next, err := os.ReadFile(filepath.Join(dir, segName(4)))
	if err != nil {
		t.Fatalf("the append did not start a new segment: %v", err)
	}
	if !bytes.HasPrefix(next, segMagic) {
		t.Errorf("the new segment starts %q, want %q", next[:len(segMagic)], segMagic)
	}
	for name, data := range orig {
		if now, err := os.ReadFile(filepath.Join(dir, name)); err != nil || !bytes.Equal(now, data) {
			t.Errorf("%s changed after Open and an append", name)
		}
	}
	if got := storeState(t, dir); got != strings.Replace(want, "wcet", "run fft/AMC/4 wall=5\nwcet", 1) {
		t.Errorf("the mixed store reopens as\n%s", got)
	}
}
