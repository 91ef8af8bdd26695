package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"edbp/internal/sim"
)

// FuzzOpen writes a small multi-segment store once, then opens copies of
// it whose segments carry fuzz-chosen truncations and bit flips. Each
// 4-byte group of the input is one edit: byte 0 picks the segment (>>1)
// and the edit (bit 0: flip or truncate), bytes 1–2 the offset, byte 3
// the bit to flip. Open must never panic, every Result that Get,
// GetLatest, Select or RawByHash returns must equal the one written under
// its key, every WCET record that WCETs returns must equal one written,
// anything else must be an error, and a store that opens takes a new
// append. An Open that succeeds resizes a segment only to recover a torn
// append (see cutAtTear). testdata/fuzz/FuzzOpen holds a flipped WallTime
// digit in a sealed segment (1.25 read as 1.24).
func FuzzOpen(f *testing.F) {
	const maxSeg = 2048
	base := f.TempDir()
	s, err := Open(base, Options{MaxSegmentBytes: maxSeg})
	if err != nil {
		f.Fatal(err)
	}
	apps := []string{"crc32", "sha", "dijkstra"}
	schemes := []sim.Scheme{sim.Baseline, sim.EDBP, sim.Decay}
	var keys []Key
	for i := uint64(0); i < 12; i++ {
		res := fakeResult(apps[i%3], schemes[i%3], i, 1+float64(i)/4)
		k := KeyFor(res.Config, "c1")
		if err := s.PutResult(k, res, int64(i)); err != nil {
			f.Fatal(err)
		}
		keys = append(keys, k)
	}
	if err := s.PutWCET(WCETRecord{App: "crc32", Env: "solar", Commit: "c1", Cases: 12, MaxObserved: 4, MaxBound: 5}); err != nil {
		f.Fatal(err)
	}
	want := map[Key]*sim.Result{}
	wantRaw := map[Key][]byte{}
	for _, k := range keys {
		res, ok, err := s.Get(k)
		if !ok || err != nil {
			f.Fatalf("Get(%v): ok=%v err=%v", k, ok, err)
		}
		raw, _, ok, err := s.RawByHash(k.ConfigHash)
		if !ok || err != nil {
			f.Fatalf("RawByHash(%v): ok=%v err=%v", k, ok, err)
		}
		want[k], wantRaw[k] = res, raw
	}
	wantWCET := s.WCETs(Filter{})
	if err := s.Close(); err != nil {
		f.Fatal(err)
	}
	// Every file of the store is copied; the edits land on its segments.
	des, err := os.ReadDir(base)
	if err != nil {
		f.Fatal(err)
	}
	var segNames []string
	pristine := map[string][]byte{}
	for _, de := range des {
		data, err := os.ReadFile(filepath.Join(base, de.Name()))
		if err != nil {
			f.Fatal(err)
		}
		if filepath.Ext(de.Name()) == ".seg" {
			segNames = append(segNames, de.Name())
		}
		pristine[de.Name()] = data
	}

	f.Add([]byte{})
	f.Add([]byte{byte(len(segNames)-1)<<1 | 1, 100, 0, 0}) // a torn active tail
	f.Add([]byte{1, 0, 0, 0})                              // segment 1 cut to nothing
	// Segment 1's first record turned from kind 1 (a run) to kind 2 (a
	// WCET record) by two bit flips.
	f.Add([]byte{0, byte(len(segMagic)), 0, 0, 0, byte(len(segMagic)), 0, 1})

	f.Fuzz(func(t *testing.T, edits []byte) {
		files := map[string][]byte{}
		for name, data := range pristine {
			files[name] = bytes.Clone(data)
		}
		for ; len(edits) >= 4; edits = edits[4:] {
			name := segNames[int(edits[0]>>1)%len(segNames)]
			data := files[name]
			if len(data) == 0 {
				continue
			}
			off := int(binary.LittleEndian.Uint16(edits[1:3])) % len(data)
			if edits[0]&1 == 0 {
				data[off] ^= 1 << (edits[3] % 8)
			} else {
				files[name] = data[:off]
			}
		}
		dir := t.TempDir()
		for name, data := range files {
			if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		s, err := Open(dir, Options{MaxSegmentBytes: maxSeg})
		if err != nil {
			return
		}
		defer s.Close()
		for name, data := range files {
			if filepath.Ext(name) != ".seg" {
				continue
			}
			st, err := os.Stat(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if size := int(st.Size()); size != len(data) && !cutAtTear(data, size) {
				t.Fatalf("Open resized %s from %d to %d bytes, not at a torn append", name, len(data), size)
			}
		}

		check := func(op string, k Key, res *sim.Result) {
			t.Helper()
			if w, ok := want[k]; !ok {
				t.Fatalf("%s returned a Result under %v, a key never written", op, k)
			} else if !reflect.DeepEqual(res, w) {
				t.Fatalf("%s(%v) returned\n%+v\nwant\n%+v", op, k, res, w)
			}
		}
		for _, k := range keys {
			if res, ok, err := s.Get(k); ok && err == nil {
				check("Get", k, res)
			}
			if res, got, ok, err := s.GetLatest(k.App, k.Scheme, k.Seed, k.ConfigHash); ok && err == nil {
				check("GetLatest", got, res)
			}
			if raw, got, ok, err := s.RawByHash(k.ConfigHash); ok && err == nil {
				if got != k || !bytes.Equal(raw, wantRaw[k]) {
					t.Fatalf("RawByHash(%s) returned %v and %d bytes, want %v and its %d bytes", k.ConfigHash, got, len(raw), k, len(wantRaw[k]))
				}
			}
		}
		if runs, err := s.Select(Filter{}); err == nil {
			for _, r := range runs {
				check("Select", r.Key, r.Result)
			}
		}
		for _, w := range s.WCETs(Filter{}) {
			written := false
			for _, ww := range wantWCET {
				written = written || reflect.DeepEqual(w, ww)
			}
			if !written {
				t.Fatalf("WCETs returned %+v, a record never written", w)
			}
		}

		extra := fakeResult("fft", sim.AMC, 99, 7)
		k := KeyFor(extra.Config, "c2")
		if err := s.PutResult(k, extra, 99); err != nil {
			t.Fatalf("append after Open: %v", err)
		}
		if res, ok, err := s.Get(k); !ok || err != nil || res.WallTime != 7 {
			t.Fatalf("Get of the new append: ok=%v err=%v res=%+v", ok, err, res)
		}
	})
}

// FuzzParseQuery: no statement panics the parser, and a nil error always
// comes with a plan. The seeds are query_test.go's statements.
func FuzzParseQuery(f *testing.F) {
	for _, q := range []string{
		"select runs",
		"runs where app=crc32 and scheme=EDBP limit 5",
		"select agg wall_s where seed=7",
		"select delta energy_mj from aaa to bbb threshold 0.25",
		"select wcet where env=solar",
		"select schemes",
		"",
		"select",
		"select nonsense",
		"select agg",
		"select agg no_such_metric",
		"select delta wall_s from a",
		"select delta wall_s too a to b",
		"select runs where appcrc32",
		"select runs where color=red",
		"select runs where seed=abc",
		"select runs limit zero",
		"select runs threshold 0.1",
		"select delta wall_s from a to b threshold -1",
		"select runs bogus",
		"select runs where scheme=EDBP and commit=c1",
		"select agg wall_s where commit=c1",
		"select delta wall_s from c1 to c2",
		"select delta wall_s from c1 to c2 threshold 0.60",
		"select delta instructions from c1 to c2",
		"select delta wall_s from nope to c2",
		"select wcet",
		"select commits",
		"select apps",
	} {
		f.Add(q)
	}
	f.Fuzz(func(t *testing.T, q string) {
		if plan, err := ParseQuery(q); err == nil && plan == nil {
			t.Fatalf("ParseQuery(%q) = nil, nil: want a plan or an error", q)
		}
	})
}

// cutAtTear reports whether resizing the segment data to size bytes
// recovers a torn append: size is the offset of a frame, reached through
// intact frames, that runs to or past the end of data; or a segment torn
// inside its magic was rewritten empty.
func cutAtTear(data []byte, size int) bool {
	if len(data) < len(segMagic) {
		return size == len(segMagic)
	}
	off := len(segMagic)
	v1 := bytes.HasPrefix(data, segMagicV1)
	for off < size {
		_, _, rest, ok := readFrame(data[off:], v1)
		if !ok {
			return false
		}
		off = len(data) - len(rest)
	}
	return off == size && size < len(data) && reachesEOF(data[size:])
}
