// Package store is the persistent experiment store: an embedded,
// append-oriented, dependency-free on-disk database of simulation Results
// keyed by (app, scheme, seed, config-hash, commit), plus ETAP-style WCET
// bound records keyed by (app, environment, commit).
//
// Layout (DESIGN.md §11): a store is a directory of numbered segment files
// (000001.seg, 000002.seg, …), each opened by an 8-byte magic whose last
// byte is the layout version. Every record is framed as
//
//	kind(1) | payloadLen(4, LE) | crc32(4, LE) | payload
//
// and appended to the highest-numbered (active) segment with a single
// write; once the active segment exceeds MaxSegmentBytes the next append
// opens a new one. In layout version 2 ("EDBPSTR2") the CRC covers the
// kind, the length and the payload, so no altered byte of a frame reads
// as another record. Version-1 segments ("EDBPSTR1"), whose CRC covers the
// payload alone, are still read but never appended to: Open starts a new
// segment after one. Open indexes every segment by one CRC-checked scan,
// decoding only each result record's head (its key and append time). A
// crash can only tear the final record: in the active segment, a short or
// CRC-failing frame that runs to the end of the file is that tear, and the
// scan truncates it so every complete record survives and the next append
// lands on a clean boundary. A bad frame with bytes after it cannot be a
// tear, so Open fails on it and leaves the file alone. Every read re-reads
// its record's frame and checks kind, length and CRC again, so a record
// altered on disk is an error, never a result.
//
// Writes are append-only; a re-run of the same key appends a superseding
// record (Get returns the latest, Select returns all — trend queries want
// the history).
//
// The store is single-process: one *Store owns the directory, and its
// methods are safe for concurrent use within that process.
package store

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"edbp/internal/sim"
)

// Key identifies one stored simulation run.
type Key struct {
	App        string `json:"app"`
	Scheme     string `json:"scheme"`
	Seed       uint64 `json:"seed"`
	ConfigHash string `json:"config_hash"`
	Commit     string `json:"commit"`
}

// String renders the key compactly (hash truncated for display).
func (k Key) String() string {
	h := k.ConfigHash
	if len(h) > 12 {
		h = h[:12]
	}
	return fmt.Sprintf("%s/%s seed=%d cfg=%s commit=%s", k.App, k.Scheme, k.Seed, h, k.Commit)
}

// KeyFor derives the store key of a run from its config: the config hash
// covers every result-shaping knob (sim.ConfigHash), commit attributes the
// producing build.
func KeyFor(cfg sim.Config, commit string) Key {
	return Key{
		App:        cfg.App,
		Scheme:     cfg.Scheme.String(),
		Seed:       cfg.SourceSeed,
		ConfigHash: sim.ConfigHash(cfg),
		Commit:     commit,
	}
}

// Bound is a float64 whose JSON form survives +Inf (a WCET bound is
// infinite when a configuration's mean harvest cannot outrun its own
// self-discharge; encoding/json rejects non-finite numbers).
type Bound float64

// MarshalJSON implements json.Marshaler.
func (b Bound) MarshalJSON() ([]byte, error) {
	f := float64(b)
	switch {
	case math.IsInf(f, 1):
		return []byte(`"inf"`), nil
	case math.IsInf(f, -1):
		return []byte(`"-inf"`), nil
	case math.IsNaN(f):
		return []byte(`"nan"`), nil
	}
	return json.Marshal(f)
}

// UnmarshalJSON implements json.Unmarshaler.
func (b *Bound) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"inf"`:
		*b = Bound(math.Inf(1))
		return nil
	case `"-inf"`:
		*b = Bound(math.Inf(-1))
		return nil
	case `"nan"`:
		*b = Bound(math.NaN())
		return nil
	}
	var f float64
	if err := json.Unmarshal(data, &f); err != nil {
		return err
	}
	*b = Bound(f)
	return nil
}

// WCETRecord is one persisted worst-case completion-time aggregate for an
// (app, harvesting environment) class, stamped with the producing commit —
// the trend-tracking form of internal/fuzz's WCETClass.
type WCETRecord struct {
	App    string `json:"app"`
	Env    string `json:"env"`
	Commit string `json:"commit"`
	Time   int64  `json:"unix_time"`
	Cases  int    `json:"cases"`
	// MaxObserved is the worst simulated completion seen; MaxBound the
	// worst analytic estimate (possibly +Inf); Exceeded counts runs whose
	// observation beat their own estimate.
	MaxObserved float64 `json:"max_observed_s"`
	MaxBound    Bound   `json:"max_bound_s"`
	Exceeded    int     `json:"exceeded"`
}

// record kinds (the framing's first byte).
const (
	kindResult byte = 1
	kindWCET   byte = 2
)

// frameOverhead is kind + length + crc.
const frameOverhead = 1 + 4 + 4

// segMagic opens every segment file this package writes; the trailing
// byte is the layout version. segMagicV1 opens segments of layout
// version 1, which are read but not appended to.
var (
	segMagic   = []byte("EDBPSTR2")
	segMagicV1 = []byte("EDBPSTR1")
)

// resultPayload is the JSON payload of a kindResult record.
type resultPayload struct {
	Key  Key   `json:"key"`
	Time int64 `json:"unix_time"`
	// Data is the sim.EncodeResult envelope, embedded verbatim so the raw
	// bytes a client stored are the raw bytes it reads back.
	Data json.RawMessage `json:"data"`
}

// dataField ends a result payload's head: its key and time, without the
// data that is the bulk of the record. json.Marshal writes resultPayload's
// fields in declaration order, and a quote inside a JSON string is always
// escaped, so the first match is the top-level data field.
var dataField = []byte(`,"data":`)

// entry locates one result record.
type entry struct {
	key  Key
	time int64
	seg  int
	off  int64 // frame offset within the segment
	len  int64 // payload length
	v1   bool  // the segment has layout version 1
}

// runKey is Key minus the commit: figure reconstruction looks a config up
// whatever commit produced it.
type runKey struct {
	app, scheme, hash string
	seed              uint64
}

func (k Key) run() runKey { return runKey{k.App, k.Scheme, k.ConfigHash, k.Seed} }

// Options tune a store; the zero value is production-ready.
type Options struct {
	// MaxSegmentBytes rolls the active segment once it exceeds this size
	// (default 8 MiB). Tests use tiny values to exercise sealing.
	MaxSegmentBytes int64
	// Sync fsyncs after every append. Off by default: the torn-tail
	// recovery bounds the loss window to the final record either way.
	Sync bool
}

func (o Options) normalize() Options {
	if o.MaxSegmentBytes == 0 {
		o.MaxSegmentBytes = 8 << 20
	}
	return o
}

// Store is an open experiment store. See the package comment for the
// layout and durability model.
type Store struct {
	dir  string
	opts Options

	mu         sync.RWMutex
	active     *os.File
	activeNum  int
	activeSize int64

	entries  []entry        // result records, append order (superseded included)
	byKey    map[Key]int    // -> latest index in entries
	byRunKey map[runKey]int // commit-agnostic latest
	wcet     []WCETRecord   // append order
}

func segName(n int) string { return fmt.Sprintf("%06d.seg", n) }

// Open opens (creating if needed) the store directory.
func Open(dir string, opts Options) (*Store, error) {
	opts = opts.normalize()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{
		dir: dir, opts: opts,
		byKey:    make(map[Key]int),
		byRunKey: make(map[runKey]int),
	}
	names, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var segs []int
	for _, de := range names {
		var n int
		if _, err := fmt.Sscanf(de.Name(), "%06d.seg", &n); err == nil && segName(n) == de.Name() {
			segs = append(segs, n)
		}
	}
	sort.Ints(segs)
	if len(segs) == 0 {
		segs = []int{1}
		if err := s.createSegment(1); err != nil {
			return nil, err
		}
	}
	var data []byte // one read buffer serves every segment
	for i, n := range segs {
		if data, err = readFile(filepath.Join(dir, segName(n)), data); err != nil {
			return nil, fmt.Errorf("store: reading %s: %w", segName(n), err)
		}
		if err := s.scanSegment(n, data, i == len(segs)-1); err != nil {
			return nil, err
		}
	}
	n := segs[len(segs)-1]
	if bytes.HasPrefix(data, segMagicV1) {
		// Appends go to a version-2 segment only: a store written by an
		// older build continues in a new one.
		n++
		if err := s.createSegment(n); err != nil {
			return nil, err
		}
	}
	f, err := os.OpenFile(filepath.Join(dir, segName(n)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("store: %w", err)
	}
	s.active, s.activeNum, s.activeSize = f, n, st.Size()
	return s, nil
}

// createSegment writes a fresh segment file containing only the magic.
func (s *Store) createSegment(n int) error {
	path := filepath.Join(s.dir, segName(n))
	if err := os.WriteFile(path, segMagic, 0o644); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// readFrame decodes one record frame from b; ok is false on a short or
// corrupt (CRC-mismatching) frame. v1 selects the CRC of layout version 1.
func readFrame(b []byte, v1 bool) (kind byte, payload, rest []byte, ok bool) {
	if len(b) < frameOverhead {
		return 0, nil, nil, false
	}
	kind = b[0]
	n := binary.LittleEndian.Uint32(b[1:5])
	crc := binary.LittleEndian.Uint32(b[5:9])
	if uint64(len(b)-frameOverhead) < uint64(n) {
		return 0, nil, nil, false
	}
	payload = b[frameOverhead : frameOverhead+int(n)]
	if frameCRC(b[:5], payload, v1) != crc {
		return 0, nil, nil, false
	}
	return kind, payload, b[frameOverhead+int(n):], true
}

// frameCRC is the checksum a frame carries. In layout version 2 it covers
// head (the frame's kind and length) and the payload; in version 1 the
// payload alone.
func frameCRC(head, payload []byte, v1 bool) uint32 {
	if v1 {
		return crc32.ChecksumIEEE(payload)
	}
	return crc32.Update(crc32.ChecksumIEEE(head), crc32.IEEETable, payload)
}

// reachesEOF reports whether the frame at the start of b runs to or past
// the end of b, as only a torn append can: its 9-byte header is cut short,
// or its declared payload ends at or beyond the last byte.
func reachesEOF(b []byte) bool {
	return len(b) < frameOverhead ||
		frameOverhead+uint64(binary.LittleEndian.Uint32(b[1:5])) >= uint64(len(b))
}

// appendFrame encodes one record frame of layout version 2.
func appendFrame(dst []byte, kind byte, payload []byte) []byte {
	var hdr [frameOverhead]byte
	hdr[0] = kind
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], frameCRC(hdr[:5], payload, false))
	return append(append(dst, hdr[:]...), payload...)
}

// scanSegment indexes segment n, whose bytes are data, record by record.
// For the active segment a torn tail, a bad frame that reaches the end of
// the file (a crashed append), is recovered by truncating the file back to
// the last complete record. A bad frame with bytes after it is no tear:
// Open fails and the file is left as it is. For sealed segments the tail
// after a bad frame is dropped from the index but the file is left
// untouched.
func (s *Store) scanSegment(n int, data []byte, active bool) error {
	path := filepath.Join(s.dir, segName(n))
	v1 := bytes.HasPrefix(data, segMagicV1)
	if !v1 && !bytes.HasPrefix(data, segMagic) {
		if active && len(data) < len(segMagic) {
			// A segment torn inside its 8-byte header holds no records;
			// rewrite it clean.
			return s.createSegment(n)
		}
		return fmt.Errorf("store: %s is not a segment file", path)
	}
	// The result heads are gathered into one JSON array and decoded
	// together, once per segment.
	heads := []byte{'['}
	var found []entry
	off := int64(len(segMagic))
	rest := data[off:]
	for len(rest) > 0 {
		kind, payload, next, ok := readFrame(rest, v1)
		if !ok {
			if active && !reachesEOF(rest) {
				return fmt.Errorf("store: %s @%d: corrupt record with bytes after it (not a torn tail; the file is left as it is)", path, off)
			}
			break // torn tail: everything before it is intact
		}
		switch kind {
		case kindResult:
			i := bytes.Index(payload, dataField)
			if i < 0 {
				return fmt.Errorf("store: %s @%d: result payload without data passed CRC", path, off)
			}
			heads = append(append(heads, payload[:i]...), '}', ',')
			found = append(found, entry{seg: n, off: off, len: int64(len(payload)), v1: v1})
		case kindWCET:
			var w WCETRecord
			if err := json.Unmarshal(payload, &w); err != nil {
				return fmt.Errorf("store: %s @%d: corrupt wcet payload passed CRC: %w", path, off, err)
			}
			s.wcet = append(s.wcet, w)
		default:
			return fmt.Errorf("store: %s @%d: unknown record kind %d", path, off, kind)
		}
		off += frameOverhead + int64(len(payload))
		rest = next
	}
	if len(found) > 0 {
		heads[len(heads)-1] = ']'
		var rps []resultPayload
		err := json.Unmarshal(heads, &rps)
		if err == nil && len(rps) != len(found) {
			err = fmt.Errorf("%d heads for %d records", len(rps), len(found))
		}
		if err != nil {
			return fmt.Errorf("store: %s: corrupt result payload passed CRC: %w", path, err)
		}
		for i, e := range found {
			e.key, e.time = rps[i].Key, rps[i].Time
			s.addEntry(e)
		}
	}
	if active && off < int64(len(data)) {
		if err := os.Truncate(path, off); err != nil {
			return fmt.Errorf("store: recovering torn tail of %s: %w", path, err)
		}
	}
	return nil
}

// readFile reads the file at path into buf, reallocating only when it does
// not fit.
func readFile(path string, buf []byte) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return buf, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return buf, err
	}
	if int64(cap(buf)) < st.Size() {
		buf = make([]byte, st.Size())
	}
	buf = buf[:st.Size()]
	_, err = io.ReadFull(f, buf)
	return buf, err
}

func (s *Store) addEntry(e entry) {
	i := len(s.entries)
	s.entries = append(s.entries, e)
	s.byKey[e.key] = i
	s.byRunKey[e.key.run()] = i
}

// append frames and writes one record, rolling the active segment first
// when it is full. Returns the frame offset. Caller holds s.mu.
func (s *Store) append(kind byte, payload []byte) (seg int, off int64, err error) {
	recLen := int64(frameOverhead + len(payload))
	if s.activeSize+recLen > s.opts.MaxSegmentBytes && s.activeSize > int64(len(segMagic)) {
		if err := s.roll(); err != nil {
			return 0, 0, err
		}
	}
	buf := appendFrame(make([]byte, 0, recLen), kind, payload)
	if _, err := s.active.Write(buf); err != nil {
		return 0, 0, fmt.Errorf("store: append: %w", err)
	}
	if s.opts.Sync {
		if err := s.active.Sync(); err != nil {
			return 0, 0, fmt.Errorf("store: sync: %w", err)
		}
	}
	off = s.activeSize
	s.activeSize += recLen
	return s.activeNum, off, nil
}

// roll seals the active segment and opens the next one.
func (s *Store) roll() error {
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("store: sealing %s: %w", segName(s.activeNum), err)
	}
	n := s.activeNum + 1
	if err := s.createSegment(n); err != nil {
		return err
	}
	f, err := os.OpenFile(filepath.Join(s.dir, segName(n)), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.active, s.activeNum, s.activeSize = f, n, int64(len(segMagic))
	return nil
}

// PutResult appends one run keyed by key. unixTime stamps the append (the
// caller supplies it so replays and tests stay deterministic).
func (s *Store) PutResult(key Key, res *sim.Result, unixTime int64) error {
	data, err := sim.EncodeResult(res)
	if err != nil {
		return err
	}
	payload, err := json.Marshal(resultPayload{Key: key, Time: unixTime, Data: data})
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return fmt.Errorf("store: closed")
	}
	seg, off, err := s.append(kindResult, payload)
	if err != nil {
		return err
	}
	s.addEntry(entry{key: key, time: unixTime, seg: seg, off: off, len: int64(len(payload))})
	return nil
}

// PutWCET appends one WCET trend record.
func (s *Store) PutWCET(rec WCETRecord) error {
	payload, err := json.Marshal(rec)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return fmt.Errorf("store: closed")
	}
	if _, _, err := s.append(kindWCET, payload); err != nil {
		return err
	}
	s.wcet = append(s.wcet, rec)
	return nil
}

// readRecord re-reads one result record's frame and checks its kind,
// length and CRC, and that it holds the key it is indexed under, so a
// record altered on disk since Open is an error, never altered bytes.
func (s *Store) readRecord(e entry) (resultPayload, error) {
	var rp resultPayload
	f, err := os.Open(filepath.Join(s.dir, segName(e.seg)))
	if err != nil {
		return rp, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	buf := make([]byte, frameOverhead+e.len)
	if _, err := f.ReadAt(buf, e.off); err != nil {
		return rp, fmt.Errorf("store: reading %s @%d: %w", segName(e.seg), e.off, err)
	}
	kind, payload, _, ok := readFrame(buf, e.v1)
	if !ok || kind != kindResult || int64(len(payload)) != e.len {
		return rp, fmt.Errorf("store: %s @%d: record changed on disk since Open", segName(e.seg), e.off)
	}
	if err := json.Unmarshal(payload, &rp); err != nil {
		return rp, fmt.Errorf("store: %s @%d: %w", segName(e.seg), e.off, err)
	}
	if rp.Key != e.key {
		return rp, fmt.Errorf("store: %s @%d holds %v, indexed as %v", segName(e.seg), e.off, rp.Key, e.key)
	}
	return rp, nil
}

func (s *Store) decodeEntry(e entry) (*sim.Result, error) {
	rp, err := s.readRecord(e)
	if err != nil {
		return nil, err
	}
	return sim.DecodeResult(rp.Data)
}

// Get returns the latest result stored under exactly key.
func (s *Store) Get(key Key) (*sim.Result, bool, error) {
	s.mu.RLock()
	i, ok := s.byKey[key]
	var e entry
	if ok {
		e = s.entries[i]
	}
	s.mu.RUnlock()
	if !ok {
		return nil, false, nil
	}
	res, err := s.decodeEntry(e)
	return res, err == nil, err
}

// GetLatest returns the latest result for a (app, scheme, seed,
// config-hash) run regardless of which commit stored it — figure
// reconstruction's lookup.
func (s *Store) GetLatest(app, scheme string, seed uint64, configHash string) (*sim.Result, Key, bool, error) {
	s.mu.RLock()
	i, ok := s.byRunKey[runKey{app, scheme, configHash, seed}]
	var e entry
	if ok {
		e = s.entries[i]
	}
	s.mu.RUnlock()
	if !ok {
		return nil, Key{}, false, nil
	}
	res, err := s.decodeEntry(e)
	if err != nil {
		return nil, Key{}, false, err
	}
	return res, e.key, true, nil
}

// RawByHash returns the latest stored sim.EncodeResult bytes for a config
// hash, whatever app/scheme/seed/commit wrote them last. edbpd's
// GET /runs?format=raw serves these verbatim, so a client can assert the
// byte-exact round trip.
func (s *Store) RawByHash(configHash string) ([]byte, Key, bool, error) {
	s.mu.RLock()
	var best *entry
	for i := range s.entries {
		if s.entries[i].key.ConfigHash == configHash {
			best = &s.entries[i]
		}
	}
	var e entry
	if best != nil {
		e = *best
	}
	s.mu.RUnlock()
	if best == nil {
		return nil, Key{}, false, nil
	}
	rp, err := s.readRecord(e)
	if err != nil {
		return nil, Key{}, false, err
	}
	return rp.Data, e.key, true, nil
}

// Filter narrows Select/WCETs. Zero-valued fields match everything;
// strings compare case-insensitively for the human-typed fields (app,
// scheme, env); ConfigHash also accepts an unambiguous prefix.
type Filter struct {
	App        string
	Scheme     string
	Commit     string
	Env        string
	ConfigHash string
	Seed       *uint64
	// Limit caps the returned rows (0 = all), keeping append order.
	Limit int
	// LatestOnly drops superseded records: only each key's newest append
	// survives.
	LatestOnly bool
}

func (f Filter) matchKey(k Key) bool {
	if f.App != "" && !strings.EqualFold(f.App, k.App) {
		return false
	}
	if f.Scheme != "" && !strings.EqualFold(f.Scheme, k.Scheme) {
		return false
	}
	if f.Commit != "" && f.Commit != k.Commit {
		return false
	}
	if f.ConfigHash != "" && !strings.HasPrefix(k.ConfigHash, f.ConfigHash) {
		return false
	}
	if f.Seed != nil && *f.Seed != k.Seed {
		return false
	}
	return true
}

// Run is one selected record, decoded.
type Run struct {
	Key    Key
	Time   int64
	Result *sim.Result
}

// Select returns matching runs in append order.
func (s *Store) Select(f Filter) ([]Run, error) {
	s.mu.RLock()
	var picked []entry
	for i, e := range s.entries {
		if !f.matchKey(e.key) {
			continue
		}
		if f.LatestOnly && s.byKey[e.key] != i {
			continue
		}
		picked = append(picked, e)
		if f.Limit > 0 && len(picked) == f.Limit {
			break
		}
	}
	s.mu.RUnlock()
	out := make([]Run, 0, len(picked))
	for _, e := range picked {
		res, err := s.decodeEntry(e)
		if err != nil {
			return nil, err
		}
		out = append(out, Run{Key: e.key, Time: e.time, Result: res})
	}
	return out, nil
}

// WCETs returns matching WCET records in append order.
func (s *Store) WCETs(f Filter) []WCETRecord {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var out []WCETRecord
	for _, w := range s.wcet {
		if f.App != "" && !strings.EqualFold(f.App, w.App) {
			continue
		}
		if f.Env != "" && !strings.EqualFold(f.Env, w.Env) {
			continue
		}
		if f.Commit != "" && f.Commit != w.Commit {
			continue
		}
		out = append(out, w)
		if f.Limit > 0 && len(out) == f.Limit {
			break
		}
	}
	return out
}

// Len returns the number of result records (superseded included).
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.entries)
}

// distinct collects sorted unique values of one key field.
func (s *Store) distinct(get func(Key) string) []string {
	s.mu.RLock()
	set := map[string]bool{}
	for _, e := range s.entries {
		set[get(e.key)] = true
	}
	s.mu.RUnlock()
	out := make([]string, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	sort.Strings(out)
	return out
}

// Apps returns the distinct stored app names, sorted.
func (s *Store) Apps() []string { return s.distinct(func(k Key) string { return k.App }) }

// SchemeNames returns the distinct stored scheme names, sorted.
func (s *Store) SchemeNames() []string { return s.distinct(func(k Key) string { return k.Scheme }) }

// Commits returns the distinct stored commits, sorted.
func (s *Store) Commits() []string { return s.distinct(func(k Key) string { return k.Commit }) }

// ConfigHashes returns the distinct stored config hashes, sorted. In a
// sharded edbpd fleet each worker's store is one exclusive shard of the
// distributed result cache, so comparing ConfigHashes across the
// per-node store directories audits shard exclusivity: the sets must be
// pairwise disjoint when no worker died mid-grid.
func (s *Store) ConfigHashes() []string {
	return s.distinct(func(k Key) string { return k.ConfigHash })
}

// Close flushes and releases the active segment. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.active == nil {
		return nil
	}
	err := s.active.Close()
	s.active = nil
	return err
}
