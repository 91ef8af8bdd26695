package span

import (
	"bytes"
	"encoding/binary"
	"reflect"
	"strings"
	"testing"
	"time"
)

// FuzzJSONLRoundTrip: a Record built from fuzzed fields survives
// WriteJSONL → ReadJSONL exactly, and ReadJSONL never panics on
// arbitrary bytes. Records are constrained to what the wire format
// carries losslessly: valid UTF-8 strings, a non-zero trace ID, a
// microsecond-aligned UTC start, and 0 ≤ Dur < 24h.
func FuzzJSONLRoundTrip(f *testing.F) {
	f.Add("run", "w1", "", "app", "crc32", uint64(0xaa), uint64(1), uint64(0xbb01), uint64(0), int64(1_700_000_000_000_000), uint64(1001), []byte("{}\n"))
	f.Add("dispatch", "coord", "connection refused", "attempt", "2", uint64(1), uint64(0), uint64(2), uint64(1), int64(0), uint64(1003), []byte("not json\n"))
	f.Add("POST /grid", "", "", "", "", uint64(0), uint64(7), uint64(0), uint64(0), int64(-1), uint64(86_399_999_999_999), []byte(`{"trace":"aa000000000000000000000000000001","span":"bb00000000000001","name":"x","start_us":1,"dur_us":1.001}`))
	f.Add("<&>\u2028", "n\"ode", "err\n", "k", "\x00v", uint64(1)<<63, uint64(1)<<63, ^uint64(0), ^uint64(0), int64(1)<<62, uint64(999), []byte("\n\n{\"trace\":\"zz\"}"))

	f.Fuzz(func(t *testing.T, name, node, errMsg, key, val string, traceHi, traceLo, id, parent uint64, startUS int64, durNS uint64, raw []byte) {
		ReadJSONL(bytes.NewReader(raw)) // must not panic

		clean := func(s string) string { return strings.ToValidUTF8(s, "\uFFFD") }
		var rec Record
		binary.BigEndian.PutUint64(rec.Trace[:8], traceHi)
		binary.BigEndian.PutUint64(rec.Trace[8:], traceLo)
		if rec.Trace.IsZero() {
			rec.Trace[15] = 1
		}
		binary.BigEndian.PutUint64(rec.ID[:], id)
		binary.BigEndian.PutUint64(rec.Parent[:], parent)
		rec.Name, rec.Node, rec.Err = clean(name), clean(node), clean(errMsg)
		if key != "" || val != "" {
			rec.Attrs = []Attr{{Key: clean(key), Value: clean(val)}}
		}
		rec.Start = time.UnixMicro(startUS).UTC()
		rec.Dur = time.Duration(durNS % uint64(24*time.Hour))

		var buf bytes.Buffer
		if err := WriteJSONL(&buf, []Record{rec}); err != nil {
			t.Fatal(err)
		}
		got, err := ReadJSONL(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("ReadJSONL(%s): %v", buf.Bytes(), err)
		}
		if want := []Record{rec}; !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip of %s:\n got %+v\nwant %+v", buf.Bytes(), got, want)
		}
	})
}

// FuzzParseTraceparent: ParseTraceparent never panics, rejects with the
// zero Context, and an accepted header re-renders through Traceparent()
// into a header that parses back to the same Context.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-aa000000000000000000000000000001-bb00000000000001-01")
	f.Add("00-AA000000000000000000000000000001-BB00000000000001-00")
	f.Add("00-00000000000000000000000000000000-bb00000000000001-01")
	f.Add("00-aa000000000000000000000000000001-0000000000000000-01")
	f.Add("01-aa000000000000000000000000000001-bb00000000000001-01")
	f.Add("00-aa000000000000000000000000000001-bb00000000000001-zz")
	f.Add("")

	f.Fuzz(func(t *testing.T, s string) {
		c, ok := ParseTraceparent(s)
		if !ok {
			if c != (Context{}) {
				t.Fatalf("rejected %q but returned %+v", s, c)
			}
			return
		}
		if !c.Valid() {
			t.Fatalf("accepted %q as invalid context %+v", s, c)
		}
		h := c.Traceparent()
		c2, ok := ParseTraceparent(h)
		if !ok || c2 != c {
			t.Fatalf("%q → %+v → %q → %+v, %v", s, c, h, c2, ok)
		}
	})
}
