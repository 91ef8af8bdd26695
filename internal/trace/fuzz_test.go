package trace

import (
	"bytes"
	"testing"
)

// FuzzReadJSONL: arbitrary bytes never panic, and ReadJSONL returns
// exactly one of a *Dump or an error. (There is no exact round trip to
// check: the wire's microsecond floats are lossy in the last bit by
// design.)
func FuzzReadJSONL(f *testing.F) {
	var buf bytes.Buffer
	if err := exerciseRecorder().WriteJSONL(&buf, []ProfilePoint{{Voltage: 3.3, ZombieRatio: 0.25, Samples: 40}}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte(`{"type":"meta","version":1,"label":"x","sample_every_us":20}
{"type":"future-record","whatever":true}
{"type":"event","kind":"outage","t_us":1,"cycle":0,"a":0,"b":0,"v":0}
`))
	f.Add([]byte(`{"type":"cycle","index":-1,"start_us":1e308}`))
	f.Add([]byte(`{"type":"summary","by_kind":{"sweep":1}} 1 [] "x"`))
	f.Add([]byte("{\"type\":\"event\",\"kind\":\"nope\"}\n{"))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, raw []byte) {
		d, err := ReadJSONL(bytes.NewReader(raw))
		if (d == nil) == (err == nil) {
			t.Fatalf("ReadJSONL = %v, %v: want exactly one of a dump or an error", d, err)
		}
	})
}
