package energy

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"testing"
)

// traceGolden holds, per environment and seed, the sha256 of the float64
// bits (little-endian) of every sample of one full period, in order. The
// Result corpus cannot stand in for it: no pinned run reads past the first
// 26 ms of a 10 s trace. Any drift here changes the harvest every
// simulation sees.
var traceGolden = map[string]string{
	"RFHome/1":   "1a939a637bff1cc966187671ebff80d91738e4ccb0dd9bb50010e55ac0cd50fc",
	"RFHome/2":   "095f6bf7871d86d0045baa32c311d45d22fe212296445c6f6482883ae6d251bf",
	"RFHome/3":   "631a218c1e787595573d3d38daaee05d76df0e61267828593162a42b71e76163",
	"RFOffice/1": "e90e9f99cd04706e77e05d01cd1cc4ea0c7175305e355f1f2eb8fb3f6cc7f649",
	"RFOffice/2": "9d6abb535de47a2ab1192670132cf4d4c6600720dba07b8a0d88fdad621c0749",
	"RFOffice/3": "2781fcf1300e7e645dbdc84b0edab235b65891de5eae02c1d5816a4927a5f07c",
	"Thermal/1":  "46a59aef45d25358a4439e7b048b8ca1d70e436157aede9f1c0868af351a3da6",
	"Thermal/2":  "db62989a7620fa569cdbfb5e82fdffab4d338adcad66b9e58c1c982d7395205e",
	"Thermal/3":  "71d4012eba578c0ce8ffce321783dcb42aa81e020824cb970c1cebb643fd716c",
	"Solar/1":    "35eb9e92c4a777f050a184095685bcc95d94da901dc8f8f5c9773d49e4e681f8",
	"Solar/2":    "f596ca40878a0f0123e5ec6b0626209ffb2c33d7e9e8c6006716a196ad1fb160",
	"Solar/3":    "e73e7bd2822aa71c8795ca08125d80ffb4425c3ea10ae1ef43e7529ff2ed2fc4",
}

// TestTraceGolden reads each sample through Trace.Power at the middle of
// its window, (i+0.5)·TraceResolution: the window start i·TraceResolution
// divides back to i−1 for thousands of i, the midpoint to i for all of
// them (asserted below).
func TestTraceGolden(t *testing.T) {
	n := int(tracePeriod / TraceResolution)
	var word [8]byte
	for _, k := range TraceKinds {
		for seed := uint64(1); seed <= 3; seed++ {
			tr := NewTrace(k, seed)
			h := sha256.New()
			for i := 0; i < n; i++ {
				at := (float64(i) + 0.5) * TraceResolution
				if int(at/TraceResolution) != i {
					t.Fatalf("time %g does not index sample %d", at, i)
				}
				binary.LittleEndian.PutUint64(word[:], math.Float64bits(tr.Power(at)))
				h.Write(word[:])
			}
			label := fmt.Sprintf("%v/%d", k, seed)
			if got := hex.EncodeToString(h.Sum(nil)); got != traceGolden[label] {
				t.Errorf("%s: samples hash to %s, want %s", label, got, traceGolden[label])
			}
		}
	}
}
