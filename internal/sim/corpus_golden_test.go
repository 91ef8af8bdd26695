package sim

import (
	"crypto/sha256"
	"encoding/hex"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"edbp/internal/energy"
	"edbp/internal/workload"
)

var updateCorpus = flag.Bool("update", false, "rewrite testdata/result_corpus.txt from the current engine")

// corpusPath holds one line per run: app, harvest trace, scheme and the
// sha256 of the run's sim.EncodeResult bytes.
const corpusPath = "testdata/result_corpus.txt"

// corpusApps are four kernels that between them exercise short and long
// traces, store-heavy and load-heavy mixes, and Ideal's schedule on both.
var corpusApps = []string{"crc32", "sha", "dijkstra", "rijndael"}

// TestResultCorpus pins full Results, not just loop-against-loop equality:
// every scheme on every harvest trace over four kernels at scale 0.05,
// seed 1, hashed through the byte-exact Result codec. batch_golden_test.go
// compares the two replay loops with each other, so a change that moves
// both the same way passes there and fails here. Regenerate with
//
//	go test ./internal/sim -run TestResultCorpus -update
//
// only for a change meant to move results, and review the diff.
func TestResultCorpus(t *testing.T) {
	var got []string
	for _, app := range corpusApps {
		tr, err := workload.Cached(app, 0.05)
		if err != nil {
			t.Fatal(err)
		}
		for _, kind := range energy.TraceKinds {
			for _, scheme := range Schemes {
				cfg := Default(app, scheme)
				cfg.Scale = 0.05
				cfg.Trace = tr
				cfg.TraceKind = kind
				cfg.SourceSeed = 1
				res, err := Run(cfg)
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", app, kind, scheme, err)
				}
				data, err := EncodeResult(res)
				if err != nil {
					t.Fatalf("%s/%v/%v: %v", app, kind, scheme, err)
				}
				sum := sha256.Sum256(data)
				got = append(got, fmt.Sprintf("%s %v %v %s", app, kind, scheme, hex.EncodeToString(sum[:])))
			}
		}
	}

	if *updateCorpus {
		if err := os.MkdirAll(filepath.Dir(corpusPath), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(corpusPath, []byte(strings.Join(got, "\n")+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %d runs to %s", len(got), corpusPath)
		return
	}

	data, err := os.ReadFile(corpusPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	want := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(want) != len(got) {
		t.Fatalf("%s has %d runs, the corpus produced %d", corpusPath, len(want), len(got))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("run %d drifted:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
