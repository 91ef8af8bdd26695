package sim_test

import (
	"context"
	"testing"

	"edbp/internal/fuzz"
)

// TestSimInvariantsProperty is the property-based slice of the simulator's
// contract: a small seeded sample of fuzzed configurations (all twelve
// schemes, randomized capacitors, thresholds, geometries, environments)
// must satisfy every machine-checkable invariant in the fuzz catalog.
// One subtest per invariant, so a regression names the property it broke.
// cmd/edbpfuzz runs the same catalog at campaign scale; this test keeps a
// fast always-on sample inside the sim package's own test run.
func TestSimInvariantsProperty(t *testing.T) {
	const cases = 36 // 3 × the scheme round-robin
	opts := fuzz.Options{Seed: 11, Cases: cases, CancelEvery: 4}
	corpus := fuzz.Generate(opts)

	arts := make([]*fuzz.Artifacts, len(corpus))
	for i, cs := range corpus {
		a, err := fuzz.Execute(context.Background(), cs, opts)
		if err != nil {
			t.Fatalf("case %d (%s/%s): %v", cs.Index, cs.Config.App, cs.Config.Scheme, err)
		}
		arts[i] = a
	}

	for _, inv := range fuzz.Catalog() {
		t.Run(inv.Name, func(t *testing.T) {
			for i, a := range arts {
				if err := inv.Check(a); err != nil {
					t.Errorf("case %d (%s/%s): %v", corpus[i].Index,
						corpus[i].Config.App, corpus[i].Config.Scheme, err)
				}
			}
		})
	}
}
