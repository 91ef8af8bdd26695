package cache

import (
	"testing"
	"testing/quick"

	"edbp/internal/xrand"
)

func TestParsePolicy(t *testing.T) {
	for _, k := range PolicyKinds {
		got, err := ParsePolicy(k.String())
		if err != nil || got != k {
			t.Errorf("round-trip of %v failed: %v %v", k, got, err)
		}
	}
	if _, err := ParsePolicy("lru"); err != nil {
		t.Error("case-insensitive parse failed")
	}
	if _, err := ParsePolicy("MRU"); err == nil {
		t.Error("unknown policy accepted")
	}
	if PolicyKind(99).String() == "" {
		t.Error("unknown kind must still stringify")
	}
}

// TestRankIsPermutation: for every policy, Rank must return each way
// exactly once, under arbitrary access histories.
func TestRankIsPermutation(t *testing.T) {
	for _, kind := range PolicyKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const sets, ways = 8, 4
			p := newPolicy(kind, sets, ways)
			f := func(ops []uint16) bool {
				for _, op := range ops {
					set := int(op) % sets
					way := int(op>>4) % ways
					switch op % 3 {
					case 0:
						p.OnFill(set, way)
					case 1:
						p.OnHit(set, way)
					case 2:
						p.OnMiss(set)
					}
				}
				for s := 0; s < sets; s++ {
					rank := p.Rank(s, nil)
					if len(rank) != ways {
						return false
					}
					seen := map[int]bool{}
					for _, w := range rank {
						if w < 0 || w >= ways || seen[w] {
							return false
						}
						seen[w] = true
					}
				}
				return true
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestVictimInRange: victims are always valid way indices.
func TestVictimInRange(t *testing.T) {
	for _, kind := range PolicyKinds {
		kind := kind
		t.Run(kind.String(), func(t *testing.T) {
			const sets, ways = 4, 4
			p := newPolicy(kind, sets, ways)
			rng := xrand.New(5)
			for i := 0; i < 2000; i++ {
				set := rng.Intn(sets)
				switch rng.Intn(3) {
				case 0:
					p.OnFill(set, rng.Intn(ways))
				case 1:
					p.OnHit(set, rng.Intn(ways))
				default:
					v := p.Victim(set)
					if v < 0 || v >= ways {
						t.Fatalf("victim %d out of range", v)
					}
				}
			}
		})
	}
}

func TestLRUOrder(t *testing.T) {
	p := newLRU(1, 4)
	p.OnFill(0, 0)
	p.OnFill(0, 1)
	p.OnFill(0, 2)
	p.OnFill(0, 3)
	p.OnHit(0, 0) // 0 becomes MRU again
	rank := p.Rank(0, nil)
	want := []int{0, 3, 2, 1}
	for i, w := range want {
		if rank[i] != w {
			t.Fatalf("rank = %v, want %v", rank, want)
		}
	}
	if v := p.Victim(0); v != 1 {
		t.Fatalf("victim = %d, want 1", v)
	}
}

func TestFIFOIgnoresHits(t *testing.T) {
	p := newFIFO(1, 3)
	p.OnFill(0, 0)
	p.OnFill(0, 1)
	p.OnFill(0, 2)
	p.OnHit(0, 0) // FIFO must not promote on hit
	if v := p.Victim(0); v != 0 {
		t.Fatalf("victim = %d, want 0 (oldest fill)", v)
	}
}

func TestRandomDeterministic(t *testing.T) {
	a, b := newRandom(1, 4), newRandom(1, 4)
	for i := 0; i < 100; i++ {
		if a.Victim(0) != b.Victim(0) {
			t.Fatal("random policy must be deterministic across runs")
		}
	}
}

func TestPLRUVictimAvoidsRecentlyUsed(t *testing.T) {
	p := newPLRU(1, 4)
	// Touch ways 0..3 in order; PLRU guarantees the victim is not the
	// most recently touched way.
	for w := 0; w < 4; w++ {
		p.OnHit(0, w)
	}
	if v := p.Victim(0); v == 3 {
		t.Fatal("PLRU victim must not be the most recently used way")
	}
	// After touching only way 2, the victim must come from the other
	// subtree (ways 0 or 1).
	p2 := newPLRU(1, 4)
	p2.OnHit(0, 2)
	if v := p2.Victim(0); v == 2 {
		t.Fatal("PLRU victim must not be the just-touched way")
	}
}

// TestPLRURejectsBadWays: Config.Validate holds PLRU to its tree's
// power-of-two, at most 32-way shape.
func TestPLRURejectsBadWays(t *testing.T) {
	for _, ways := range []int{3, 64} {
		cfg := Config{SizeBytes: 16384, BlockBytes: 16, Ways: ways, Policy: PLRU}
		if err := cfg.Validate(); err == nil {
			t.Errorf("%d-way PLRU accepted", ways)
		}
		if _, err := New(cfg); err == nil {
			t.Errorf("New built a %d-way PLRU", ways)
		}
	}
	if err := (Config{SizeBytes: 16384, BlockBytes: 16, Ways: 32, Policy: PLRU}).Validate(); err != nil {
		t.Errorf("32-way PLRU rejected: %v", err)
	}
}

func TestPLRURankMRUFirst(t *testing.T) {
	p := newPLRU(1, 4)
	p.OnHit(0, 1)
	rank := p.Rank(0, nil)
	if rank[0] != 1 {
		t.Fatalf("rank = %v, most recent way 1 must rank first", rank)
	}
	if rank[len(rank)-1] != p.Victim(0) {
		t.Fatalf("rank tail %d must agree with victim %d", rank[len(rank)-1], p.Victim(0))
	}
}

func TestDRRIPHitPromotion(t *testing.T) {
	p := newDRRIP(64, 4)
	p.OnFill(3, 0)
	p.OnFill(3, 1)
	p.OnHit(3, 0)
	rank := p.Rank(3, nil)
	if rank[0] != 0 {
		t.Fatalf("rank = %v, hit-promoted way 0 must rank first", rank)
	}
}

func TestDRRIPVictimPrefersDistant(t *testing.T) {
	p := newDRRIP(64, 4)
	// Set 1 is a follower. Fill all ways, promote 0 and 1 by hits.
	for w := 0; w < 4; w++ {
		p.OnFill(1, w)
	}
	p.OnHit(1, 0)
	p.OnHit(1, 1)
	v := p.Victim(1)
	if v == 0 || v == 1 {
		t.Fatalf("victim = %d, must avoid hit-promoted ways", v)
	}
}

func TestDRRIPSetDueling(t *testing.T) {
	p := newDRRIP(64, 4)
	// Misses in the SRRIP leader (set 0) push PSEL toward BRRIP.
	start := p.psel
	for i := 0; i < 100; i++ {
		p.OnMiss(0)
	}
	if !(p.psel > start) {
		t.Fatal("misses in SRRIP leader must increment PSEL")
	}
	for i := 0; i < 300; i++ {
		p.OnMiss(32) // BRRIP leader for 64 sets
	}
	if !(p.psel < start+100) {
		t.Fatal("misses in BRRIP leader must decrement PSEL")
	}
	// PSEL saturates.
	for i := 0; i < 5000; i++ {
		p.OnMiss(32)
	}
	if p.psel < 0 {
		t.Fatal("PSEL must not underflow")
	}
}

func TestDRRIPVictimTerminates(t *testing.T) {
	p := newDRRIP(64, 4)
	// Promote everything to RRPV 0; Victim must still terminate by aging.
	for w := 0; w < 4; w++ {
		p.OnFill(5, w)
		p.OnHit(5, w)
	}
	v := p.Victim(5)
	if v < 0 || v >= 4 {
		t.Fatalf("victim = %d", v)
	}
}
