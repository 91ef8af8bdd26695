package cache

import (
	"testing"
	"testing/quick"

	"edbp/internal/xrand"
)

func mustCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func defaultConfig() Config {
	return Config{SizeBytes: 4096, BlockBytes: 16, Ways: 4, Policy: LRU, Power: GateInvalid}
}

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{SizeBytes: 0, BlockBytes: 16, Ways: 4},
		{SizeBytes: 3000, BlockBytes: 16, Ways: 4},
		{SizeBytes: 4096, BlockBytes: 0, Ways: 4},
		{SizeBytes: 4096, BlockBytes: 24, Ways: 4},
		{SizeBytes: 4096, BlockBytes: 16, Ways: 0},
		{SizeBytes: 4096, BlockBytes: 16, Ways: 3},    // 85.33 sets
		{SizeBytes: 16384, BlockBytes: 16, Ways: 512}, // past uint8 way indices
		{SizeBytes: 4096, BlockBytes: 16, Ways: 4, Policy: PolicyKind(99)},
		{SizeBytes: 2 << 20, BlockBytes: 16, Ways: 4}, // past the 1 MiB bound
		{SizeBytes: 8 << 30, BlockBytes: 16, Ways: 4}, // 512M blocks
	}
	for _, cfg := range bad {
		if err := cfg.Validate(); err == nil {
			t.Errorf("config %+v accepted", cfg)
		}
	}
	if err := defaultConfig().Validate(); err != nil {
		t.Errorf("default rejected: %v", err)
	}
	if err := (Config{SizeBytes: 16384, BlockBytes: 16, Ways: 256}).Validate(); err != nil {
		t.Errorf("256-way cache rejected: %v", err)
	}
	if err := (Config{SizeBytes: 1 << 20, BlockBytes: 16, Ways: 4}).Validate(); err != nil {
		t.Errorf("1 MiB cache rejected: %v", err)
	}
	if got := defaultConfig().Sets(); got != 64 {
		t.Errorf("Sets() = %d, want 64", got)
	}
	if got := defaultConfig().Blocks(); got != 256 {
		t.Errorf("Blocks() = %d, want 256", got)
	}
}

func TestMissThenHit(t *testing.T) {
	c := mustCache(t, defaultConfig())
	r := c.Access(0x1000, false)
	if r.Hit || !r.Filled {
		t.Fatalf("first access must miss and fill: %+v", r)
	}
	r = c.Access(0x1008, false) // same 16B block
	if !r.Hit {
		t.Fatalf("same-block access must hit: %+v", r)
	}
	s := c.Stats()
	if s.Hits != 1 || s.Misses != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

func TestWriteAllocateAndDirty(t *testing.T) {
	c := mustCache(t, defaultConfig())
	r := c.Access(0x40, true)
	if r.Hit {
		t.Fatal("store to cold cache must miss")
	}
	b := c.Block(r.Set, r.Way)
	if !b.Dirty {
		t.Fatal("store-allocated block must be dirty")
	}
	r2 := c.Access(0x40, false)
	if !r2.Hit || !c.Block(r2.Set, r2.Way).Dirty {
		t.Fatal("load hit must not clear dirty")
	}
}

func TestLRUEviction(t *testing.T) {
	c := mustCache(t, defaultConfig())
	sets := c.Sets()
	// Fill all 4 ways of set 0 with distinct tags, then access three of
	// them so the first becomes LRU, then force an eviction.
	addr := func(tag int) uint64 { return uint64(tag) * uint64(sets) * 16 }
	for tag := 0; tag < 4; tag++ {
		c.Access(addr(tag), false)
	}
	c.Access(addr(1), false)
	c.Access(addr(2), false)
	c.Access(addr(3), false)
	r := c.Access(addr(4), false)
	if !r.Evicted {
		t.Fatal("fifth tag must evict")
	}
	if r.EvictedTag != 0 {
		t.Fatalf("evicted tag = %d, want 0 (the LRU)", r.EvictedTag)
	}
}

func TestDirtyEvictionReportsWriteback(t *testing.T) {
	c := mustCache(t, defaultConfig())
	sets := c.Sets()
	addr := func(tag int) uint64 { return uint64(tag) * uint64(sets) * 16 }
	c.Access(addr(0), true) // dirty
	for tag := 1; tag < 5; tag++ {
		c.Access(addr(tag), false)
	}
	if c.Stats().Writebacks != 1 {
		t.Fatalf("writebacks = %d, want 1", c.Stats().Writebacks)
	}
}

func TestGateSemantics(t *testing.T) {
	c := mustCache(t, defaultConfig())
	r := c.Access(0x100, true)
	set, way := r.Set, r.Way

	wasDirty, gated := c.Gate(set, way)
	if !gated || !wasDirty {
		t.Fatalf("gating a live dirty block: dirty=%v gated=%v", wasDirty, gated)
	}
	b := c.Block(set, way)
	if b.Live() || !b.Gated || b.Dirty {
		t.Fatalf("gated block state: %+v", b)
	}

	// Gating again is a no-op.
	if _, again := c.Gate(set, way); again {
		t.Fatal("double gating must be a no-op")
	}

	// Re-demand: miss with WrongKill, refilled into the same way.
	r2 := c.Access(0x100, false)
	if r2.Hit || !r2.WrongKill || !r2.Filled || r2.Way != way {
		t.Fatalf("re-demand of gated block: %+v", r2)
	}
	if c.Stats().GatedMisses != 1 {
		t.Fatalf("gated misses = %d, want 1", c.Stats().GatedMisses)
	}
}

func TestGatedWayPreferredVictim(t *testing.T) {
	c := mustCache(t, defaultConfig())
	sets := c.Sets()
	addr := func(tag int) uint64 { return uint64(tag) * uint64(sets) * 16 }
	var gatedWay int
	for tag := 0; tag < 4; tag++ {
		r := c.Access(addr(tag), false)
		if tag == 2 {
			gatedWay = r.Way
		}
	}
	c.Gate(0, gatedWay)
	r := c.Access(addr(9), false)
	if r.Way != gatedWay {
		t.Fatalf("fill chose way %d, want the gated way %d", r.Way, gatedWay)
	}
	if r.Evicted != true || !r.EvictedGated {
		t.Fatalf("replacing a gated block must report EvictedGated: %+v", r)
	}
}

func TestPoweredCountGateInvalid(t *testing.T) {
	c := mustCache(t, defaultConfig())
	if c.PoweredBlocks() != 0 {
		t.Fatalf("cold GateInvalid cache powers %d blocks, want 0", c.PoweredBlocks())
	}
	c.Access(0x0, false)
	c.Access(0x1000, false)
	if c.PoweredBlocks() != 2 {
		t.Fatalf("powered = %d, want 2", c.PoweredBlocks())
	}
	c.Gate(0, 0)
	if c.PoweredBlocks() != 1 {
		t.Fatalf("powered after gate = %d, want 1", c.PoweredBlocks())
	}
}

func TestPoweredCountAlwaysOn(t *testing.T) {
	cfg := defaultConfig()
	cfg.Power = AlwaysOn
	c := mustCache(t, cfg)
	if c.PoweredBlocks() != cfg.Blocks() {
		t.Fatalf("AlwaysOn cold cache powers %d, want %d", c.PoweredBlocks(), cfg.Blocks())
	}
	c.Access(0x0, false)
	if c.PoweredBlocks() != cfg.Blocks() {
		t.Fatal("AlwaysOn power count must never change")
	}
}

func TestOutageKeepsOnlySelected(t *testing.T) {
	c := mustCache(t, defaultConfig())
	c.Access(0x0, true)   // dirty
	c.Access(0x10, false) // clean, different set
	c.Outage(func(_, _ int, b *Block) bool { return b.Dirty })
	if got := c.LiveBlocks(); got != 1 {
		t.Fatalf("live blocks after outage = %d, want 1 (the dirty one)", got)
	}
	// The clean block must now miss.
	if r := c.Access(0x10, false); r.Hit {
		t.Fatal("clean block must be lost at outage")
	}
	// The dirty block must still hit.
	if r := c.Access(0x0, false); !r.Hit {
		t.Fatal("checkpointed dirty block must survive outage")
	}
}

func TestOutageDropsGatedBlocks(t *testing.T) {
	c := mustCache(t, defaultConfig())
	r := c.Access(0x0, false)
	c.Gate(r.Set, r.Way)
	c.Outage(func(_, _ int, _ *Block) bool { return true })
	if c.Block(r.Set, r.Way).Valid {
		t.Fatal("gated blocks must not survive outages (they hold no data)")
	}
}

func TestIndexRoundTrip(t *testing.T) {
	c := mustCache(t, defaultConfig())
	f := func(addr uint64) bool {
		addr &= 0xffffff0 // stay in a sane range, block aligned
		set, tag := c.Index(addr)
		return c.BlockAddr(set, tag) == addr&^15
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLookupDoesNotMutate(t *testing.T) {
	c := mustCache(t, defaultConfig())
	c.Access(0x0, false)
	h0 := c.Stats().Hits
	way, gated := c.Lookup(0x0)
	if way < 0 || gated >= 0 {
		t.Fatalf("lookup found way=%d gated=%d", way, gated)
	}
	if c.Stats().Hits != h0 {
		t.Fatal("Lookup must not touch statistics")
	}
	if way2, _ := c.Lookup(0xdead0); way2 >= 0 {
		t.Fatal("lookup of absent address found a block")
	}
}

func TestInvalidateAll(t *testing.T) {
	c := mustCache(t, defaultConfig())
	c.Access(0x0, true)
	c.InvalidateAll()
	if c.LiveBlocks() != 0 || c.PoweredBlocks() != 0 {
		t.Fatal("InvalidateAll left live or powered blocks")
	}
}

// TestLRUAgainstReferenceModel replays random access streams against both
// the cache and a brutally simple reference implementation of a
// set-associative LRU cache, comparing hit/miss outcomes exactly.
func TestLRUAgainstReferenceModel(t *testing.T) {
	cfg := Config{SizeBytes: 512, BlockBytes: 16, Ways: 4, Policy: LRU, Power: GateInvalid}
	c := mustCache(t, cfg)
	sets := cfg.Sets()

	// Reference: per set, a slice of tags in MRU-first order.
	ref := make([][]uint64, sets)
	refAccess := func(addr uint64) bool {
		block := addr / 16
		set := int(block % uint64(sets))
		tag := block / uint64(sets)
		s := ref[set]
		for i, tg := range s {
			if tg == tag {
				copy(s[1:i+1], s[:i])
				s[0] = tag
				return true
			}
		}
		s = append([]uint64{tag}, s...)
		if len(s) > cfg.Ways {
			s = s[:cfg.Ways]
		}
		ref[set] = s
		return false
	}

	rng := xrand.New(77)
	for i := 0; i < 50000; i++ {
		addr := uint64(rng.Intn(4096)) // 256 blocks over 32 blocks of cache
		want := refAccess(addr)
		got := c.Access(addr, rng.Intn(2) == 0).Hit
		if got != want {
			t.Fatalf("access %d to %#x: cache hit=%v, reference hit=%v", i, addr, got, want)
		}
	}
}

func TestStatsMissRate(t *testing.T) {
	var s Stats
	if s.MissRate() != 0 {
		t.Fatal("empty stats must report 0 miss rate")
	}
	s.Hits, s.Misses = 75, 25
	if got := s.MissRate(); got != 0.25 {
		t.Fatalf("miss rate = %g, want 0.25", got)
	}
}
