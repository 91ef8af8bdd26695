// Package cache implements the set-associative, write-back SRAM cache used
// by the paper's energy harvesting system, including the per-block power
// gating (gate-Vdd [52]) that dead block predictors and EDBP drive.
//
// A gated block keeps its tag (so the hardware can recognise a re-demand of
// a block it killed — a wrong kill / false positive) but loses its data and
// stops leaking. The cache tracks the number of powered blocks so the
// simulator can integrate leakage energy exactly.
package cache

import "fmt"

// PowerMode selects which blocks leak.
type PowerMode int

const (
	// AlwaysOn: every block leaks whenever the system is powered. This is
	// the baseline NVSRAMCache and SDBP, which have no gating hardware.
	AlwaysOn PowerMode = iota
	// GateInvalid: only valid, non-gated blocks leak. Schemes with
	// gate-Vdd hardware (Cache Decay, EDBP, Ideal) power a way only while
	// it holds live data.
	GateInvalid
)

// Config describes a cache instance.
type Config struct {
	SizeBytes  int        // total capacity (power of two)
	BlockBytes int        // block size (paper default: 16)
	Ways       int        // associativity (1 = direct mapped)
	Policy     PolicyKind // replacement policy
	Power      PowerMode  // gating hardware model
}

// maxWays bounds the associativity: the LRU recency stacks (and
// HitView.Stack) hold way indices as uint8.
const maxWays = 256

// maxPLRUWays bounds PLRU's associativity: its ways−1 tree bits per set
// live in one uint32.
const maxPLRUWays = 32

// maxSizeBytes bounds the capacity: New allocates one Block per block, so
// a size from outside the program must not be able to ask for gigabytes.
// It is 64× the largest cache any figure uses (16 KiB).
const maxSizeBytes = 1 << 20

// Validate reports configuration errors. New builds every configuration
// it accepts.
func (c Config) Validate() error {
	switch {
	case c.SizeBytes <= 0 || c.SizeBytes&(c.SizeBytes-1) != 0:
		return fmt.Errorf("cache: size must be a positive power of two, got %d", c.SizeBytes)
	case c.SizeBytes > maxSizeBytes:
		return fmt.Errorf("cache: size %d exceeds %d bytes", c.SizeBytes, maxSizeBytes)
	case c.BlockBytes <= 0 || c.BlockBytes&(c.BlockBytes-1) != 0:
		return fmt.Errorf("cache: block size must be a positive power of two, got %d", c.BlockBytes)
	case c.Ways <= 0:
		return fmt.Errorf("cache: associativity must be positive, got %d", c.Ways)
	case c.Ways > maxWays:
		return fmt.Errorf("cache: associativity %d exceeds %d ways", c.Ways, maxWays)
	case c.SizeBytes%(c.BlockBytes*c.Ways) != 0:
		return fmt.Errorf("cache: size %d not divisible by block size %d × ways %d", c.SizeBytes, c.BlockBytes, c.Ways)
	}
	sets := c.SizeBytes / (c.BlockBytes * c.Ways)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache: set count %d must be a power of two", sets)
	}
	switch c.Policy {
	case LRU, FIFO, Random, DRRIP:
	case PLRU:
		// Ways is a power of two here: size, block size and set count are.
		if c.Ways > maxPLRUWays {
			return fmt.Errorf("cache: PLRU supports up to %d ways, got %d", maxPLRUWays, c.Ways)
		}
	default:
		return fmt.Errorf("cache: unknown policy kind %d", int(c.Policy))
	}
	return nil
}

// Sets returns the number of sets implied by the configuration.
func (c Config) Sets() int { return c.SizeBytes / (c.BlockBytes * c.Ways) }

// Blocks returns the total number of blocks.
func (c Config) Blocks() int { return c.SizeBytes / c.BlockBytes }

// Block is the metadata of one cache block (the simulator never models
// data contents; the workload layer carries real values).
type Block struct {
	Tag   uint64
	Valid bool
	Dirty bool
	// Gated means the block's supply is cut: no leakage, data lost, tag
	// retained for wrong-kill detection.
	Gated bool
	// Uses counts accesses in the current generation (fill to eviction);
	// predictors such as SDBP consume it.
	Uses uint32
}

// Live reports whether the block holds usable data.
func (b *Block) Live() bool { return b.Valid && !b.Gated }

// Stats accumulates access statistics.
type Stats struct {
	Hits        uint64
	Misses      uint64
	GatedMisses uint64 // misses whose tag matched a gated block (wrong kills)
	Evictions   uint64
	Writebacks  uint64 // dirty evictions (demand-driven; gating writebacks are counted by the caller)
	Fills       uint64
	StoreHits   uint64
	StoreMisses uint64
}

// Accesses returns total demand accesses.
func (s *Stats) Accesses() uint64 { return s.Hits + s.Misses }

// MissRate returns the demand miss rate in [0,1].
func (s *Stats) MissRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.Misses) / float64(a)
}

// AccessResult describes everything one demand access did, so the
// simulator can charge costs and update prediction bookkeeping.
type AccessResult struct {
	Hit bool
	// WrongKill is set on a miss whose tag matched a gated block: the
	// block was deactivated and then demanded again — a false positive of
	// whichever predictor gated it.
	WrongKill bool
	Set, Way  int
	// Filled is set when the miss allocated the block into (Set, Way).
	Filled bool
	// Evicted describes the victim replaced by the fill, if any.
	Evicted      bool
	EvictedTag   uint64
	EvictedDirty bool
	EvictedGated bool
	// EvictedUses is the victim generation's final access count (fills
	// count as the first use); predictors train on it.
	EvictedUses uint32
}

// Cache is a set-associative write-back cache with power gating.
type Cache struct {
	cfg    Config
	sets   int
	blocks []Block // sets × ways, row-major
	policy Policy
	stats  Stats

	powered int // number of leaking blocks under the configured PowerMode

	// Hot-path shortcuts. Block size and set count are validated powers of
	// two, so indexing reduces to shifts and masks (hardware division is an
	// order of magnitude slower and Access runs twice per simulated event).
	blockShift uint
	setShift   uint
	setMask    uint64
	alwaysOn   bool       // cfg.Power == AlwaysOn: the powered count never changes
	lru        *lruPolicy // non-nil for the default LRU policy: direct calls

	// Observation hooks (nil unless tracing is attached). gateHook fires
	// only from Gate (a rare, predictor-driven path); wrongKillHook fires
	// only on the gated-miss branch of AccessTo — the demand-access fast
	// paths never consult them beyond one untaken nil check.
	gateHook      func(set, way int, wasDirty bool)
	wrongKillHook func(set, way int)
}

// New constructs a cache. All blocks start invalid; under GateInvalid they
// therefore start powered off.
func New(cfg Config) (*Cache, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	pol := newPolicy(cfg.Policy, cfg.Sets(), cfg.Ways)
	c := &Cache{
		cfg:        cfg,
		sets:       cfg.Sets(),
		blocks:     make([]Block, cfg.Blocks()),
		policy:     pol,
		blockShift: log2(uint64(cfg.BlockBytes)),
		setShift:   log2(uint64(cfg.Sets())),
		setMask:    uint64(cfg.Sets()) - 1,
		alwaysOn:   cfg.Power == AlwaysOn,
	}
	c.lru, _ = pol.(*lruPolicy)
	c.recountPowered()
	return c, nil
}

// log2 of a power of two.
func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// Policy exposes the replacement policy (EDBP reads recency ranks off it).
func (c *Cache) Policy() Policy { return c.policy }

// Stats returns a pointer to the live statistics.
func (c *Cache) Stats() *Stats { return &c.stats }

// Sets returns the number of sets.
func (c *Cache) Sets() int { return c.sets }

// Ways returns the associativity.
func (c *Cache) Ways() int { return c.cfg.Ways }

// Block returns the block at (set, way) for inspection. The returned
// pointer stays valid for the cache's lifetime; callers must not mutate
// state through it (use Gate / access methods).
func (c *Cache) Block(set, way int) *Block {
	return &c.blocks[set*c.cfg.Ways+way]
}

// PoweredBlocks returns how many blocks currently leak.
func (c *Cache) PoweredBlocks() int { return c.powered }

// LiveBlocks returns how many blocks hold usable data.
func (c *Cache) LiveBlocks() int {
	n := 0
	for i := range c.blocks {
		if c.blocks[i].Live() {
			n++
		}
	}
	return n
}

// SetGateHook attaches an observer called whenever Gate actually powers a
// block off (nil detaches).
func (c *Cache) SetGateHook(fn func(set, way int, wasDirty bool)) { c.gateHook = fn }

// SetWrongKillHook attaches an observer called when a demand miss finds a
// gated copy of its block — a predictor wrong kill (nil detaches).
func (c *Cache) SetWrongKillHook(fn func(set, way int)) { c.wrongKillHook = fn }

// StateCounts scans the cache and returns how many blocks are live
// (powered with usable data), gated (valid but powered off), and dirty
// (live with unwritten data). It is O(blocks): meant for periodic
// sampling, not per-access use.
func (c *Cache) StateCounts() (live, gated, dirty int) {
	for i := range c.blocks {
		b := &c.blocks[i]
		switch {
		case b.Live():
			live++
			if b.Dirty {
				dirty++
			}
		case b.Valid && b.Gated:
			gated++
		}
	}
	return live, gated, dirty
}

// Index maps a byte address to (set, tag). Block size and set count are
// powers of two, so this is exact shift/mask arithmetic.
func (c *Cache) Index(addr uint64) (set int, tag uint64) {
	blockAddr := addr >> c.blockShift
	return int(blockAddr & c.setMask), blockAddr >> c.setShift
}

// BlockAddr reconstructs the block-aligned byte address of (set, tag).
func (c *Cache) BlockAddr(set int, tag uint64) uint64 {
	return (tag<<c.setShift | uint64(set)) << c.blockShift
}

// leakDelta updates the powered-block count when a block transitions.
func (c *Cache) leakDelta(before, after Block) {
	if c.alwaysOn {
		return // every block always counts: the total cannot change
	}
	c.powered += c.leakUnit(after) - c.leakUnit(before)
}

func (c *Cache) leakUnit(b Block) int {
	if c.alwaysOn || (b.Valid && !b.Gated) {
		return 1
	}
	return 0
}

func (c *Cache) recountPowered() {
	c.powered = 0
	for i := range c.blocks {
		c.powered += c.leakUnit(c.blocks[i])
	}
}

// Lookup probes the cache without side effects. It returns the way holding
// a live copy of addr, or -1; gatedWay is the way holding a gated copy of
// the tag (or -1).
func (c *Cache) Lookup(addr uint64) (way, gatedWay int) {
	set, tag := c.Index(addr)
	way, gatedWay = -1, -1
	base := set * c.cfg.Ways
	for w := 0; w < c.cfg.Ways; w++ {
		b := &c.blocks[base+w]
		if b.Valid && b.Tag == tag {
			if b.Gated {
				gatedWay = w
			} else {
				way = w
			}
		}
	}
	return way, gatedWay
}

// Access performs one demand load (write=false) or store (write=true),
// allocating on miss (write-allocate). The caller charges memory costs
// based on the result.
func (c *Cache) Access(addr uint64, write bool) AccessResult {
	var res AccessResult
	c.AccessTo(addr, write, &res)
	return res
}

// AccessTo is Access writing its result into a caller-provided struct —
// the simulator's event loop reuses one scratch result per cache, saving
// two ~48-byte struct copies per event (return + notification call).
func (c *Cache) AccessTo(addr uint64, write bool, res *AccessResult) {
	set, tag := c.Index(addr)
	base := set * c.cfg.Ways

	// Probe.
	hitWay, gatedWay := -1, -1
	for w := 0; w < c.cfg.Ways; w++ {
		b := &c.blocks[base+w]
		if b.Valid && b.Tag == tag {
			if b.Gated {
				gatedWay = w
			} else {
				hitWay = w
			}
			break
		}
	}

	if hitWay >= 0 {
		b := &c.blocks[base+hitWay]
		b.Uses++
		if write {
			b.Dirty = true
			c.stats.StoreHits++
		}
		c.stats.Hits++
		if c.lru != nil {
			c.lru.OnHit(set, hitWay)
		} else {
			c.policy.OnHit(set, hitWay)
		}
		*res = AccessResult{Hit: true, Set: set, Way: hitWay}
		return
	}

	// Miss path.
	c.stats.Misses++
	if write {
		c.stats.StoreMisses++
	}
	if c.lru == nil { // LRU's OnMiss is a no-op
		c.policy.OnMiss(set)
	}
	*res = AccessResult{Set: set}
	if gatedWay >= 0 {
		c.stats.GatedMisses++
		res.WrongKill = true
		if c.wrongKillHook != nil {
			c.wrongKillHook(set, gatedWay)
		}
	}

	// Victim selection: reuse the gated copy's way first (it holds no live
	// data), then any non-live way, then ask the policy.
	victim := gatedWay
	if victim < 0 {
		for w := 0; w < c.cfg.Ways; w++ {
			if !c.blocks[base+w].Live() {
				victim = w
				break
			}
		}
	}
	if victim < 0 {
		if c.lru != nil {
			victim = c.lru.Victim(set)
		} else {
			victim = c.policy.Victim(set)
		}
	}

	vb := &c.blocks[base+victim]
	before := *vb
	if vb.Live() {
		res.Evicted = true
		res.EvictedTag = vb.Tag
		res.EvictedDirty = vb.Dirty
		res.EvictedUses = vb.Uses
		c.stats.Evictions++
		if vb.Dirty {
			c.stats.Writebacks++
		}
	} else if vb.Valid && vb.Gated && vb.Tag != tag {
		// A gated block holding a different tag is silently dropped (its
		// data was already lost or written back when gated).
		res.Evicted = true
		res.EvictedTag = vb.Tag
		res.EvictedGated = true
	}

	*vb = Block{Tag: tag, Valid: true, Dirty: write, Uses: 1}
	c.leakDelta(before, *vb)
	c.stats.Fills++
	res.Filled = true
	res.Way = victim
	if c.lru != nil {
		c.lru.OnFill(set, victim)
	} else {
		c.policy.OnFill(set, victim)
	}
}

// HitView exposes the internals the simulator's batched replay loop needs
// to run the demand-hit fast path fully inlined: the probe, the hit-side
// bookkeeping (use count, hit statistics, dirty marking on stores) and the
// LRU touch, with semantics and order identical to AccessTo's hit path. A
// hit needs none of the AccessResult plumbing, so the inlined common case
// skips both the result-struct round trip and the call frames; anything
// that is not a plain live-block hit (miss, gated-tag wrong kill) must
// fall back to AccessTo with the cache left completely untouched.
//
// The view stays valid for the cache's lifetime — the blocks slice and the
// LRU recency stacks are allocated once and never reallocated. Stack is
// nil unless the replacement policy is the default true-LRU; callers must
// then skip the fast path entirely (non-LRU OnHit updates are not
// replicable from outside the policy).
type HitView struct {
	Blocks []Block // sets × ways, row-major (index set*Ways+way)
	Stack  []uint8 // LRU recency stacks, same layout; Stack[set*Ways] is the MRU way
	Ways   int
	// addr >> BlockShift is the block address; & SetMask extracts the set,
	// >> SetShift the tag (identical to Index).
	BlockShift uint
	SetShift   uint
	SetMask    uint64
	Stats      *Stats
}

// HitView returns the cache's hit-path view (see the type's doc comment).
func (c *Cache) HitView() HitView {
	v := HitView{
		Blocks:     c.blocks,
		Ways:       c.cfg.Ways,
		BlockShift: c.blockShift,
		SetShift:   c.setShift,
		SetMask:    c.setMask,
		Stats:      &c.stats,
	}
	if c.lru != nil {
		v.Stack = c.lru.stack
	}
	return v
}

// Gate powers off the block at (set, way). It returns whether the block
// held dirty data (the caller must then charge a writeback) and whether
// anything was actually gated (false if the block was already off or
// invalid). Gating never touches the MRU metadata: a gated block simply
// stops leaking and loses its data.
func (c *Cache) Gate(set, way int) (wasDirty, gated bool) {
	b := &c.blocks[set*c.cfg.Ways+way]
	if !b.Live() {
		return false, false
	}
	before := *b
	wasDirty = b.Dirty
	b.Gated = true
	b.Dirty = false
	c.leakDelta(before, *b)
	if c.gateHook != nil {
		c.gateHook(set, way, wasDirty)
	}
	return wasDirty, true
}

// InvalidateAll clears every block (cold boot).
func (c *Cache) InvalidateAll() {
	for i := range c.blocks {
		c.blocks[i] = Block{}
	}
	c.recountPowered()
}

// Outage applies a power failure to the cache: every block loses its data.
// keep selects the blocks that were checkpointed and will be restored after
// reboot (NVSRAMCache restores dirty blocks; SDBP restores predicted-live
// blocks); those survive with their metadata intact. All other blocks
// become invalid. Gating state does not survive the reboot: restored
// blocks come back powered, everything else is powered per PowerMode.
func (c *Cache) Outage(keep func(set, way int, b *Block) bool) {
	for s := 0; s < c.sets; s++ {
		for w := 0; w < c.cfg.Ways; w++ {
			b := &c.blocks[s*c.cfg.Ways+w]
			if b.Live() && keep != nil && keep(s, w, b) {
				continue
			}
			*b = Block{}
		}
	}
	c.recountPowered()
}

// ResetStats zeroes the access statistics.
func (c *Cache) ResetStats() { c.stats = Stats{} }
