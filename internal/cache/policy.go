package cache

import "fmt"

// PolicyKind identifies a replacement policy.
type PolicyKind int

const (
	// LRU is true least-recently-used, the paper's default (Table II).
	LRU PolicyKind = iota
	// PLRU is tree-based pseudo-LRU.
	PLRU
	// FIFO evicts the oldest fill.
	FIFO
	// Random evicts a (deterministic) pseudo-random way.
	Random
	// DRRIP is dynamic re-reference interval prediction with set dueling,
	// the "sophisticated" policy of the paper's Figure 10.
	DRRIP
)

// PolicyKinds lists all implemented policies.
var PolicyKinds = []PolicyKind{LRU, PLRU, FIFO, Random, DRRIP}

// String implements fmt.Stringer.
func (k PolicyKind) String() string {
	switch k {
	case LRU:
		return "LRU"
	case PLRU:
		return "PLRU"
	case FIFO:
		return "FIFO"
	case Random:
		return "Random"
	case DRRIP:
		return "DRRIP"
	default:
		return fmt.Sprintf("PolicyKind(%d)", int(k))
	}
}

// ParsePolicy converts a case-insensitive policy name to its kind.
func ParsePolicy(s string) (PolicyKind, error) {
	for _, k := range PolicyKinds {
		t := k.String()
		if len(s) == len(t) {
			eq := true
			for i := 0; i < len(s); i++ {
				ca, cb := s[i], t[i]
				if 'A' <= ca && ca <= 'Z' {
					ca += 'a' - 'A'
				}
				if 'A' <= cb && cb <= 'Z' {
					cb += 'a' - 'A'
				}
				if ca != cb {
					eq = false
					break
				}
			}
			if eq {
				return k, nil
			}
		}
	}
	return 0, fmt.Errorf("cache: unknown policy %q", s)
}

// Policy is a per-set replacement policy. Beyond victim selection, it
// exposes Rank: the set's ways ordered from most likely to be reused
// (MRU-like, index 0) to least likely (LRU-like). EDBP's zombie detection
// is defined entirely in terms of this ordering (Section V-A: "EDBP can
// refer to any cache replacement policy capable of holding the information
// about which cache blocks are least likely to be accessed").
type Policy interface {
	Kind() PolicyKind
	// OnFill records that way was (re)filled in set.
	OnFill(set, way int)
	// OnHit records a demand hit.
	OnHit(set, way int)
	// OnMiss records a demand miss in set (used by DRRIP set dueling).
	OnMiss(set int)
	// Victim returns the way to replace in set.
	Victim(set int) int
	// Rank appends the set's ways in MRU-first order to buf and returns it.
	Rank(set int, buf []int) []int
}

// newPolicy builds the policy of a configuration Config.Validate accepted.
func newPolicy(kind PolicyKind, sets, ways int) Policy {
	switch kind {
	case PLRU:
		return newPLRU(sets, ways)
	case FIFO:
		return newFIFO(sets, ways)
	case Random:
		return newRandom(sets, ways)
	case DRRIP:
		return newDRRIP(sets, ways)
	default:
		return newLRU(sets, ways)
	}
}

// ---------------------------------------------------------------- LRU --

type lruPolicy struct {
	ways  int
	stack []uint8 // sets × ways, stack[set*ways+i] = way at recency pos i (0 = MRU)
}

func newLRU(sets, ways int) *lruPolicy {
	p := &lruPolicy{ways: ways, stack: make([]uint8, sets*ways)}
	for s := 0; s < sets; s++ {
		for w := 0; w < ways; w++ {
			p.stack[s*ways+w] = uint8(w)
		}
	}
	return p
}

func (p *lruPolicy) Kind() PolicyKind { return LRU }

func (p *lruPolicy) touch(set, way int) {
	s := p.stack[set*p.ways : (set+1)*p.ways]
	if s[0] == uint8(way) {
		return // already MRU: the rotate below would be a no-op
	}
	pos := 0
	for i, w := range s {
		if int(w) == way {
			pos = i
			break
		}
	}
	copy(s[1:pos+1], s[:pos])
	s[0] = uint8(way)
}

func (p *lruPolicy) OnFill(set, way int) { p.touch(set, way) }
func (p *lruPolicy) OnHit(set, way int)  { p.touch(set, way) }
func (p *lruPolicy) OnMiss(int)          {}

func (p *lruPolicy) Victim(set int) int {
	return int(p.stack[set*p.ways+p.ways-1])
}

func (p *lruPolicy) Rank(set int, buf []int) []int {
	s := p.stack[set*p.ways : (set+1)*p.ways]
	for _, w := range s {
		buf = append(buf, int(w))
	}
	return buf
}

// --------------------------------------------------------------- FIFO --

type fifoPolicy struct {
	ways int
	seq  []uint64 // fill sequence number per block
	next uint64
}

func newFIFO(sets, ways int) *fifoPolicy {
	return &fifoPolicy{ways: ways, seq: make([]uint64, sets*ways), next: 1}
}

func (p *fifoPolicy) Kind() PolicyKind { return FIFO }

func (p *fifoPolicy) OnFill(set, way int) {
	p.seq[set*p.ways+way] = p.next
	p.next++
}
func (p *fifoPolicy) OnHit(int, int) {}
func (p *fifoPolicy) OnMiss(int)     {}

func (p *fifoPolicy) Victim(set int) int {
	base := set * p.ways
	best, bestSeq := 0, p.seq[base]
	for w := 1; w < p.ways; w++ {
		if p.seq[base+w] < bestSeq {
			best, bestSeq = w, p.seq[base+w]
		}
	}
	return best
}

func (p *fifoPolicy) Rank(set int, buf []int) []int {
	// Newest fill first.
	base := set * p.ways
	start := len(buf)
	for w := 0; w < p.ways; w++ {
		buf = append(buf, w)
	}
	sub := buf[start:]
	insertionSortBy(sub, func(a, b int) bool { return p.seq[base+a] > p.seq[base+b] })
	return buf
}

// ------------------------------------------------------------- Random --

type randomPolicy struct {
	ways int
	rng  uint64
}

func newRandom(sets, ways int) *randomPolicy {
	return &randomPolicy{ways: ways, rng: 0x2545f4914f6cdd1d}
}

func (p *randomPolicy) Kind() PolicyKind { return Random }
func (p *randomPolicy) OnFill(int, int)  {}
func (p *randomPolicy) OnHit(int, int)   {}
func (p *randomPolicy) OnMiss(int)       {}

func (p *randomPolicy) Victim(int) int {
	// xorshift64* — deterministic across runs.
	p.rng ^= p.rng >> 12
	p.rng ^= p.rng << 25
	p.rng ^= p.rng >> 27
	return int((p.rng * 0x2545f4914f6cdd1d) >> 33 % uint64(p.ways))
}

func (p *randomPolicy) Rank(set int, buf []int) []int {
	// Random retains no recency; rank by way index (EDBP degrades
	// gracefully, as the paper notes any recency-holding policy works).
	for w := 0; w < p.ways; w++ {
		buf = append(buf, w)
	}
	return buf
}

// --------------------------------------------------------------- PLRU --

// plruPolicy is tree-based pseudo-LRU. Each set keeps ways−1 direction
// bits arranged as an implicit binary tree; a bit points toward the
// less-recently-used subtree.
type plruPolicy struct {
	ways int
	bits []uint32 // one word of tree bits per set
}

// newPLRU builds PLRU for a power-of-two associativity of at most
// maxPLRUWays (Config.Validate checks both).
func newPLRU(sets, ways int) *plruPolicy {
	return &plruPolicy{ways: ways, bits: make([]uint32, sets)}
}

func (p *plruPolicy) Kind() PolicyKind { return PLRU }

// touch flips the tree bits along way's path to point away from it.
func (p *plruPolicy) touch(set, way int) {
	if p.ways == 1 {
		return
	}
	bits := p.bits[set]
	node := 0 // root at index 0; children of i are 2i+1, 2i+2
	span := p.ways
	lo := 0
	for span > 1 {
		span /= 2
		if way < lo+span {
			// Way is in the left half: point the bit right (1).
			bits |= 1 << uint(node)
			node = 2*node + 1
		} else {
			bits &^= 1 << uint(node)
			node = 2*node + 2
			lo += span
		}
	}
	p.bits[set] = bits
}

func (p *plruPolicy) OnFill(set, way int) { p.touch(set, way) }
func (p *plruPolicy) OnHit(set, way int)  { p.touch(set, way) }
func (p *plruPolicy) OnMiss(int)          {}

func (p *plruPolicy) Victim(set int) int {
	if p.ways == 1 {
		return 0
	}
	bits := p.bits[set]
	node := 0
	span := p.ways
	lo := 0
	for span > 1 {
		span /= 2
		if bits&(1<<uint(node)) != 0 {
			// Bit points right: the right half is colder.
			node = 2*node + 2
			lo += span
		} else {
			node = 2*node + 1
		}
	}
	return lo
}

// Rank produces a full MRU-first ordering by recursively visiting the
// protected (pointed-away) subtree before the victim subtree.
func (p *plruPolicy) Rank(set int, buf []int) []int {
	if p.ways == 1 {
		return append(buf, 0)
	}
	bits := p.bits[set]
	var visit func(node, lo, span int)
	visit = func(node, lo, span int) {
		if span == 1 {
			buf = append(buf, lo)
			return
		}
		half := span / 2
		if bits&(1<<uint(node)) != 0 {
			// Bit points right ⇒ left half is hotter: visit it first.
			visit(2*node+1, lo, half)
			visit(2*node+2, lo+half, half)
		} else {
			visit(2*node+2, lo+half, half)
			visit(2*node+1, lo, half)
		}
	}
	visit(0, 0, p.ways)
	return buf
}

// insertionSortBy sorts small slices without pulling in package sort on
// the hot path (set sizes are ≤ 8 in practice).
func insertionSortBy(s []int, less func(a, b int) bool) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && less(s[j], s[j-1]); j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}
