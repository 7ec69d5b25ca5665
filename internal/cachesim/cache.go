package cachesim

import (
	"math/bits"

	"cachepart/internal/cat"
)

// entry is one cache line slot, packed to 24 bytes so a set scan stays
// within as few cache lines of the *host* as possible. The tag word
// carries the line number plus the two small per-line attributes:
//
//	bits  0..55  line number + 1; 0 means invalid
//	bits 56..62  CLOS of the filling core (LLC only, CMT attribution)
//	bit  63      dirty
//
// 56 bits of line number cover 2^62 bytes of address space, far beyond
// what the bump allocator can hand out.
//
//conc:shared per-core sharded: workers touch only entries of their own l1[core]/l2[core]; the shared LLC's entries are frozen during an epoch
type entry struct {
	tag   uint64
	ready int64  // tick at which the fill completes (prefetch in flight)
	lru   uint32 // stamp of the last touch; caches wider than 16 ways only
	// owners is used only in the shared LLC: a bitmask of cores that
	// pulled the line into their private caches since the fill, so an
	// inclusive back-invalidation only has to visit those cores.
	owners uint32
}

const (
	tagLineBits  = 56
	tagLineMask  = uint64(1)<<tagLineBits - 1
	tagCLOSShift = tagLineBits
	tagCLOSMask  = uint64(0x7f) << tagCLOSShift
	tagDirtyBit  = uint64(1) << 63

	// MaxCLOS is the widest class-of-service id the packed entry tag
	// can attribute occupancy to.
	MaxCLOS = 128
)

func (e entry) valid() bool  { return e.tag&tagLineMask != 0 }
func (e entry) line() uint64 { return e.tag&tagLineMask - 1 }
func (e entry) dirty() bool  { return e.tag&tagDirtyBit != 0 }
func (e entry) clos() uint8  { return uint8(e.tag >> tagCLOSShift & 0x7f) }

func (e *entry) setDirty()       { e.tag |= tagDirtyBit }
func (e *entry) setCLOS(c uint8) { e.tag = e.tag&^tagCLOSMask | uint64(c)<<tagCLOSShift }

// cache is one set-associative cache. It stores no data, only tags and
// replacement state; the caller interprets hits and misses.
//
// Replacement is LRU, restricted to the CAT mask's ways for masked
// fills: the victim is the lowest-numbered empty way, else the least
// recently touched one (a touch is a lookup hit or a fill). Two
// representations give exactly that order:
//
//   - Caches of at most 16 ways (L1, L2) keep a recency permutation
//     per set, so a touch and a victim pick are a few word operations.
//   - Wider caches (the 20-way LLC) stamp each entry with a counter
//     that rises on every touch; the victim is the minimum stamp.
//
// A per-set valid mask serves both: the empty-way check is one
// TrailingZeros instead of a scan.
//
//conc:shared per-core sharded: l1[core]/l2[core] belong to the owning worker; the shared LLC is only peeked between barriers and mutated at the merge
type cache struct {
	sets    int
	ways    int
	mask    uint64 // sets-1 when sets is a power of two
	pow2    bool
	entries []entry // sets*ways, way-major within a set

	// valid has bit w of valid[s] set iff way w of set s holds a line.
	valid []uint32
	full  uint32 // the mask of all ways

	// order[s] is set s's recency permutation when ways <= 16: nibble p
	// holds the way of recency rank p, the LRU way in the low nibble and
	// the MRU way in nibble ways-1. Nibbles above ways-1 hold 0xF, which
	// names no way of a cache narrower than 16. nil for wider caches.
	order    []uint64
	orderTop uint64 // the 0xF padding nibbles
	orderLow uint64 // the nibbles below the MRU rank
	mruShift uint   // 4*(ways-1)

	stamp uint32 // last stamp handed out, wider caches only
}

const (
	nibbleOnes  = 0x1111_1111_1111_1111
	nibbleHighs = nibbleOnes << 3

	// orderWays is the widest cache a 64-bit recency permutation of
	// 4-bit way numbers can describe.
	orderWays = 16
)

func newCache(g Geometry) cache {
	sets := g.Sets()
	c := cache{
		sets:    sets,
		ways:    g.Ways,
		mask:    uint64(sets - 1),
		pow2:    sets&(sets-1) == 0,
		entries: make([]entry, sets*g.Ways),
		valid:   make([]uint32, sets),
		full:    uint32(cat.FullMask(g.Ways)),
	}
	if g.Ways <= orderWays {
		c.mruShift = uint(4 * (g.Ways - 1))
		c.orderLow = uint64(1)<<c.mruShift - 1
		var id uint64
		for p := 0; p < orderWays; p++ {
			w := uint64(p)
			if p >= g.Ways {
				w = 0xF
				c.orderTop |= w << (4 * p)
			}
			id |= w << (4 * p)
		}
		c.order = make([]uint64, sets)
		for s := range c.order {
			c.order[s] = id
		}
	}
	return c
}

// setIndex maps a line to its set. Private caches have power-of-two set
// counts, so the common path is a single AND; the shared LLC at some
// scales (e.g. 45056 sets) needs the modulo fallback.
func (c *cache) setIndex(line uint64) int {
	if c.pow2 {
		return int(line & c.mask)
	}
	return int(line % uint64(c.sets))
}

// touch makes way the most recently used way of set s.
func (c *cache) touch(s, way int) {
	if c.order == nil {
		c.stamp++
		c.entries[s*c.ways+way].lru = c.stamp
		return
	}
	// Find the way's rank p: the XOR zeroes exactly its nibble, and
	// (x-ones) &^ x & highs has its lowest set bit in the lowest zero
	// nibble (borrows can only mark nibbles above it).
	o := c.order[s]
	x := o ^ uint64(way)*nibbleOnes
	p := uint(bits.TrailingZeros64((x-nibbleOnes)&^x&nibbleHighs)) &^ 3
	// Splice it out, shifting the more recent ranks down by one, and
	// put it at the MRU rank.
	below := uint64(1)<<p - 1
	c.order[s] = o&below | o>>4&^below&c.orderLow | uint64(way)<<c.mruShift | c.orderTop
}

// lookup finds the line. On a hit it makes the line most recently used
// and returns the entry. The tag convention stores line+1 so a zero
// entry is invalid; flag bits are masked off before comparing.
func (c *cache) lookup(line uint64) *entry { return c.lookupAt(c.setIndex(line), line) }

// lookupAt is lookup in set s, which must be the line's set.
func (c *cache) lookupAt(s int, line uint64) *entry {
	i := c.find(s, line)
	if i < 0 {
		return nil
	}
	c.touch(s, i)
	return &c.entries[s*c.ways+i]
}

// peek is lookup without touching replacement state.
func (c *cache) peek(line uint64) *entry { return c.peekAt(c.setIndex(line), line) }

// peekAt is peek in set s, which must be the line's set.
func (c *cache) peekAt(s int, line uint64) *entry {
	i := c.find(s, line)
	if i < 0 {
		return nil
	}
	return &c.entries[s*c.ways+i]
}

// find returns the way of set s holding the line, or -1.
func (c *cache) find(s int, line uint64) int {
	base := s * c.ways
	tag := line + 1
	set := c.entries[base : base+c.ways]
	for i := range set {
		if set[i].tag&tagLineMask == tag {
			return i
		}
	}
	return -1
}

// fill inserts the line, evicting the LRU way. It returns the evicted
// entry by value (invalid if the victim way was empty) so the caller
// can handle writebacks and inclusive invalidations.
func (c *cache) fill(line uint64, ready int64) (victim entry, slot *entry) {
	return c.fillAt(c.setIndex(line), line, ready)
}

// fillAt is fill in set s, which must be the line's set.
func (c *cache) fillAt(s int, line uint64, ready int64) (victim entry, slot *entry) {
	if empty := c.full &^ c.valid[s]; empty != 0 {
		return c.install(s, bits.TrailingZeros32(empty), line, ready)
	}
	if c.order != nil {
		return c.install(s, int(c.order[s]&0xF), line, ready)
	}
	return c.install(s, c.oldest(s, c.full), line, ready)
}

// fillMaskedAt inserts the line into set s, which must be the line's
// set, choosing the victim only among the ways allowed by the CAT
// capacity mask, which is how Cache Allocation Technology restricts
// fills. Bit i of the mask corresponds to way i.
func (c *cache) fillMaskedAt(s int, line uint64, ready int64, mask cat.WayMask) (victim entry, slot *entry) {
	allowed := uint32(mask) & c.full
	if allowed == 0 {
		// An empty mask cannot be programmed through cat.Registers;
		// fall back to unrestricted replacement defensively.
		return c.fillAt(s, line, ready)
	}
	if empty := allowed &^ c.valid[s]; empty != 0 {
		return c.install(s, bits.TrailingZeros32(empty), line, ready)
	}
	if c.order != nil {
		// The first way from the LRU end that the mask allows.
		o := c.order[s]
		for allowed>>(o&0xF)&1 == 0 {
			o >>= 4
		}
		return c.install(s, int(o&0xF), line, ready)
	}
	return c.install(s, c.oldest(s, allowed), line, ready)
}

// oldest returns the way of set s with the smallest stamp among the
// non-empty mask's ways. Stamps are unique, so ties cannot arise.
func (c *cache) oldest(s int, ways uint32) int {
	set := c.entries[s*c.ways : s*c.ways+c.ways]
	vi := bits.TrailingZeros32(ways)
	min := set[vi].lru
	for ways &= ways - 1; ways != 0; ways &= ways - 1 {
		i := bits.TrailingZeros32(ways)
		if l := set[i].lru; l < min {
			vi, min = i, l
		}
	}
	return vi
}

// install replaces way of set s with the line as the MRU way.
func (c *cache) install(s, way int, line uint64, ready int64) (victim entry, slot *entry) {
	slot = &c.entries[s*c.ways+way]
	victim = *slot
	*slot = entry{tag: line + 1, ready: ready}
	c.valid[s] |= 1 << uint(way)
	c.touch(s, way)
	return victim, slot
}

// invalidate drops the line if present, returning whether it was dirty.
// The way keeps its recency rank: an empty way is refilled before any
// valid one, so its rank is never consulted.
func (c *cache) invalidate(line uint64) (present, dirty bool) {
	s := c.setIndex(line)
	i := c.find(s, line)
	if i < 0 {
		return false, false
	}
	e := &c.entries[s*c.ways+i]
	dirty = e.dirty()
	*e = entry{}
	c.valid[s] &^= 1 << uint(i)
	return true, dirty
}

// flush invalidates every line.
func (c *cache) flush() {
	clear(c.entries)
	clear(c.valid)
	c.stamp = 0
}

// occupancy counts valid lines, optionally restricted to lines within
// [loLine, hiLine). Used by tests and diagnostics.
func (c *cache) occupancy(loLine, hiLine uint64) int {
	n := 0
	for i := range c.entries {
		if !c.entries[i].valid() {
			continue
		}
		line := c.entries[i].line()
		if line >= loLine && line < hiLine {
			n++
		}
	}
	return n
}
