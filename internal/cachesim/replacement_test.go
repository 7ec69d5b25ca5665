package cachesim

import (
	"fmt"
	"math/rand"
	"testing"

	"cachepart/internal/cat"
	"cachepart/internal/memory"
)

// refCache is the stamp-LRU reference model of cache: every entry
// carries a counter that rises on each lookup hit and fill, and the
// victim is the first empty way, else the minimum stamp. The cache
// type must make exactly the same decisions.
type refCache struct {
	sets    int
	ways    int
	entries []entry
	stamp   uint32
}

func newRefCache(g Geometry) refCache {
	return refCache{sets: g.Sets(), ways: g.Ways, entries: make([]entry, g.Sets()*g.Ways)}
}

func (c *refCache) set(line uint64) []entry {
	base := int(line%uint64(c.sets)) * c.ways
	return c.entries[base : base+c.ways]
}

func (c *refCache) lookup(line uint64) *entry {
	set := c.set(line)
	for i := range set {
		if set[i].tag&tagLineMask == line+1 {
			c.stamp++
			set[i].lru = c.stamp
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) peek(line uint64) *entry {
	set := c.set(line)
	for i := range set {
		if set[i].tag&tagLineMask == line+1 {
			return &set[i]
		}
	}
	return nil
}

func (c *refCache) fill(line uint64, ready int64) (entry, *entry) {
	set := c.set(line)
	vi := 0
	for i := range set {
		if set[i].tag == 0 {
			vi = i
			break
		}
		if set[i].lru < set[vi].lru {
			vi = i
		}
	}
	victim := set[vi]
	c.stamp++
	set[vi] = entry{tag: line + 1, ready: ready, lru: c.stamp}
	return victim, &set[vi]
}

func (c *refCache) fillMasked(line uint64, ready int64, mask cat.WayMask) (entry, *entry) {
	set := c.set(line)
	vi := -1
	for i := range set {
		if mask&(1<<uint(i)) == 0 {
			continue
		}
		if set[i].tag == 0 {
			vi = i
			break
		}
		if vi < 0 || set[i].lru < set[vi].lru {
			vi = i
		}
	}
	if vi < 0 {
		return c.fill(line, ready)
	}
	victim := set[vi]
	c.stamp++
	set[vi] = entry{tag: line + 1, ready: ready, lru: c.stamp}
	return victim, &set[vi]
}

func (c *refCache) invalidate(line uint64) (present, dirty bool) {
	if e := c.peek(line); e != nil {
		dirty = e.dirty()
		*e = entry{}
		return true, dirty
	}
	return false, false
}

func (c *refCache) flush() {
	clear(c.entries)
	c.stamp = 0
}

// sameEntry compares what callers observe of an entry: tag, readiness
// and owners. Stamps are the reference's private replacement state.
func sameEntry(a, b entry) bool {
	return a.tag == b.tag && a.ready == b.ready && a.owners == b.owners
}

// TestReplacementMatchesStampLRU drives the cache and the reference
// model with the same seeded operation sequences and requires the same
// hit or miss, the same victim and the same set contents after every
// operation, over way counts on both sides of the 16-way recency
// permutation, power-of-two and other set counts, and empty, one-way,
// full and random CAT masks.
func TestReplacementMatchesStampLRU(t *testing.T) {
	for _, ways := range []int{1, 2, 4, 8, 16, 20, 32} {
		for _, sets := range []int{1, 4, 3, 12} {
			t.Run(fmt.Sprintf("ways%d_sets%d", ways, sets), func(t *testing.T) {
				g := Geometry{Size: uint64(sets*ways) * memory.LineSize, Ways: ways}
				checkReplacement(t, g, int64(ways*100+sets))
			})
		}
	}
}

func checkReplacement(t *testing.T, g Geometry, seed int64) {
	t.Helper()
	c, ref := newCache(g), newRefCache(g)
	rng := rand.New(rand.NewSource(seed))
	// A few more lines per set than ways keeps both hits and
	// evictions frequent.
	lines := uint64(c.sets * (c.ways + 3))
	full := cat.FullMask(c.ways)
	mask := func() cat.WayMask {
		switch rng.Intn(4) {
		case 0:
			return 0
		case 1:
			return 1 << uint(rng.Intn(c.ways))
		case 2:
			return full
		default:
			return cat.WayMask(rng.Uint32())
		}
	}
	for op := 0; op < 4000; op++ {
		line := uint64(rng.Int63n(int64(lines)))
		ready := int64(op)
		var what string
		switch k := rng.Intn(20); {
		case k < 6:
			what = "lookup"
			got, want := c.lookup(line), ref.lookup(line)
			if (got == nil) != (want == nil) {
				t.Fatalf("op %d lookup(%d): hit %v, reference %v", op, line, got != nil, want != nil)
			}
			if got != nil && rng.Intn(3) == 0 {
				got.setDirty()
				want.setDirty()
			}
		case k < 8:
			what = "peek"
			got, want := c.peek(line), ref.peek(line)
			if (got == nil) != (want == nil) {
				t.Fatalf("op %d peek(%d): hit %v, reference %v", op, line, got != nil, want != nil)
			}
		case k < 12:
			what = "fill"
			gv, gs := c.fill(line, ready)
			wv, ws := ref.fill(line, ready)
			if !sameEntry(gv, wv) {
				t.Fatalf("op %d fill(%d): victim %+v, reference %+v", op, line, gv, wv)
			}
			gs.owners, ws.owners = uint32(op), uint32(op)
		case k < 18:
			m := mask()
			what = fmt.Sprintf("fillMasked(%#x)", m)
			gv, gs := c.fillMaskedAt(c.setIndex(line), line, ready, m)
			wv, ws := ref.fillMasked(line, ready, m)
			if !sameEntry(gv, wv) {
				t.Fatalf("op %d %s of %d: victim %+v, reference %+v", op, what, line, gv, wv)
			}
			gs.setCLOS(uint8(op))
			ws.setCLOS(uint8(op))
		case k < 19:
			what = "invalidate"
			gp, gd := c.invalidate(line)
			wp, wd := ref.invalidate(line)
			if gp != wp || gd != wd {
				t.Fatalf("op %d invalidate(%d) = (%v, %v), reference (%v, %v)", op, line, gp, gd, wp, wd)
			}
		default:
			if rng.Intn(10) != 0 {
				continue
			}
			what = "flush"
			c.flush()
			ref.flush()
		}
		for i := range c.entries {
			if !sameEntry(c.entries[i], ref.entries[i]) {
				t.Fatalf("op %d %s(%d): set %d way %d holds %+v, reference %+v",
					op, what, line, i/c.ways, i%c.ways, c.entries[i], ref.entries[i])
			}
		}
	}
}

// TestMachineReplacementPinned replays seeded 4-core traces, with CAT
// masks and the stream prefetcher on, and pins the resulting counters
// and LLC occupancy. The figures were recorded with the stamp-LRU
// replacement every level used before the recency permutation, so any
// change of a replacement decision anywhere in the hierarchy shows.
func TestMachineReplacementPinned(t *testing.T) {
	for _, tc := range []struct {
		seed      int64
		inclusive bool
		want      CoreStats
		occupancy int
	}{
		{1, true, CoreStats{
			Instructions: 30000, Reads: 22432, Writes: 7568, L1Hits: 116, L2Hits: 2797,
			LLCHits: 14639, LLCMisses: 12448, PrefetchIssued: 2082, PrefetchLate: 446,
			Writebacks: 5277, StallTicks: 70810048,
		}, 960},
		{2, false, CoreStats{
			Instructions: 30000, Reads: 22577, Writes: 7423, L1Hits: 135, L2Hits: 3195,
			LLCHits: 14036, LLCMisses: 12634, PrefetchIssued: 2303, PrefetchLate: 461,
			Writebacks: 3549, StallTicks: 72447104,
		}, 960},
	} {
		m, occ := runMachineTrace(t, tc.seed, tc.inclusive, nil)
		if got := m.TotalStats(); got != tc.want || occ != tc.occupancy {
			t.Errorf("seed %d inclusive %v:\n got %+v occupancy %d\nwant %+v occupancy %d",
				tc.seed, tc.inclusive, got, occ, tc.want, tc.occupancy)
		}
	}
}

// runMachineTrace drives a prefetching 4-core machine, with an 8-way
// L2 and the 20-way LLC so both replacement representations run, with
// a seeded mix of streams and random reads and writes while CAT masks
// and core associations change. check, if not nil, runs after every
// access. It returns the machine and the LLC lines of the traced
// region.
func runMachineTrace(t *testing.T, seed int64, inclusive bool, check func(*Machine)) (*Machine, int) {
	t.Helper()
	cfg := testConfig()
	cfg.L2 = Geometry{Size: 8 << 10, Ways: 8}
	cfg.LLC = Geometry{Size: 60 << 10, Ways: 20}
	cfg.PrefetchDepth = 4
	cfg.InclusiveLLC = inclusive
	m := newTestMachine(t, cfg)
	rng := rand.New(rand.NewSource(seed))
	space := memory.NewSpace()
	data := space.Alloc("trace", cfg.LLC.Size*3)
	lines := data.Size / memory.LineSize
	masks := []cat.WayMask{0x3, 0x1, 0xff00, 0xfff, cat.FullMask(20)}
	cursor := make([]uint64, cfg.Cores)
	for step := 0; step < 30_000; step++ {
		if step%1500 == 0 {
			clos := 1 + rng.Intn(cfg.NumCLOS-1)
			if err := m.CAT().SetMask(clos, masks[rng.Intn(len(masks))]); err != nil {
				t.Fatal(err)
			}
			if err := m.CAT().Associate(rng.Intn(cfg.Cores), clos); err != nil {
				t.Fatal(err)
			}
		}
		core := rng.Intn(cfg.Cores)
		var line uint64
		if rng.Intn(2) == 0 {
			// Streams arm the prefetcher.
			cursor[core] = (cursor[core] + 1) % lines
			line = cursor[core]
		} else {
			line = uint64(rng.Int63n(int64(lines)))
		}
		m.Access(core, data.Addr(line*memory.LineSize), rng.Intn(4) == 0)
		if check != nil {
			check(m)
		}
	}
	return m, m.LLCOccupancy(data.Base, data.Base+memory.Addr(data.Size))
}

// TestInclusionInvariant checks the property the prefetcher's skipped
// L2 probe rests on: with an inclusive LLC, every valid L1 and L2 line
// is in the LLC with its core's owner bit set, after every access of
// random multi-core traces with CAT masks and prefetching.
func TestInclusionInvariant(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		runMachineTrace(t, seed, true, func(m *Machine) {
			t.Helper()
			for c := range m.l1 {
				for _, pc := range []*cache{&m.l1[c], &m.l2[c]} {
					for i := range pc.entries {
						e := &pc.entries[i]
						if !e.valid() {
							continue
						}
						l := m.llc.peek(e.line())
						if l == nil || l.owners&(1<<uint(c)) == 0 {
							t.Fatalf("seed %d: core %d holds line %d privately, LLC entry %v", seed, c, e.line(), l)
						}
					}
				}
			}
		})
	}
}

// TestPrefetchProbesL2WhenNotInclusive: without inclusion an L2 line
// can outlive its LLC copy, and the prefetcher must still find it in
// the L2 and issue nothing.
func TestPrefetchProbesL2WhenNotInclusive(t *testing.T) {
	for _, inclusive := range []bool{false, true} {
		cfg := testConfig()
		cfg.InclusiveLLC = inclusive
		m := newTestMachine(t, cfg)
		const line = 1000
		m.Access(0, memory.Addr(line*memory.LineSize), false)
		// Evict the line from the LLC by filling its set from core 1.
		sets := uint64(m.llc.sets)
		for i := uint64(1); i <= uint64(m.llc.ways); i++ {
			m.Access(1, memory.Addr((line+i*sets)*memory.LineSize), false)
		}
		if m.llc.peek(line) != nil {
			t.Fatal("line still in the LLC")
		}
		if inL2 := m.l2[0].peek(line) != nil; inL2 == inclusive {
			t.Fatalf("inclusive %v: core 0's L2 holds the line: %v", inclusive, inL2)
		}
		// Catch core 0 up with the DRAM queue so the prefetch is not
		// dropped for back-pressure.
		m.AdvanceTo(0, m.dramFree)
		before := m.Stats(0).PrefetchIssued
		m.prefetch(0, line)
		issued := m.Stats(0).PrefetchIssued - before
		// Inclusive: the eviction dropped the private copy, so the
		// prefetch refetches the line. Not inclusive: the L2 copy
		// stops it.
		if want := map[bool]uint64{true: 1, false: 0}[inclusive]; issued != want {
			t.Errorf("inclusive %v: prefetch issued %d, want %d", inclusive, issued, want)
		}
	}
}

// TestLostTouchStopsInclusionElision: an epoch merge that drops a
// core's LLC touch (an earlier merged fill evicted the line) leaves
// the core's private copy without an LLC copy. From then until the
// next Flush the prefetcher must probe the L2 again.
func TestLostTouchStopsInclusionElision(t *testing.T) {
	cfg := testConfig()
	m := newTestMachine(t, cfg)
	sets := uint64(m.llc.sets)
	const x = 1000
	// Core 1 fills x's LLC set, x first, so x is its LRU line.
	for i := uint64(0); i < uint64(m.llc.ways); i++ {
		m.Access(1, memory.Addr((x+i*sets)*memory.LineSize), false)
	}
	es := m.NewEpochSim()
	es.BeginEpoch()
	// Core 1 misses on a new line of the set; core 0, later in virtual
	// time, hits x in the frozen LLC image.
	es.Core(1).Access(memory.Addr((x+uint64(m.llc.ways)*sets)*memory.LineSize), false)
	m.AdvanceTo(0, m.MaxNow()+1)
	if lvl := es.Core(0).Access(memory.Addr(x*memory.LineSize), false); lvl != LLC {
		t.Fatalf("core 0 read x from %v, want the frozen LLC", lvl)
	}
	es.Merge()
	if m.llc.peek(x) != nil || m.l2[0].peek(x) == nil {
		t.Fatalf("want x evicted from the LLC but in core 0's L2: LLC %v, L2 %v", m.llc.peek(x), m.l2[0].peek(x))
	}
	if m.inclusive {
		t.Fatal("machine still elides the L2 probe after a lost touch")
	}
	m.AdvanceTo(0, m.dramFree)
	before := m.Stats(0).PrefetchIssued
	m.prefetch(0, x)
	if n := m.Stats(0).PrefetchIssued - before; n != 0 {
		t.Errorf("prefetch of a line in core 0's L2 issued %d fills, want 0", n)
	}
	m.Flush()
	if !m.inclusive {
		t.Error("Flush did not restore the inclusion elision")
	}
}
