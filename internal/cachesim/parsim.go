package cachesim

import "cachepart/internal/memory"

// parsim: deterministic parallel simulation of the private cache levels.
//
// The hierarchy splits naturally at the LLC boundary: L1, L2, the
// stride prefetcher, the per-core clock and the per-core counters are
// all owned by exactly one simulated core, while only the shared LLC
// and the DRAM line server couple cores. parsim exploits that split
// with a conservative epoch scheme:
//
//   - Each simulated core gets a CoreSim, a front-end that may run in
//     its own host goroutine. Within an epoch a CoreSim simulates its
//     private levels exactly like Machine.Access, but treats the shared
//     LLC as frozen (read-only peeks, no replacement-state updates) and
//     mirrors the DRAM queue in a core-local clock seeded from the
//     shared queue at the epoch boundary.
//   - Every action that would have mutated shared state — an LRU touch
//     on an LLC hit, a fill after a miss or prefetch, a dirty bit
//     falling back from an evicted private line — is buffered as a
//     timestamped event instead. A core observes its own in-epoch fills
//     through a private table so its self-consistency is exact.
//   - At the epoch barrier, Merge drains all buffers in (tick, core,
//     seq) order — the sole cross-core ordering point — and applies
//     them to the real LLC, the CMT/MBM counters and the shared DRAM
//     queue with the same code paths the serial engine uses.
//
// Determinism: a CoreSim's behaviour depends only on its private state,
// the frozen LLC image, and the epoch-start DRAM clock — never on host
// scheduling — and the merge order is a pure function of the buffered
// events. Running the workers on 1 or N OS threads therefore produces
// bit-identical results; see DESIGN.md §11 for how the epoch semantics
// relate to the serial reference model.
//
// CoreSims do not call the Tracer; parallel runs are untraced.

// parEvent is one buffered shared-state mutation. Per-core buffers are
// naturally sorted by tick because a core's clock is monotone, so the
// merge is an allocation-free k-way merge.
type parEvent struct {
	tick  int64  // virtual time the serial path would have applied it
	ready int64  // fill completion stamp (evFill only)
	line  uint64 // cache line the event concerns
	kind  uint8
}

const (
	// evTouch: the core hit a line in the frozen LLC — bump its
	// replacement stamp and record the core as an owner.
	evTouch uint8 = iota
	// evFill: the core missed (or prefetched) and fetched the line from
	// DRAM — insert it into the LLC, evicting under the core's CAT mask,
	// and advance the shared DRAM queue by one line transfer.
	evFill
	// evDirty: a dirty private-cache victim fell back to the LLC copy.
	evDirty
)

// CoreSim is the per-core parallel front-end. It is owned by exactly
// one worker goroutine between BeginEpoch and Merge; the EpochSim
// methods themselves must be called from a single coordinating
// goroutine with no worker running.
//
//conc:shared owned by exactly one worker between BeginEpoch and Merge (DESIGN §11); buffered events are drained only at the merge barrier
type CoreSim struct {
	m    *Machine
	core int

	// dramFree mirrors the shared DRAM queue, seeded at each epoch
	// boundary; within the epoch the core only observes its own
	// transfers, a one-epoch-stale view of cross-core contention.
	dramFree int64

	// fills records the lines this core brought in during the current
	// epoch (line → ready tick), so repeated accesses see them even
	// though the shared LLC is frozen. Open-addressed rather than a Go
	// map: this sits on the per-access path.
	fills *fillTable

	events []parEvent
}

// EpochSim coordinates parallel epochs over one machine. The zero
// value is not usable; construct with Machine.NewEpochSim.
type EpochSim struct {
	m      *Machine
	cores  []*CoreSim
	cursor []int
}

// NewEpochSim builds the parallel front-ends, one per simulated core.
func (m *Machine) NewEpochSim() *EpochSim {
	es := &EpochSim{
		m:      m,
		cores:  make([]*CoreSim, m.cfg.Cores),
		cursor: make([]int, m.cfg.Cores),
	}
	for c := range es.cores {
		es.cores[c] = &CoreSim{m: m, core: c, fills: newFillTable()}
	}
	return es
}

// Core returns the front-end of one simulated core.
func (es *EpochSim) Core(core int) *CoreSim { return es.cores[core] }

// BeginEpoch seeds every core's DRAM mirror from the shared queue.
// Call once before handing the CoreSims to workers for an epoch.
//
//conc:barrier epoch setup runs on the coordinator before any worker starts
func (es *EpochSim) BeginEpoch() {
	for _, cs := range es.cores {
		cs.dramFree = es.m.dramFree
	}
}

// Merge applies all buffered events to the shared LLC, DRAM queue and
// CMT/MBM counters in (tick, core, seq) order, then clears the buffers
// for the next epoch. Workers must be quiescent.
//
//perf:hot drains every buffered shared-state event, once per epoch barrier
//conc:barrier the merge mutates the shared LLC and DRAM queue; workers must be quiescent
func (es *EpochSim) Merge() {
	idx := es.cursor
	for i := range idx {
		idx[i] = 0
	}
	for {
		// Per-core buffers are tick-sorted; pick the earliest head,
		// breaking ties by core index (strict < keeps the lowest core).
		best := -1
		var bt int64
		for c, cs := range es.cores {
			i := idx[c]
			if i >= len(cs.events) {
				continue
			}
			if t := cs.events[i].tick; best < 0 || t < bt {
				best, bt = c, t
			}
		}
		if best < 0 {
			break
		}
		ev := &es.cores[best].events[idx[best]]
		idx[best]++
		es.apply(best, ev)
	}
	for _, cs := range es.cores {
		cs.events = cs.events[:0]
		cs.fills.reset()
	}
}

func (es *EpochSim) apply(core int, ev *parEvent) {
	m := es.m
	switch ev.kind {
	case evTouch:
		// The line may have been evicted by an earlier merged fill;
		// then the touch (and the owner bit) is simply lost, exactly as
		// if the access had raced the eviction. The core's private
		// copy stays, so the LLC is no longer inclusive.
		if e := m.llc.lookup(ev.line); e != nil {
			e.owners |= 1 << uint(core)
		} else {
			m.inclusive = false
		}
	case evDirty:
		if e := m.llc.peek(ev.line); e != nil {
			e.setDirty()
		}
	case evFill:
		set := m.llc.setIndex(ev.line)
		if e := m.llc.lookupAt(set, ev.line); e != nil {
			// Another core's earlier fill (or a previous epoch) already
			// holds the line. The transfer still happened in this
			// core's timeline, so it still consumes shared bandwidth.
			e.owners |= 1 << uint(core)
			clos := m.regs.CLOSOf(core)
			m.memTraffic[clos]++
			m.dramFree = max64(m.dramFree, ev.tick) + m.dramService
			return
		}
		// The fill's own transfer, deferred to the merge, then the
		// serial fill with the access-start tick standing in for the
		// live core clock.
		m.dramFree = max64(m.dramFree, ev.tick) + m.dramService
		m.fillLLC(core, set, ev.line, ev.ready, ev.tick)
	}
}

func (cs *CoreSim) event(kind uint8, tick int64, line uint64, ready int64) {
	cs.events = append(cs.events, parEvent{tick: tick, ready: ready, line: line, kind: kind})
}

// Now reports the core's clock.
func (cs *CoreSim) Now() int64 { return cs.m.now[cs.core] }

// Compute advances the core's clock by a pure-computation cost; the
// state touched is all core-owned, so this is the serial path.
func (cs *CoreSim) Compute(cycles int64, instrs uint64) {
	cs.m.Compute(cs.core, cycles, instrs)
}

// Access simulates one memory reference within the current epoch. It
// mirrors Machine.Access level by level; only the shared-state touches
// differ, buffered as events.
//
//perf:hot the parallel-mode counterpart of Machine.Access
func (cs *CoreSim) Access(addr memory.Addr, write bool) Level {
	m := cs.m
	core := cs.core
	line := addr.Line()
	st := &m.stats[core]
	st.Instructions++
	if write {
		st.Writes++
	} else {
		st.Reads++
	}

	start := m.now[core]

	// L1 — core-owned.
	if e := m.l1[core].lookup(line); e != nil {
		if write {
			e.setDirty()
		}
		st.L1Hits++
		m.finish(core, start, m.l1Lat, 0)
		cs.observeStream(line)
		return L1
	}

	// L2 — core-owned.
	if e := m.l2[core].lookup(line); e != nil {
		lat := m.l2Lat
		if e.ready > start {
			lat = e.ready - start + m.l2Lat
			st.PrefetchLate++
		}
		cs.fillL1(line, write)
		st.L2Hits++
		m.finish(core, start, lat, m.l2Lat)
		cs.observeStream(line)
		return L2
	}

	// LLC — own in-epoch fills first, then the frozen shared image.
	if ready, ok := cs.fills.get(line); ok {
		cs.hitLLC(line, start, ready, write, st)
		return LLC
	}
	if e := m.llc.peek(line); e != nil {
		cs.hitLLC(line, start, e.ready, write, st)
		return LLC
	}

	// DRAM — via the core-local mirror of the line server.
	begin := max64(start, cs.dramFree)
	cs.dramFree = begin + m.dramService
	ready := begin + m.dramLat
	st.LLCMisses++

	stall := (begin - start + m.dramLat) / m.mlp
	if stall < m.dramStall {
		stall = m.dramStall
	}
	cs.fills.put(line, ready)
	cs.event(evFill, start, line, ready)
	cs.fillL2(line)
	cs.fillL1(line, write)
	m.finish(core, start, stall+m.llcLat, m.llcLat)
	cs.observeStream(line)
	return DRAM
}

func (cs *CoreSim) hitLLC(line uint64, start, ready int64, write bool, st *CoreStats) {
	m := cs.m
	lat := m.llcLat
	if ready > start {
		lat = ready - start + m.llcLat
		st.PrefetchLate++
	}
	cs.event(evTouch, start, line, 0)
	cs.fillL2(line)
	cs.fillL1(line, write)
	st.LLCHits++
	m.finish(cs.core, start, lat, m.llcLat)
	cs.observeStream(line)
}

// fillL1 mirrors Machine.fillL1; a dirty victim that misses the
// core-owned L2 defers its LLC dirty bit to the merge.
func (cs *CoreSim) fillL1(line uint64, write bool) {
	m := cs.m
	core := cs.core
	victim, slot := m.l1[core].fill(line, m.now[core])
	if write {
		slot.setDirty()
	}
	if victim.valid() && victim.dirty() {
		if e := m.l2[core].peek(victim.line()); e != nil {
			e.setDirty()
		} else {
			cs.event(evDirty, m.now[core], victim.line(), 0)
		}
	}
}

func (cs *CoreSim) fillL2(line uint64) {
	m := cs.m
	core := cs.core
	victim, _ := m.l2[core].fill(line, m.now[core])
	if victim.valid() && victim.dirty() {
		cs.event(evDirty, m.now[core], victim.line(), 0)
	}
}

// observeStream mirrors Machine.observeStream on the core-owned
// prefetcher state.
func (cs *CoreSim) observeStream(line uint64) {
	m := cs.m
	if m.cfg.PrefetchDepth <= 0 {
		return
	}
	p := &m.pf[cs.core]
	switch {
	case line == p.lastLine:
		return
	case line == p.lastLine+1:
		p.streak++
	default:
		p.streak = 0
		p.frontier = 0
	}
	p.lastLine = line
	if p.streak < 2 {
		return
	}
	target := line + uint64(m.cfg.PrefetchDepth)
	from := line + 1
	if p.frontier > from {
		from = p.frontier
	}
	for l := from; l <= target; l++ {
		cs.prefetch(l)
	}
	p.frontier = target + 1
}

// prefetch mirrors Machine.prefetch against the core-local DRAM mirror
// and the frozen LLC image.
func (cs *CoreSim) prefetch(line uint64) {
	m := cs.m
	core := cs.core
	if cs.dramFree-m.now[core] > m.pfDropQueue {
		return
	}
	if _, ok := cs.fills.get(line); ok {
		return
	}
	if m.llc.peek(line) != nil || m.l2[core].peek(line) != nil {
		return
	}
	begin := max64(m.now[core], cs.dramFree)
	cs.dramFree = begin + m.dramService
	ready := begin + m.dramLat
	cs.fills.put(line, ready)
	cs.event(evFill, m.now[core], line, ready)
	victim, _ := m.l2[core].fill(line, ready)
	if victim.valid() && victim.dirty() {
		cs.event(evDirty, m.now[core], victim.line(), 0)
	}
	m.stats[core].PrefetchIssued++
}

// AccessBatch simulates a run of accesses, each optionally followed by
// a compute step, preserving the exact Access/Compute sequence of the
// unbatched calls.
//
//perf:hot the batched form of the parallel per-access path
func (cs *CoreSim) AccessBatch(ops []BatchOp) {
	for i := range ops {
		op := &ops[i]
		//lint:allow hotbatch this is the batch implementation; per-element Access is its defined semantics
		cs.Access(op.Addr, op.Write)
		if op.Cycles != 0 || op.Instrs != 0 {
			cs.m.Compute(cs.core, op.Cycles, op.Instrs)
		}
	}
}
