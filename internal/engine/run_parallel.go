package engine

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cachepart/internal/exec"
)

// runParallel is the epoch-parallel execution loop. Between barriers,
// every runnable kernel slot advances on its own core's parallel
// front-end (cachesim.CoreSim) up to a shared virtual-time horizon;
// the slots touch disjoint simulator state, so host goroutines can
// drive them in any order. At each barrier a single merge applies the
// buffered LLC/DRAM events in virtual-time order, and all control-
// plane work — warm-up snapshot, controller epochs, phase advancement,
// resctrl programming, fault handling — runs on the coordinator.
// Results are a pure function of the inputs: the worker count only
// changes wall-clock time.
func (e *Engine) runParallel(rs *runState, opts RunOptions) error {
	es := e.m.NewEpochSim()
	pctxs := make([]*exec.Ctx, e.m.Cores())
	for c := range pctxs {
		pctxs[c] = e.Ctx(c)
		pctxs[c].Par = es.Core(c)
	}
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	epochTicks := opts.EpochTicks
	if epochTicks <= 0 {
		epochTicks = 1 << 16
	}

	// Tasks are plain values in a slice reused across epochs: one
	// epoch's worth of closure-and-pointer allocations per barrier adds
	// up over the millions of epochs a long run executes.
	// Each worker claims disjoint tasks via the atomic cursor, so a
	// task is written by at most one goroutine per epoch.
	//
	//conc:shared one slot per task; the claiming worker alone writes it and the coordinator reads after wg.Wait
	type task struct {
		st     *stream
		slot   *kernelSlot
		core   int
		serial bool
		err    error
	}
	var tasks []task

	for {
		minIdx, minNow := e.minRunnable(rs)
		if minIdx < 0 {
			return fmt.Errorf("engine: deadlock — no runnable kernels")
		}
		if !rs.warmed && minNow >= rs.warmTicks {
			rs.snapshotWarm(e)
		}
		if minNow >= rs.durTicks {
			return nil
		}
		if err := e.controllerTick(rs.ces, minNow, rs.bindings[minIdx].core); err != nil {
			return err
		}

		horizon := minNow + epochTicks
		// Land a barrier exactly on the warm-up boundary and the run
		// end, so the snapshot points — hence which executions fall in
		// the measured window — do not depend on the epoch length.
		if !rs.warmed && horizon > rs.warmTicks {
			horizon = rs.warmTicks
		}
		if horizon > rs.durTicks {
			horizon = rs.durTicks
		}
		tasks = tasks[:0]
		for _, st := range rs.streams {
			if st.phases[st.phaseIdx].Serial {
				// Kernels sharing order-sensitive state run as one
				// task, interleaved in virtual-time order.
				tasks = append(tasks, task{st: st, serial: true})
				continue
			}
			for i := range st.slots {
				s := &st.slots[i]
				if s.done {
					continue
				}
				core := st.spec.Cores[i]
				if e.m.Now(core) >= horizon {
					continue
				}
				tasks = append(tasks, task{st: st, slot: s, core: core})
			}
		}
		runTask := func(t *task) {
			if t.serial {
				t.err = e.stepStreamInterleaved(t.st, pctxs, horizon, opts)
			} else {
				t.err = e.stepSlot(t.st, t.slot, pctxs[t.core], t.core, horizon, opts)
			}
		}

		es.BeginEpoch()
		if n := min(workers, len(tasks)); n <= 1 {
			for i := range tasks {
				runTask(&tasks[i])
			}
		} else {
			var next atomic.Int64
			var wg sync.WaitGroup
			for w := 0; w < n; w++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for {
						i := int(next.Add(1)) - 1
						if i >= len(tasks) {
							return
						}
						runTask(&tasks[i])
					}
				}()
			}
			wg.Wait()
		}
		es.Merge()
		for i := range tasks {
			if tasks[i].err != nil {
				return tasks[i].err
			}
		}

		// Barrier bookkeeping: fold worker-local row counts, then
		// advance any stream whose phase completed this epoch.
		for _, st := range rs.streams {
			countRows := st.phases[st.phaseIdx].CountRows
			for i := range st.slots {
				if countRows {
					st.rows += st.slots[i].rowsAcc
				}
				st.slots[i].rowsAcc = 0
			}
			if st.phaseDone() {
				if err := e.advancePhase(st); err != nil {
					return err
				}
			}
		}
	}
}

// stepSlot advances one kernel slot on its core until the slot
// finishes or the core's clock reaches the epoch horizon. It touches
// only slot- and core-owned state.
//
//perf:hot per-epoch worker body in parallel mode
func (e *Engine) stepSlot(st *stream, s *kernelSlot, ctx *exec.Ctx, core int, horizon int64, opts RunOptions) error {
	for !s.done && e.m.Now(core) < horizon {
		budget := s.budgetFor(opts.TargetSliceTicks, opts.Quantum)
		before := e.m.Now(core)
		rows, done := s.kernel.Step(ctx, budget)
		s.observe(rows, e.m.Now(core)-before)
		s.rowsAcc += int64(rows)
		if done {
			s.done = true
			return nil
		}
		if rows == 0 {
			return fmt.Errorf("engine: kernel %q/%s made no progress",
				st.spec.Query.Name(), st.phases[st.phaseIdx].Name)
		}
	}
	return nil
}

// stepStreamInterleaved runs all kernels of one stream's serial phase
// in min-clock order up to the horizon — the serial scheduling rule,
// scoped to the one stream whose kernels share mutable state.
//
//perf:hot per-epoch serial-stream body in parallel mode
func (e *Engine) stepStreamInterleaved(st *stream, ctxs []*exec.Ctx, horizon int64, opts RunOptions) error {
	for {
		minSlot := -1
		var minNow int64
		for i := range st.slots {
			s := &st.slots[i]
			if s.done {
				continue
			}
			if now := e.m.Now(st.spec.Cores[i]); now < horizon && (minSlot < 0 || now < minNow) {
				minSlot, minNow = i, now
			}
		}
		if minSlot < 0 {
			return nil
		}
		s := &st.slots[minSlot]
		core := st.spec.Cores[minSlot]
		budget := s.budgetFor(opts.TargetSliceTicks, opts.Quantum)
		before := e.m.Now(core)
		rows, done := s.kernel.Step(ctxs[core], budget)
		s.observe(rows, e.m.Now(core)-before)
		s.rowsAcc += int64(rows)
		if done {
			s.done = true
			continue
		}
		if rows == 0 {
			return fmt.Errorf("engine: kernel %q/%s made no progress",
				st.spec.Query.Name(), st.phases[st.phaseIdx].Name)
		}
	}
}
