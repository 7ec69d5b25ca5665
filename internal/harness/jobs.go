package harness

import (
	"runtime"
	"sync"
	"sync/atomic"

	"cachepart/internal/cachesim"
	"cachepart/internal/core"
	"cachepart/internal/engine"
)

// forker is implemented by queries that can run on a forked System
// (see System.fork). Fork returns a query for the fork, to be planned
// on the given core count, that shares the loaded data read-only; nil
// means the query cannot fork.
type forker interface {
	Fork(cores int) engine.Query
}

// fork returns a System for running jobs beside s: a fresh machine and
// engine of the same configuration under the policy pol, sharing s's
// address space and loaded data read-only. It has no Rng: data
// generation is done.
func (s *System) fork(pol core.Policy) (*System, error) {
	m, err := cachesim.New(s.Machine.Config())
	if err != nil {
		return nil, err
	}
	e, err := engine.New(m, pol)
	if err != nil {
		return nil, err
	}
	return &System{Params: s.Params, Space: s.Space, Machine: m, Engine: e}, nil
}

// forkQueries forks qs in order for cores[i] cores each, or returns nil
// when one cannot fork. Forking materialises a query's per-run tables
// where its first Plan would, and a serial point plans its queries in
// this order, so stopping at the first failure leaves the address
// space as the serial run has it.
func forkQueries(qs []engine.Query, cores []int) []engine.Query {
	out := make([]engine.Query, len(qs))
	for i, q := range qs {
		f, ok := q.(forker)
		if !ok {
			return nil
		}
		if out[i] = f.Fork(cores[i]); out[i] == nil {
			return nil
		}
	}
	return out
}

// pointWorkers is the worker count for n independent jobs of a figure
// point: Workers (GOMAXPROCS when 0) capped at n, and 1 in the
// epoch-parallel mode, whose runs spread over the host cores
// themselves.
func (s *System) pointWorkers(n int) int {
	if s.Params.Parallel {
		return 1
	}
	w := s.Params.Workers
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	return max(1, min(w, n))
}

// runJobs runs job(w, qs, j) for j in [0, n): the independent engine
// runs of one figure point. Each job starts from the state the serial
// loop gives it — the current policy of s, no controller, and a machine
// Engine.Run resets — so its results do not depend on which worker ran
// it or what ran there before.
//
// Up to pointWorkers(n) goroutines pull jobs in index order. Worker 0
// drives s and qs; every other worker drives a fork of s and forks of
// qs (cores[i] is the core count qs[i] runs on). A query that cannot
// fork leaves one worker, which runs the jobs in order on s with
// nothing forked. The error returned is that of the lowest failing
// job; afterwards s is back at its starting policy with no controller.
func (s *System) runJobs(n int, qs []engine.Query, cores []int, job func(w *System, qs []engine.Query, j int) error) error {
	base := s.Engine.Policy()
	type worker struct {
		sys *System
		qs  []engine.Query
	}
	workers := []worker{{s, qs}}
	for len(workers) < s.pointWorkers(n) {
		fqs := forkQueries(qs, cores)
		if fqs == nil {
			break
		}
		fs, err := s.fork(base)
		if err != nil {
			return err
		}
		workers = append(workers, worker{fs, fqs})
	}

	errs := make([]error, n)
	var next atomic.Int64
	run := func(w worker) {
		for {
			j := int(next.Add(1)) - 1
			if j >= n {
				return
			}
			w.sys.DisableAdaptive()
			if errs[j] = w.sys.Engine.SetPolicy(base); errs[j] == nil {
				errs[j] = job(w.sys, w.qs, j)
			}
		}
	}
	var wg sync.WaitGroup
	for _, w := range workers[1:] {
		wg.Add(1)
		//conc:owns the worker drives its own forked System; the shared address space and loaded data are read-only, and errs and the job's result slots are indexed by the job the atomic cursor gave it
		go func(w worker) {
			defer wg.Done()
			run(w)
		}(w)
	}
	run(workers[0])
	wg.Wait()

	s.DisableAdaptive()
	if err := s.Engine.SetPolicy(base); err != nil {
		return err
	}
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}
