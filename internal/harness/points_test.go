package harness

import (
	"errors"
	"reflect"
	"sync"
	"testing"

	"cachepart/internal/engine"
)

// pointSeeds are the seeds the point-parallel equivalence tests cover.
// A race-detector build runs the first alone: its concurrent runs are
// the same on every seed, and the detector's ~10x slowdown would
// otherwise add minutes to the race job.
func pointSeeds() []int64 {
	seeds := []int64{1, 7, 42}
	if raceEnabled {
		return seeds[:1]
	}
	return seeds
}

// checkPointWorkers runs a one-point figure at one and at four point
// workers on every seed and requires identical results: point-level
// parallelism runs serial-reference jobs, so the worker count may
// change host time only. The test runs beside the package's other
// parallel tests.
func checkPointWorkers(t *testing.T, figure func(Params) (any, error)) {
	t.Helper()
	t.Parallel()
	for _, seed := range pointSeeds() {
		var outs [2]any
		for i, workers := range []int{1, 4} {
			p := tinyParams()
			p.Duration = 0.001 // ten adaptive control epochs per run
			p.Seed = seed
			p.Workers = workers
			out, err := figure(p)
			if err != nil {
				t.Fatalf("seed %d, %d workers: %v", seed, workers, err)
			}
			outs[i] = out
		}
		if !reflect.DeepEqual(outs[0], outs[1]) {
			t.Errorf("seed %d: 4 point workers differ from 1:\n%+v\n%+v", seed, outs[1], outs[0])
		}
	}
}

// TestPointParallelFig9 covers the Figure 9(b) point: scan and
// aggregation, shared and partitioned arms.
func TestPointParallelFig9(t *testing.T) {
	checkPointWorkers(t, func(p Params) (any, error) {
		p.DictSweep = []int64{10_000_000}
		p.GroupSweep = []int64{10_000}
		return Fig9(p)
	})
}

// TestPointParallelFig10 covers the Figure 10(b) point: aggregation and
// join, shared, join10 and join60 arms.
func TestPointParallelFig10(t *testing.T) {
	checkPointWorkers(t, func(p Params) (any, error) {
		p.KeySweep = []int64{100_000_000}
		p.GroupSweep = []int64{1_000}
		return Fig10(p)
	})
}

// TestPointParallelFigAdapt covers the adaptive arm (a controller per
// job) and Unannotated forks.
func TestPointParallelFigAdapt(t *testing.T) {
	checkPointWorkers(t, func(p Params) (any, error) { return FigAdapt(p) })
}

// TestPointParallelRunJobs pins runJobs' worker model: each job holds
// its worker until all four jobs have started, so four workers must
// serve them — s itself plus three forks with their own machines and
// forked queries. The reported error is the lowest failing job's, and
// s ends at its starting policy.
func TestPointParallelRunJobs(t *testing.T) {
	p := tinyParams()
	p.Workers = 4
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := NewQ1(sys)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := NewQ2(sys, 1_000_000, 1_000)
	if err != nil {
		t.Fatal(err)
	}
	base := sys.Engine.Policy()
	var started sync.WaitGroup
	started.Add(4)
	used := make([]*System, 4)
	aggs := make([]engine.Query, 4)
	errJob := errors.New("job failed")
	err = sys.runJobs(4, []engine.Query{q1, q2}, []int{4, 4}, func(w *System, qs []engine.Query, j int) error {
		started.Done()
		started.Wait()
		used[j], aggs[j] = w, qs[1]
		if qs[0] != engine.Query(q1) {
			t.Errorf("job %d: scan query was copied", j)
		}
		if err := w.SetPartitioning(true); err != nil {
			return err
		}
		if j >= 2 {
			return errJob
		}
		return nil
	})
	if !errors.Is(err, errJob) {
		t.Fatalf("runJobs error %v, want %v", err, errJob)
	}
	self := 0
	for j, w := range used {
		if w == sys {
			self++
			if aggs[j] != engine.Query(q2) {
				t.Errorf("job %d ran on s with a forked query", j)
			}
			continue
		}
		if w.Machine == sys.Machine || w.Space != sys.Space || aggs[j] == engine.Query(q2) {
			t.Errorf("job %d: fork shares the machine, or not the space, or runs the original query", j)
		}
		for k := range j {
			if used[k] == w {
				t.Errorf("jobs %d and %d ran on one worker", k, j)
			}
		}
	}
	if self != 1 {
		t.Errorf("%d jobs ran on s, want 1", self)
	}
	if sys.Engine.Policy() != base {
		t.Error("runJobs left s off its starting policy")
	}
}

// TestPointParallelWorkers pins the worker count: Workers capped at the
// job count, one worker in the epoch-parallel mode, and one worker with
// nothing forked when a query cannot fork.
func TestPointParallelWorkers(t *testing.T) {
	cases := []struct {
		workers  int
		parallel bool
		jobs     int
		want     int
	}{
		{4, false, 5, 4},
		{4, false, 2, 2},
		{1, false, 5, 1},
		{4, true, 5, 1},
	}
	for _, tc := range cases {
		s := &System{Params: Params{Workers: tc.workers, Parallel: tc.parallel}}
		if got := s.pointWorkers(tc.jobs); got != tc.want {
			t.Errorf("Workers %d, Parallel %v, %d jobs: %d workers, want %d",
				tc.workers, tc.parallel, tc.jobs, got, tc.want)
		}
	}

	p := tinyParams()
	p.Workers = 4
	sys, err := NewSystem(p)
	if err != nil {
		t.Fatal(err)
	}
	q1, err := NewQ1(sys)
	if err != nil {
		t.Fatal(err)
	}
	opaque := struct{ engine.Query }{q1} // hides Fork
	err = sys.runJobs(3, []engine.Query{q1, opaque}, []int{4, 4}, func(w *System, _ []engine.Query, j int) error {
		if w != sys {
			t.Errorf("job %d ran on a fork beside a query that cannot fork", j)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
