package main

import (
	"fmt"

	"cachepart/internal/harness"
)

// The three workloads run the serial reference (Params.Parallel off)
// of a harness.Fast() machine: 1/32 scale, 8 simulated cores. Each is
// one point of a paper figure, reached through its public entry point.
const (
	// scan-agg: the Fig 9(b) point — 40 MiB-nominal dictionary, 10^4
	// groups.
	scanAggDict   int64 = 10_000_000
	scanAggGroups int64 = 10_000
	// agg-join: the Fig 10(b) point — 10^8 primary keys, 10^3 groups.
	// Fig 10 builds its aggregation over the 40 MiB dictionary too.
	aggJoinKeys   int64 = 100_000_000
	aggJoinGroups int64 = 1_000
	aggJoinDict   int64 = 10_000_000
	// serve-overload: the FigOverload 3x rogue-polluter point.
	overloadLoad = 3.0
)

// overloadArrivals is the serve-overload arrival count, sized so the
// victim tenant completes more than 1000 queries in the static
// polluter-first cell on every seed, which puts at least ten
// completions beyond the report's p99. Tests shrink it.
var overloadArrivals = 3200

var (
	overloadArms  = []string{"static", "adaptive"}
	overloadSheds = []string{"none", "polluter"}
)

// workload is one named benchmark input.
type workload struct {
	name string
	// build constructs the workload's system and data sets through the
	// public constructors; its time alone is setup_s.
	build func(p harness.Params, rec *recorder) (*dataset, error)
	// figure is the public figure entry point; its time is wall_s.
	figure func(p harness.Params) (any, error)
	// compose rebuilds the figure from layer calls with spans around
	// them; its output must equal figure's byte for byte.
	compose func(p harness.Params, rec *recorder) (any, *dataset, error)
	// answers extracts the simulated result metrics and checks the
	// paper's shape on them.
	answers func(out any) (answers, error)
}

var workloads = []workload{
	{
		name:    "scan-agg",
		build:   buildScanAgg,
		figure:  figScanAgg,
		compose: composeScanAgg,
		answers: answersScanAgg,
	},
	{
		name:    "agg-join",
		build:   buildAggJoin,
		figure:  figAggJoin,
		compose: composeAggJoin,
		answers: answersAggJoin,
	},
	{
		name:    "serve-overload",
		build:   buildOverload,
		figure:  figOverload,
		compose: composeOverload,
		answers: answersOverload,
	},
}

func lookup(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// params returns the figure parameters for a seed; the seed is the
// only input the benchmark varies.
func params(seed int64) harness.Params {
	p := harness.Fast()
	p.Seed = seed
	return p
}

func figScanAgg(p harness.Params) (any, error) {
	p.DictSweep = []int64{scanAggDict}
	p.GroupSweep = []int64{scanAggGroups}
	return harness.Fig9(p)
}

func figAggJoin(p harness.Params) (any, error) {
	p.KeySweep = []int64{aggJoinKeys}
	p.GroupSweep = []int64{aggJoinGroups}
	return harness.Fig10(p)
}

func overloadOptions() harness.OverloadOptions {
	return harness.OverloadOptions{
		Loads:    []float64{overloadLoad},
		Arms:     overloadArms,
		Sheds:    overloadSheds,
		Arrivals: overloadArrivals,
	}
}

func figOverload(p harness.Params) (any, error) {
	return harness.FigOverloadOpts(p, overloadOptions())
}
