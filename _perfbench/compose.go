package main

import (
	"fmt"
	"math/rand"

	"cachepart/internal/adapt"
	"cachepart/internal/column"
	"cachepart/internal/core"
	"cachepart/internal/engine"
	"cachepart/internal/exec"
	"cachepart/internal/harness"
	"cachepart/internal/serve"
	wl "cachepart/internal/workload"
	"cachepart/internal/workload/s4"
	"cachepart/internal/workload/tpch"
)

// compose.go rebuilds each workload's figure call from the layers'
// public calls, mirroring the harness step by step, with a span around
// every call. The equivalence tests pin each composition to its figure
// byte for byte, so a harness change that the mirror misses fails
// loudly instead of skewing the per-layer numbers.

// replayRefs is how many references the traced run keeps for the
// cachesim replay micro-driver: the last ones of the first co-run.
const replayRefs = 1 << 20

// dataset is a workload's system and data sets.
type dataset struct {
	sys *harness.System
	q1  *wl.ScanQuery
	q2  *wl.AggQuery
	q3  *wl.JoinQuery
	// serve-overload tenants' queries; tpch queries carry per-execution
	// scratch, so there is one instance per dispatch group.
	oltp     *s4.OLTPQuery
	q1s, q6s []engine.Query
}

func newSystem(p harness.Params, rec *recorder) (*harness.System, error) {
	var sys *harness.System
	err := rec.genSpan("workload.new_system", func() (err error) {
		sys, err = harness.NewSystem(p)
		return err
	})
	return sys, err
}

func buildScanAgg(p harness.Params, rec *recorder) (*dataset, error) {
	d := &dataset{}
	var err error
	if d.sys, err = newSystem(p, rec); err != nil {
		return nil, err
	}
	if err := rec.genSpan("workload.new_q1", func() (err error) {
		d.q1, err = harness.NewQ1(d.sys)
		return err
	}); err != nil {
		return nil, err
	}
	err = rec.genSpan("workload.new_q2", func() (err error) {
		d.q2, err = harness.NewQ2(d.sys, scanAggDict, scanAggGroups)
		return err
	})
	return d, err
}

func buildAggJoin(p harness.Params, rec *recorder) (*dataset, error) {
	d := &dataset{}
	var err error
	if d.sys, err = newSystem(p, rec); err != nil {
		return nil, err
	}
	// Fig 10 builds the join's data before the aggregation's.
	if err := rec.genSpan("workload.new_q3", func() (err error) {
		d.q3, err = harness.NewQ3(d.sys, aggJoinKeys)
		return err
	}); err != nil {
		return nil, err
	}
	err = rec.genSpan("workload.new_q2", func() (err error) {
		d.q2, err = harness.NewQ2(d.sys, aggJoinDict, aggJoinGroups)
		return err
	})
	return d, err
}

// buildOverload loads the three serving tenants' data in the harness's
// order: the S/4 table and its OLTP query, TPC-H and its per-group
// queries, then the Query 1 column the reporting scans read.
func buildOverload(p harness.Params, rec *recorder) (*dataset, error) {
	d := &dataset{}
	sys, err := newSystem(p, rec)
	if err != nil {
		return nil, err
	}
	d.sys = sys
	groups := len(serveGroups(sys))
	var table *s4.Table
	if err := rec.genSpan("workload.s4_load", func() (err error) {
		// Sized as the harness sizes it: the inverted index (4 B/row)
		// at least twice the LLC.
		rows := sys.Params.RowsAgg
		if minRows := int(sys.LLCBytes()); rows*4 < 2*minRows {
			rows = minRows / 2
		}
		table, err = s4.Load(sys.Space, sys.Rng, s4.Spec{Rows: rows, Scale: sys.Params.Scale})
		return err
	}); err != nil {
		return nil, err
	}
	if d.oltp, err = s4.NewOLTPQuery(table, table.Big); err != nil {
		return nil, err
	}
	var db *tpch.DB
	if err := rec.genSpan("workload.tpch_load", func() (err error) {
		db, err = tpch.Load(sys.Space, sys.Rng, tpch.Spec{Scale: sys.Params.Scale, LineitemRows: 1 << 13})
		return err
	}); err != nil {
		return nil, err
	}
	if err := rec.genSpan("workload.tpch_new_query", func() error {
		d.q1s = make([]engine.Query, groups)
		d.q6s = make([]engine.Query, groups)
		for g := 0; g < groups; g++ {
			var err error
			if d.q1s[g], err = tpch.NewQuery(db, sys.Space, 1); err != nil {
				return err
			}
			if d.q6s[g], err = tpch.NewQuery(db, sys.Space, 6); err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	err = rec.genSpan("workload.new_q1", func() (err error) {
		d.q1, err = harness.NewQ1(sys)
		return err
	})
	return d, err
}

// arm is one policy configuration of a co-run.
type arm struct {
	name  string
	apply func() error
}

// pairArms mirrors the harness's co-run protocol: isolated baselines
// of both queries on their half of the cores, then every arm from the
// same base policy. The first arm's co-run feeds the replay capture.
func pairArms(sys *harness.System, rec *recorder, label string, qa, qb engine.Query, arms []arm) (harness.PairRow, error) {
	ca, cb := sys.SplitCores()
	if err := sys.SetPartitioning(false); err != nil {
		return harness.PairRow{}, err
	}
	row := harness.PairRow{Label: label, NameA: qa.Name(), NameB: qb.Name()}
	if err := rec.engineRun(sys, "iso-a", func() (err error) {
		row.IsoA, err = sys.RunIsolated(qa, ca)
		return err
	}); err != nil {
		return harness.PairRow{}, err
	}
	if err := rec.engineRun(sys, "iso-b", func() (err error) {
		row.IsoB, err = sys.RunIsolated(qb, cb)
		return err
	}); err != nil {
		return harness.PairRow{}, err
	}
	base := sys.Engine.Policy()
	for i, a := range arms {
		if err := sys.Engine.SetPolicy(base); err != nil {
			return harness.PairRow{}, err
		}
		if err := a.apply(); err != nil {
			return harness.PairRow{}, err
		}
		if i == 0 {
			rec.capture(sys)
		}
		var ma, mb harness.Measure
		err := rec.engineRun(sys, a.name, func() (err error) {
			ma, mb, err = sys.RunPair(qa, ca, qb, cb)
			return err
		})
		rec.stopCapture(sys)
		if err != nil {
			return harness.PairRow{}, err
		}
		rec.victimHitRatio(a.name, mb.HitRatio)
		row.Arms = append(row.Arms, harness.PairArm{
			Name: a.name, A: ma, B: mb,
			NormA: ratio(ma.Throughput, row.IsoA.Throughput),
			NormB: ratio(mb.Throughput, row.IsoB.Throughput),
		})
	}
	return row, sys.Engine.SetPolicy(base)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func composeScanAgg(p harness.Params, rec *recorder) (any, *dataset, error) {
	p.DictSweep = []int64{scanAggDict}
	p.GroupSweep = []int64{scanAggGroups}
	d, err := buildScanAgg(p, rec)
	if err != nil {
		return nil, nil, err
	}
	sys := d.sys
	row, err := pairArms(sys, rec, "G="+sciLabel(scanAggGroups), traced(d.q1, rec), traced(d.q2, rec), []arm{
		{"shared", func() error { return sys.SetPartitioning(false) }},
		{"partitioned", func() error { return sys.SetPartitioning(true) }},
	})
	if err != nil {
		return nil, nil, err
	}
	rec.engineTotals(sys)
	return []harness.Fig9Panel{{
		Label: fmt.Sprintf("%d MiB dictionary", 4*scanAggDict/1_000_000),
		Rows:  []harness.PairRow{row},
	}}, d, nil
}

func composeAggJoin(p harness.Params, rec *recorder) (any, *dataset, error) {
	p.KeySweep = []int64{aggJoinKeys}
	p.GroupSweep = []int64{aggJoinGroups}
	d, err := buildAggJoin(p, rec)
	if err != nil {
		return nil, nil, err
	}
	sys := d.sys
	row, err := pairArms(sys, rec, "P="+sciLabel(aggJoinKeys)+" G="+sciLabel(aggJoinGroups),
		traced(d.q2, rec), traced(d.q3, rec), []arm{
			{"shared", func() error { return sys.SetPartitioning(false) }},
			{"join10", func() error { return setJoinFraction(sys, 0.10) }},
			{"join60", func() error { return setJoinFraction(sys, 0.60) }},
		})
	if err != nil {
		return nil, nil, err
	}
	rec.engineTotals(sys)
	return []harness.PairRow{row}, d, nil
}

// setJoinFraction pins the join's LLC share as Fig 10 does: the 60%
// arm treats every join as cache-sensitive, the 10% arm as polluting,
// by collapsing the bit-vector heuristic band of the policy.
func setJoinFraction(sys *harness.System, fraction float64) error {
	pol := sys.Engine.Policy()
	pol.Enabled = true
	if fraction >= 0.5 {
		pol.DependsLargeFraction = fraction
		pol.SensitiveLo = 0
		pol.SensitiveHi = 1e18
	} else {
		pol.PollutingFraction = fraction
		pol.SensitiveLo = 1e15
		pol.SensitiveHi = 1e15
	}
	return sys.Engine.SetPolicy(pol)
}

// sciLabel renders 100000 as "1e5", as the figures label their rows.
func sciLabel(n int64) string {
	exp := 0
	v := n
	for v >= 10 && v%10 == 0 {
		v /= 10
		exp++
	}
	if v == 1 && exp > 0 {
		return fmt.Sprintf("1e%d", exp)
	}
	return fmt.Sprintf("%d", n)
}

// serveGroups carves the machine into dispatch groups of two cores.
func serveGroups(sys *harness.System) [][]int {
	all := sys.AllCores()
	var groups [][]int
	for i := 0; i+1 < len(all); i += 2 {
		groups = append(groups, []int{all[i], all[i+1]})
	}
	return groups
}

// serveShares split the nominal offered load: OLTP, analytics,
// reporting.
var serveShares = [3]float64{0.60, 0.15, 0.25}

// chunkScanQuery is the reporting tenant's statement: a scan of a
// random fixed-length window of the Query 1 column.
type chunkScanQuery struct {
	col      *column.Column
	rows     int
	distinct int64
}

func (q *chunkScanQuery) Name() string { return "serve-scan" }

func (q *chunkScanQuery) Plan(cores int, rng *rand.Rand) ([]engine.Phase, error) {
	total := q.col.Rows()
	rows := min(q.rows, total)
	start := 0
	if total > rows {
		start = int(rng.Int63n(int64(total - rows + 1)))
	}
	bound := 1 + rng.Int63n(q.distinct)
	parts := engine.PartitionRows(rows, cores)
	kernels := make([]exec.Kernel, 0, len(parts))
	for _, p := range parts {
		k, err := exec.NewColumnScan(q.col, start+p[0], start+p[1], bound)
		if err != nil {
			return nil, err
		}
		kernels = append(kernels, k)
	}
	return []engine.Phase{{Name: "serve-scan", CUID: core.Polluting, Kernels: kernels, CountRows: true}}, nil
}

func aliased(q engine.Query, groups int) []engine.Query {
	out := make([]engine.Query, groups)
	for i := range out {
		out[i] = q
	}
	return out
}

func tracedAll(qs []engine.Query, rec *recorder) []engine.Query {
	out := make([]engine.Query, len(qs))
	for i, q := range qs {
		out[i] = traced(q, rec)
	}
	return out
}

func overloadTenants(d *dataset, groups int, rec *recorder) []serve.Tenant {
	chunk := &chunkScanQuery{col: d.q1.Col, rows: 1 << 19, distinct: d.q1.Spec().Distinct}
	return []serve.Tenant{
		{
			Name:    "oltp",
			Process: serve.Process{Kind: serve.ProcPoisson},
			Mix: []serve.Workload{{Name: "pklookup", Weight: 1,
				Instances: aliased(traced(d.oltp, rec), groups), Class: int(core.Sensitive)}},
		},
		{
			Name: "analytics",
			Process: serve.Process{Kind: serve.ProcDiurnal, Periods: []serve.Period{
				{Seconds: 2e-4, Amplitude: 0.5},
				{Seconds: 8e-4, Amplitude: 0.3, Phase: 1.2},
			}},
			Mix: []serve.Workload{
				{Name: "tpch-q1", Weight: 2, Instances: tracedAll(d.q1s, rec), Class: int(core.Sensitive)},
				{Name: "tpch-q6", Weight: 1, Instances: tracedAll(d.q6s, rec), Class: int(core.Sensitive)},
			},
		},
		{
			Name:    "reporting",
			Process: serve.Process{Kind: serve.ProcPoisson},
			Mix: []serve.Workload{{Name: "chunk-scan", Weight: 1,
				Instances: aliased(traced(chunk, rec), groups), Class: int(core.Polluting)}},
		},
	}
}

// calibrate measures each tenant's isolated mixture-mean service time
// on the first dispatch group and derives the capacity estimate.
func calibrate(sys *harness.System, rec *recorder, tenants []serve.Tenant, shares []float64, groups [][]int) ([]float64, float64, error) {
	if err := sys.SetPartitioning(false); err != nil {
		return nil, 0, err
	}
	baselines := make([]float64, len(tenants))
	var mixMean float64
	for ti := range tenants {
		t := &tenants[ti]
		var mean, wsum float64
		for wi := range t.Mix {
			w := &t.Mix[wi]
			var res []engine.StreamResult
			if err := rec.engineRun(sys, "calibrate", func() (err error) {
				res, err = sys.Engine.Run(
					[]engine.StreamSpec{{Query: w.Instances[0], Cores: groups[0]}},
					engine.RunOptions{Duration: sys.Params.Duration, Seed: sys.Params.Seed, Quantum: sys.Params.Quantum},
				)
				return err
			}); err != nil {
				return nil, 0, fmt.Errorf("calibrating %s/%s: %w", t.Name, w.Name, err)
			}
			if len(res[0].ExecTicks) == 0 {
				return nil, 0, fmt.Errorf("calibrating %s/%s: no execution completed", t.Name, w.Name)
			}
			var sum int64
			for _, ticks := range res[0].ExecTicks {
				sum += ticks
			}
			weight := float64(w.Weight)
			if weight <= 0 {
				weight = 1
			}
			mean += weight * float64(sum) / float64(len(res[0].ExecTicks))
			wsum += weight
		}
		baselines[ti] = mean / wsum
		t.BaselineTicks = baselines[ti]
		mixMean += shares[ti] * baselines[ti]
	}
	ticksPerSec := float64(sys.Machine.Ticks(1))
	return baselines, float64(len(groups)) / (mixMean / ticksPerSec), nil
}

// overloadArm applies one cache arm of the sweep, returning the
// adaptive controller when the arm attaches one.
func overloadArm(sys *harness.System, name string) (*adapt.Controller, error) {
	switch name {
	case "static":
		sys.DisableAdaptive()
		return nil, sys.SetPartitioning(true)
	case "adaptive":
		if err := sys.SetPartitioning(false); err != nil {
			return nil, err
		}
		return sys.EnableAdaptive(adapt.DefaultConfig())
	}
	return nil, fmt.Errorf("unknown overload arm %q", name)
}

func overloadShed(name string, threshold float64) (serve.ShedPolicy, error) {
	switch name {
	case "none":
		return serve.ShedNone{}, nil
	case "polluter":
		return &serve.ShedPolluter{Threshold: threshold}, nil
	}
	return nil, fmt.Errorf("unknown shed policy %q", name)
}

// composeOverload mirrors harness.FigOverloadOpts at the workload's
// options (SLO multiple 15, shed threshold 0.3, 3 attempts with a 0.3
// retry budget, 32-completion breaker window, queue cap 16: the
// harness defaults).
func composeOverload(p harness.Params, rec *recorder) (any, *dataset, error) {
	d, err := buildOverload(p, rec)
	if err != nil {
		return nil, nil, err
	}
	sys := d.sys
	defer sys.DisableAdaptive()
	groups := serveGroups(sys)
	tenants := overloadTenants(d, len(groups), rec)
	shares := make([]float64, len(tenants))
	var shareSum float64
	for ti := range tenants {
		shares[ti] = serveShares[ti%len(serveShares)]
		shareSum += shares[ti]
	}
	for ti := range shares {
		shares[ti] /= shareSum
	}
	var baselines []float64
	var capacity float64
	if err := rec.span("engine.calibrate", func() (err error) {
		baselines, capacity, err = calibrate(sys, rec, tenants, shares, groups)
		return err
	}); err != nil {
		return nil, nil, err
	}
	const sloMultiple, shedThreshold, queueCap = 15, 0.3, 16
	secPerTick := sys.Machine.Seconds(1)
	for ti := range tenants {
		base := baselines[ti] * secPerTick
		tenants[ti].SLO = serve.SLO{TargetP99Seconds: sloMultiple * base, DeadlineSeconds: 2 * sloMultiple * base}
		tenants[ti].QueueCap = queueCap
	}
	out := &harness.OverloadResult{
		CapacityQPS:    capacity,
		BaselineTicks:  baselines,
		SecondsPerTick: secPerTick,
		Groups:         len(groups),
		Victim:         0,
		Polluter:       len(tenants) - 1,
	}
	var offered float64
	for ti := range tenants {
		r := capacity * shares[ti]
		if ti == out.Polluter {
			r *= overloadLoad
		}
		tenants[ti].Process.Rate = r
		offered += r
	}
	point := harness.OverloadLoad{Load: overloadLoad, RateQPS: offered}
	for _, shedName := range overloadSheds {
		for i, armName := range overloadArms {
			shed, err := overloadShed(shedName, shedThreshold)
			if err != nil {
				return nil, nil, err
			}
			ctrl, err := overloadArm(sys, armName)
			if err != nil {
				return nil, nil, err
			}
			cfg := serve.Config{
				Seed:    p.Seed,
				Horizon: float64(overloadArrivals) / offered,
				Tenants: tenants,
				Shed:    shed,
				Retry:   serve.Retry{MaxAttempts: 3, BudgetFraction: 0.3},
				Breaker: serve.Breaker{Window: 32},
				Quantum: p.Quantum,
			}
			if i == 0 && shedName == overloadSheds[0] {
				rec.capture(sys)
			}
			r, err := rec.serveRun(sys, armName+"_"+shedName, ctrl, func() (*serve.Report, error) {
				return serve.Run(sys.Engine, groups, cfg)
			})
			rec.stopCapture(sys)
			if err != nil {
				return nil, nil, fmt.Errorf("overload %s/%s at %.1fx: %w", armName, shedName, overloadLoad, err)
			}
			point.Runs = append(point.Runs, harness.OverloadRun{Arm: armName, Shed: shedName, Report: r})
		}
		sys.DisableAdaptive()
	}
	out.Loads = append(out.Loads, point)
	rec.engineTotals(sys)
	return out, d, nil
}
