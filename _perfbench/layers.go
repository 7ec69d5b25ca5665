package main

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"cachepart/internal/adapt"
	"cachepart/internal/cachesim"
	"cachepart/internal/column"
	"cachepart/internal/harness"
	"cachepart/internal/serve"
)

// layers.go turns a traced run into per-layer metrics: counts read from
// the layers' public counters after each call, times summed from the
// spans, and two micro-drivers timed on the workload's own data.

// cellCounts is one serve-overload cell's control-plane accounting.
type cellCounts struct {
	report        *serve.Report
	resctrlWrites int
	ctrl          *adapt.Controller
}

// counts accumulates layer counters over a traced run.
type counts struct {
	stats      cachesim.CoreStats
	maskWrites int
	victimHit  map[string]float64
	cells      map[string]*cellCounts
}

// engineRun times one Engine.Run-backed call and adds the machine's
// counters, which every run zeroes first, to the totals.
func (r *recorder) engineRun(sys *harness.System, label string, fn func() error) error {
	if r == nil {
		return fn()
	}
	err := r.span("engine.run:"+label, fn)
	r.c.stats.Add(sys.Machine.TotalStats())
	return err
}

// serveRun times one serve.Run cell and keeps its accounting.
func (r *recorder) serveRun(sys *harness.System, cell string, ctrl *adapt.Controller, fn func() (*serve.Report, error)) (*serve.Report, error) {
	if r == nil {
		return fn()
	}
	w0 := sys.Engine.ControlPlane().Writes()
	var rep *serve.Report
	err := r.span("serve.run:"+cell, func() (err error) {
		rep, err = fn()
		return err
	})
	r.c.stats.Add(sys.Machine.TotalStats())
	if r.c.cells == nil {
		r.c.cells = map[string]*cellCounts{}
	}
	r.c.cells[cell] = &cellCounts{report: rep, resctrlWrites: sys.Engine.ControlPlane().Writes() - w0, ctrl: ctrl}
	return rep, err
}

func (r *recorder) victimHitRatio(arm string, v float64) {
	if r == nil {
		return
	}
	if r.c.victimHit == nil {
		r.c.victimHit = map[string]float64{}
	}
	r.c.victimHit[arm] = v
}

func (r *recorder) engineTotals(sys *harness.System) {
	if r != nil {
		r.c.maskWrites = sys.Engine.MaskWrites()
	}
}

// capture installs a reference ring on the machine for the next run.
func (r *recorder) capture(sys *harness.System) {
	if r != nil {
		r.refs = newRefRing(replayRefs)
		sys.Machine.SetTracer(r.refs)
	}
}

func (r *recorder) stopCapture(sys *harness.System) {
	if r != nil {
		sys.Machine.SetTracer(nil)
	}
}

// microReps is how many times each micro-driver repeats; the median
// repetition is reported.
const microReps = 5

func medianDuration(ds []time.Duration) time.Duration {
	s := append([]time.Duration(nil), ds...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

// countDriver times PackedVector.CountInRange over a whole column and
// checks its count against a Get loop over the same range.
func countDriver(c *column.Column) (nsPerCode float64, err error) {
	v := c.Codes
	n := v.Len()
	lo, hi := uint32(c.Dict.Len()/4), uint32(3*c.Dict.Len()/4)
	var cnt int64
	ds := make([]time.Duration, microReps)
	for i := range ds {
		t0 := time.Now()
		cnt = v.CountInRange(0, n, lo, hi)
		ds[i] = time.Since(t0)
	}
	var want int64
	for i := 0; i < n; i++ {
		if c := v.Get(i); c >= lo && c < hi {
			want++
		}
	}
	if cnt != want {
		return 0, fmt.Errorf("CountInRange counted %d codes in [%d,%d), a Get loop %d", cnt, lo, hi, want)
	}
	return float64(medianDuration(ds).Nanoseconds()) / float64(n), nil
}

// getSink keeps the Get loop's result alive.
var getSink uint64

// getDriver times a PackedVector.Get loop over the given columns.
func getDriver(cols ...*column.Column) float64 {
	var n int
	ds := make([]time.Duration, microReps)
	for i := range ds {
		var sum uint64
		n = 0
		t0 := time.Now()
		for _, c := range cols {
			v := c.Codes
			for j := 0; j < v.Len(); j++ {
				sum += uint64(v.Get(j))
			}
			n += v.Len()
		}
		ds[i] = time.Since(t0)
		getSink += sum
	}
	return float64(medianDuration(ds).Nanoseconds()) / float64(n)
}

// replayDriver replays captured references through Machine.Access on
// a fresh machine of the workload's configuration and checks that the
// machine saw exactly that many references.
func replayDriver(cfg cachesim.Config, refs []ref) (nsPerRef float64, err error) {
	if len(refs) == 0 {
		return 0, fmt.Errorf("replay: no references captured")
	}
	ds := make([]time.Duration, 3)
	for i := range ds {
		m, err := cachesim.New(cfg)
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for _, rf := range refs {
			m.Access(int(rf.core), rf.addr, rf.write)
		}
		ds[i] = time.Since(t0)
		st := m.TotalStats()
		if got := st.Reads + st.Writes; got != uint64(len(refs)) {
			return 0, fmt.Errorf("replay issued %d references, captured %d", got, len(refs))
		}
	}
	return float64(medianDuration(ds).Nanoseconds()) / float64(len(refs)), nil
}

// metric is one reported per-layer value.
type metric struct {
	name, unit string
	value      float64
}

// perLayer lists every per-layer metric in report order. Metrics of a
// layer a workload never calls read 0 on that workload.
var perLayer = func() []metric {
	ms := []metric{
		{"workload.gen_s", "s", 0}, {"workload.alloc_mb", "MB", 0},
		{"column.count_ns_per_code", "ns", 0}, {"column.get_ns_per_code", "ns", 0},
		{"exec.step_s", "s", 0}, {"exec.step_calls", "count", 0}, {"exec.rows", "count", 0}, {"exec.ns_per_row", "ns", 0},
		{"cachesim.refs", "count", 0}, {"cachesim.l1_hits", "count", 0}, {"cachesim.l2_hits", "count", 0},
		{"cachesim.llc_hits", "count", 0}, {"cachesim.llc_misses", "count", 0},
		{"cachesim.prefetch_issued", "count", 0}, {"cachesim.prefetch_late", "count", 0},
		{"cachesim.writebacks", "count", 0}, {"cachesim.stall_ticks", "ticks", 0},
	}
	for _, a := range victimArms {
		ms = append(ms, metric{"cachesim.victim_llc_hit_ratio." + a, "ratio", 0})
	}
	ms = append(ms,
		metric{"cachesim.replay_ns_per_ref", "ns", 0},
		metric{"engine.run_s", "s", 0}, metric{"engine.self_s", "s", 0}, metric{"engine.runs", "count", 0},
		metric{"engine.calibrate_s", "s", 0}, metric{"engine.mask_writes", "count", 0},
	)
	for _, cell := range overloadCells() {
		for _, m := range []metric{
			{"run_s", "s", 0}, {"self_s", "s", 0}, {"arrivals", "count", 0}, {"completed", "count", 0},
			{"dropped_queue", "count", 0}, {"dropped_deadline", "count", 0}, {"dropped_shed", "count", 0},
			{"dropped_breaker", "count", 0}, {"retries", "count", 0}, {"breaker_trips", "count", 0},
			{"good_ratio", "ratio", 0},
		} {
			ms = append(ms, metric{"serve." + cell + "." + m.name, m.unit, 0})
		}
		if strings.HasPrefix(cell, "adaptive") {
			ms = append(ms, metric{"adapt." + cell + ".transitions", "count", 0},
				metric{"adapt." + cell + ".schemata_writes", "count", 0})
		}
		ms = append(ms, metric{"resctrl." + cell + ".writes", "count", 0})
	}
	return append(ms,
		metric{"layer.column_share", "ratio", 0}, metric{"layer.cachesim_share", "ratio", 0},
		metric{"layer.engine_share", "ratio", 0}, metric{"layer.workload_share", "ratio", 0},
		metric{"trace.traced_s", "s", 0}, metric{"trace.overhead_s", "s", 0},
	)
}()

// victimArms are the co-run arms whose victim hit ratio is reported:
// the stream the workload's result metrics describe (Q2 in scan-agg,
// Q3 in agg-join).
var victimArms = []string{"shared", "partitioned", "join10", "join60"}

func overloadCells() []string {
	var cells []string
	for _, shed := range overloadSheds {
		for _, arm := range overloadArms {
			cells = append(cells, arm+"_"+shed)
		}
	}
	return cells
}

// deterministic reports whether a per-layer metric counts simulated
// work, so that it must repeat exactly across runs of one seed.
func deterministic(m metric) bool {
	return m.unit == "count" || m.unit == "ticks" || (m.unit == "ratio" && !strings.HasPrefix(m.name, "layer."))
}

// layerReport holds everything the per-layer metrics are computed from.
type layerReport struct {
	rec      *recorder
	data     *dataset
	wallS    float64 // the untraced figure call
	tracedS  float64 // the traced composition
	countNs  float64
	getNs    float64
	replayNs float64
}

// perLayerMetrics computes the per-layer metrics of a traced run.
func perLayerMetrics(lr layerReport) []metric {
	rec := lr.rec
	v := map[string]float64{}
	childStep := map[int]time.Duration{}
	for _, s := range rec.spans {
		if strings.HasPrefix(s.Name, "exec.step/") && s.Parent >= 0 {
			childStep[s.Parent] += s.Dur
		}
	}
	phaseRows := map[string]int64{}
	for _, s := range rec.spans {
		sec := s.Dur.Seconds()
		switch {
		case strings.HasPrefix(s.Name, "workload."):
			v["workload.gen_s"] += sec
			v["workload.alloc_mb"] += float64(s.AllocBytes) / 1e6
		case strings.HasPrefix(s.Name, "exec.step/"):
			v["exec.step_s"] += sec
			v["exec.step_calls"] += float64(s.Calls)
			v["exec.rows"] += float64(s.Rows)
			phaseRows[strings.TrimPrefix(s.Name, "exec.step/")] += s.Rows
		case strings.HasPrefix(s.Name, "engine.run:"):
			v["engine.run_s"] += sec
			v["engine.self_s"] += (s.Dur - childStep[s.ID]).Seconds()
			v["engine.runs"]++
		case s.Name == "engine.calibrate":
			v["engine.calibrate_s"] += sec
		case strings.HasPrefix(s.Name, "serve.run:"):
			cell := strings.TrimPrefix(s.Name, "serve.run:")
			v["serve."+cell+".run_s"] += sec
			v["serve."+cell+".self_s"] += (s.Dur - childStep[s.ID]).Seconds()
		}
	}
	if v["exec.rows"] > 0 {
		v["exec.ns_per_row"] = v["exec.step_s"] * 1e9 / v["exec.rows"]
	}
	st := rec.c.stats
	v["cachesim.refs"] = float64(st.Reads + st.Writes)
	v["cachesim.l1_hits"] = float64(st.L1Hits)
	v["cachesim.l2_hits"] = float64(st.L2Hits)
	v["cachesim.llc_hits"] = float64(st.LLCHits)
	v["cachesim.llc_misses"] = float64(st.LLCMisses)
	v["cachesim.prefetch_issued"] = float64(st.PrefetchIssued)
	v["cachesim.prefetch_late"] = float64(st.PrefetchLate)
	v["cachesim.writebacks"] = float64(st.Writebacks)
	v["cachesim.stall_ticks"] = float64(st.StallTicks)
	for arm, hr := range rec.c.victimHit {
		v["cachesim.victim_llc_hit_ratio."+arm] = hr
	}
	v["cachesim.replay_ns_per_ref"] = lr.replayNs
	v["column.count_ns_per_code"] = lr.countNs
	v["column.get_ns_per_code"] = lr.getNs
	v["engine.mask_writes"] = float64(rec.c.maskWrites)
	var serveSelf float64
	for cell, cc := range rec.c.cells {
		serveSelf += v["serve."+cell+".self_s"]
		r := cc.report
		if r == nil {
			continue
		}
		p := "serve." + cell + "."
		v[p+"arrivals"] = float64(r.Arrivals)
		v[p+"completed"] = float64(r.Completed)
		for _, t := range r.Tenants {
			v[p+"dropped_queue"] += float64(t.DropQueue)
			v[p+"dropped_deadline"] += float64(t.DropDeadline)
			v[p+"dropped_shed"] += float64(t.DropShed)
			v[p+"dropped_breaker"] += float64(t.DropBreaker)
			v[p+"breaker_trips"] += float64(t.BreakerTrips)
		}
		v[p+"retries"] = float64(r.Retries)
		v[p+"good_ratio"] = ratio(float64(r.Good), float64(r.Attempts))
		v["resctrl."+cell+".writes"] = float64(cc.resctrlWrites)
		if cc.ctrl != nil {
			v["adapt."+cell+".transitions"] = float64(len(cc.ctrl.Transitions()))
			v["adapt."+cell+".schemata_writes"] = float64(cc.ctrl.SchemataWrites())
		}
	}
	// Layer shares of the traced run's host time. Decode and cache walk
	// run inside Kernel.Step, where no span can separate them, so their
	// shares are estimated from the micro-drivers: codes decoded times
	// ns per code, references times ns per reference, scaled down when
	// the two together exceed the Step time that contains them.
	columnS := (lr.countNs*float64(phaseRows["scan"]+phaseRows["serve-scan"]) +
		lr.getNs*float64(2*phaseRows["aggregate-local"]+phaseRows["join-build"]+phaseRows["join-probe"])) / 1e9
	cachesimS := lr.replayNs * v["cachesim.refs"] / 1e9
	if sum := columnS + cachesimS; sum > v["exec.step_s"] {
		columnS *= v["exec.step_s"] / sum
		cachesimS *= v["exec.step_s"] / sum
	}
	if lr.tracedS > 0 {
		v["layer.column_share"] = columnS / lr.tracedS
		v["layer.cachesim_share"] = cachesimS / lr.tracedS
		v["layer.engine_share"] = (v["engine.self_s"] + serveSelf) / lr.tracedS
		v["layer.workload_share"] = v["workload.gen_s"] / lr.tracedS
	}
	v["trace.traced_s"] = lr.tracedS
	v["trace.overhead_s"] = lr.tracedS - lr.wallS

	out := make([]metric, len(perLayer))
	for i, m := range perLayer {
		out[i] = metric{m.name, m.unit, v[m.name]}
	}
	return out
}
