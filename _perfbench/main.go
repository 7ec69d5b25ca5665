// Command perfbench is the repository's benchmark. It runs one named
// workload for a seed and prints every metric by name and unit, then,
// as its last line, one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// With --trace 0 it times the workload's public figure call and
// reports the end-to-end metrics; with --trace 1 it rebuilds the
// figure from layer calls with spans around them and reports the
// per-layer metrics. See README.md in this directory.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"

	"cachepart/internal/column"
)

// A run builds the workload's data sets at least minSetups times and
// until setupSeconds have passed, and reports the median set-up time.
const (
	minSetups    = 5
	setupSeconds = 3.0
)

// endToEnd lists the end-to-end metrics in report order.
var endToEnd = []metric{
	{"wall_s", "s", 0},
	{"setup_s", "s", 0},
	{"alloc_mb", "MB", 0},
	{"max_rss_mb", "MB", 0},
}

type options struct {
	workload   string
	seed       int64
	seconds    float64
	trace      bool
	out        string
	cpuprofile string
}

// report is one run's outcome.
type report struct {
	lines     []string
	attempted int
	failed    int
	metrics   []metric
}

func (r *report) printf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

// fail counts a failed operation and says why.
func (r *report) fail(format string, args ...any) {
	r.failed++
	r.printf("FAILED: "+format, args...)
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name: scan-agg, agg-join or serve-overload")
	fs.Int64Var(&o.seed, "seed", defaultSeed, "workload seed (Params.Seed)")
	fs.Float64Var(&o.seconds, "seconds", 10, "how long to keep repeating the figure call")
	fs.IntVar(&trace, "trace", 0, "1 runs the traced composition and reports per-layer metrics")
	fs.StringVar(&o.out, "out", ".bench_build", "directory for traces and the run ledger")
	fs.StringVar(&o.cpuprofile, "cpuprofile", "", "write a CPU profile of the figure calls to this file")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	o.trace = trace == 1
	w, err := lookup(o.workload)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	// One figure call at a time, on at most two host threads.
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))

	var rep *report
	if o.trace {
		rep, err = traceRun(w, o)
	} else {
		rep, err = measureRun(w, o)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, l := range rep.lines {
		fmt.Fprintln(stdout, l)
	}
	b, err := resultJSON(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	return 0
}

// resultJSON renders the last line of the output.
func resultJSON(rep *report) ([]byte, error) {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]value{}
	for _, m := range rep.metrics {
		metrics[m.name] = value{m.value, m.unit}
	}
	return json.Marshal(struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{rep.failed == 0, rep.attempted, rep.failed, metrics})
}

// quartiles returns the first quartile, median and third quartile.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	at := func(p float64) float64 {
		pos := p * float64(len(s)-1)
		i := int(pos)
		if i+1 >= len(s) {
			return s[len(s)-1]
		}
		return s[i] + (pos-float64(i))*(s[i+1]-s[i])
	}
	return at(0.25), at(0.5), at(0.75)
}

// measureRun times the workload's figure call and set-up with tracing
// off and reports the end-to-end metrics. The figure calls come first,
// so the peak resident memory read after the first one is that of one
// workload run in a fresh process; the set-ups follow. run.sh turns off
// concurrent collection and sweeping (GODEBUG=gcstoptheworld=2), which
// makes that peak depend on the allocations alone, not on when the
// collector's background work happened to run.
func measureRun(w *workload, o options) (*report, error) {
	rep := &report{}
	p := params(o.seed)
	rep.printf("perfbench %s seed=%d trace=0", w.name, o.seed)

	stopProfile := func() {}
	if o.cpuprofile != "" {
		f, err := os.Create(o.cpuprofile)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		stopProfile = func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "perfbench: cpu profile:", err)
			}
		}
	}

	var walls, allocs []float64
	var first string
	var ans answers
	var maxRSS, measured float64
	for len(walls) == 0 || measured < o.seconds {
		debug.FreeOSMemory()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		out, err := w.figure(p)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		walls = append(walls, wall)
		measured += wall
		allocs = append(allocs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
		if len(walls) == 1 {
			var rerr error
			if maxRSS, rerr = peakRSS(); rerr != nil {
				rep.fail("peak resident memory: %v", rerr)
			}
		}
		rep.attempted++
		if err != nil {
			rep.fail("figure call: %v", err)
			continue
		}
		a, d, err := guard(w, o.seed, out)
		if first == "" {
			first, ans = d, a
		}
		if err != nil {
			rep.fail("answer guard: %v (digest %s)", err, d)
		} else if d != first {
			rep.fail("figure output changed between calls of one seed: %s vs %s", d, first)
		}
	}
	stopProfile()

	var setups []float64
	for setupStart := time.Now(); len(setups) < minSetups || time.Since(setupStart).Seconds() < setupSeconds; {
		// Collect, but keep the freed pages: faulting them back in
		// would add kernel time that varies from run to run.
		runtime.GC()
		t0 := time.Now()
		_, err := w.build(p, nil)
		setups = append(setups, time.Since(t0).Seconds())
		rep.attempted++
		if err != nil {
			rep.fail("set-up: %v", err)
		}
	}

	wq1, wMed, wq3 := quartiles(walls)
	_, sMed, _ := quartiles(setups)
	_, aMed, _ := quartiles(allocs)
	rep.metrics = []metric{
		{"wall_s", "s", wMed}, {"setup_s", "s", sMed}, {"alloc_mb", "MB", aMed}, {"max_rss_mb", "MB", maxRSS},
	}
	rep.printf("output digest %s", first)
	rep.printf("%-30s %12.4f s    lower is better; median of %d figure calls, q1 %.4f, q3 %.4f", "wall_s", wMed, len(walls), wq1, wq3)
	rep.printf("%-30s %12.4f s    lower is better; median of %d set-ups", "setup_s", sMed, len(setups))
	rep.printf("%-30s %12.4f MB   lower is better; heap allocated per figure call, median", "alloc_mb", aMed)
	rep.printf("%-30s %12.4f MB   lower is better; peak resident memory of the process after its first figure call", "max_rss_mb", maxRSS)
	rep.printf("figure call times (s): %s", joinFloats(walls))
	for _, r := range ans.results {
		rep.printf("%-30s %12.4f %-5s %s is better; %s", r.name, r.value, r.unit, r.better, r.note)
	}

	det := map[string]string{"digest": first}
	for _, r := range ans.results {
		det[r.name] = fmt.Sprint(r.value)
	}
	ledger(rep, o, w.name, det, wMed)
	return rep, nil
}

// peakRSS returns the process's peak resident memory in MB.
func peakRSS() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, err
	}
	return float64(ru.Maxrss) * 1024 / 1e6, nil // Maxrss is in KiB
}

func joinFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4f", x)
	}
	return strings.Join(parts, " ")
}

// traceRun times the figure call once with tracing off, then the traced
// composition, checks the two outputs are byte-identical, and reports
// the per-layer metrics.
func traceRun(w *workload, o options) (*report, error) {
	rep := &report{}
	p := params(o.seed)
	rep.printf("perfbench %s seed=%d trace=1", w.name, o.seed)

	runtime.GC()
	t0 := time.Now()
	want, err := w.figure(p)
	wallS := time.Since(t0).Seconds()
	rep.attempted++
	if err != nil {
		rep.fail("figure call: %v", err)
	}

	runtime.GC()
	rec := newRecorder(o.seed)
	t1 := time.Now()
	out, d, cerr := w.compose(p, rec)
	tracedS := time.Since(t1).Seconds()
	rep.attempted++
	if cerr != nil {
		rep.fail("traced composition: %v", cerr)
	} else if err == nil {
		rb, err1 := output(want)
		ob, err2 := output(out)
		if err := errors.Join(err1, err2); err != nil {
			rep.fail("serialising outputs: %v", err)
		} else if string(rb) != string(ob) {
			rep.fail("traced composition output %s differs from the figure call's %s", digest(ob), digest(rb))
		}
		if _, dg, err := guard(w, o.seed, out); err != nil {
			rep.fail("answer guard: %v (digest %s)", err, dg)
		} else {
			rep.printf("output digest %s", dg)
		}
	}

	lr := layerReport{rec: rec, wallS: wallS, tracedS: tracedS}
	if d != nil {
		// The scan column where the workload has one (Q1), else the
		// join's probe column; the Get loop runs over the aggregation's
		// group column and the join's probe column, or the Q1 column
		// when the workload has neither.
		var scanCol *column.Column
		var getCols []*column.Column
		if d.q1 != nil {
			scanCol = d.q1.Col
		}
		if d.q2 != nil {
			getCols = append(getCols, d.q2.GroupCol)
		}
		if d.q3 != nil {
			getCols = append(getCols, d.q3.FKCol)
			if scanCol == nil {
				scanCol = d.q3.FKCol
			}
		}
		if len(getCols) == 0 {
			getCols = append(getCols, scanCol)
		}
		rep.attempted++
		if lr.countNs, err = countDriver(scanCol); err != nil {
			rep.fail("column micro-driver: %v", err)
		}
		lr.getNs = getDriver(getCols...)
		rep.attempted++
		var refs []ref
		if rec.refs != nil {
			refs = rec.refs.refs()
		}
		if lr.replayNs, err = replayDriver(d.sys.Machine.Config(), refs); err != nil {
			rep.fail("cachesim replay: %v", err)
		}
	}

	rep.metrics = perLayerMetrics(lr)
	det := map[string]string{}
	for _, m := range rep.metrics {
		rep.printf("%-44s %16.4f %s", m.name, m.value, m.unit)
		if deterministic(m) {
			det[m.name] = fmt.Sprint(m.value)
		}
	}
	rep.printf("tracing overhead %.3f s: traced composition %.3f s, figure call %.3f s", tracedS-wallS, tracedS, wallS)

	dir := filepath.Join(o.out, "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.name, o.seed))
	if err := rec.writeFile(path); err != nil {
		return nil, err
	}
	rep.printf("spans written to %s", path)
	ledger(rep, o, w.name, det, tracedS)
	return rep, nil
}

// ledgerEntry is what the runs of one set share: a set is every run of
// one workload, seed and trace mode by one build of this program.
type ledgerEntry struct {
	Deterministic map[string]string `json:"deterministic"`
	Wall          []float64         `json:"wall_s"`
}

// ledger asserts that the run's simulated results equal those of every
// earlier run of its set, and reports wall time across the set's runs
// as median and quartiles.
func ledger(rep *report, o options, name string, det map[string]string, wall float64) {
	exe, err := os.Executable()
	var b []byte
	if err == nil {
		b, err = os.ReadFile(exe)
	}
	if err != nil {
		rep.printf("ledger skipped: %v", err)
		return
	}
	sum := sha256.Sum256(b)
	dir := filepath.Join(o.out, "ledger", hex.EncodeToString(sum[:8]))
	mode := 0
	if o.trace {
		mode = 1
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d-trace%d.json", name, o.seed, mode))
	var e ledgerEntry
	verdict := "simulated results equal"
	if b, err := os.ReadFile(path); err == nil && json.Unmarshal(b, &e) == nil {
		var diff []string
		for k, v := range det {
			if old, ok := e.Deterministic[k]; !ok || old != v {
				diff = append(diff, fmt.Sprintf("%s %s (was %s)", k, v, old))
			}
		}
		sort.Strings(diff)
		if len(diff) > 0 {
			rep.attempted++
			rep.fail("simulated results differ from earlier runs of this seed: %s", strings.Join(diff, "; "))
			verdict = "simulated results DIFFER"
		}
	} else {
		e.Deterministic = det
	}
	e.Wall = append(e.Wall, wall)
	q1, med, q3 := quartiles(e.Wall)
	rep.printf("set of %d runs of this seed: time median %.4f s, q1 %.4f, q3 %.4f; %s", len(e.Wall), med, q1, q3, verdict)
	if err := writeLedger(dir, path, e); err != nil {
		rep.printf("ledger not updated: %v", err)
	}
}

func writeLedger(dir, path string, e ledgerEntry) error {
	b, err := json.Marshal(e)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}
