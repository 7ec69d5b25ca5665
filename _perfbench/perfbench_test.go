package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"os"
	"strings"
	"sync"
	"testing"

	"cachepart/internal/cachesim"
	"cachepart/internal/engine"
	"cachepart/internal/harness"
	"cachepart/internal/serve"
)

// testArrivals shrinks serve-overload for the tests: equivalence holds
// at any size, and the full size takes half a minute per call.
const testArrivals = 400

func TestMain(m *testing.M) {
	overloadArrivals = testArrivals
	os.Exit(m.Run())
}

var (
	figMu    sync.Mutex
	figCache = map[string][]byte{}
)

// figureBytes runs (once per workload and seed) a figure call and
// returns its serialised output.
func figureBytes(t *testing.T, w *workload, seed int64) []byte {
	t.Helper()
	figMu.Lock()
	defer figMu.Unlock()
	key := fmt.Sprintf("%s/%d", w.name, seed)
	if b, ok := figCache[key]; ok {
		return b
	}
	out, err := w.figure(params(seed))
	if err != nil {
		t.Fatalf("%s figure: %v", w.name, err)
	}
	b, err := output(out)
	if err != nil {
		t.Fatal(err)
	}
	figCache[key] = b
	return b
}

func composeBytes(t *testing.T, w *workload, seed int64, rec *recorder) []byte {
	t.Helper()
	out, _, err := w.compose(params(seed), rec)
	if err != nil {
		t.Fatalf("%s compose: %v", w.name, err)
	}
	b, err := output(out)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestTracedCompositionEqualsFigure pins every workload's traced
// composition to its public figure call, byte for byte, on two seeds.
func TestTracedCompositionEqualsFigure(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		for _, seed := range []int64{1, 2} {
			want := figureBytes(t, w, seed)
			got := composeBytes(t, w, seed, newRecorder(1))
			if !bytes.Equal(got, want) {
				t.Errorf("%s seed %d: traced composition %s, figure %s", w.name, seed, digest(got)[:16], digest(want)[:16])
			}
		}
	}
}

// TestWrappedEqualsUnwrapped: wrapping every kernel in a timing span
// leaves the results unchanged.
func TestWrappedEqualsUnwrapped(t *testing.T) {
	w, _ := lookup("agg-join")
	plain := composeBytes(t, w, 1, nil)
	wrapped := composeBytes(t, w, 1, newRecorder(1))
	if !bytes.Equal(plain, wrapped) {
		t.Fatalf("kernel-wrapped run %s differs from unwrapped %s", digest(wrapped)[:16], digest(plain)[:16])
	}
}

// hidePrewarm wraps a query like the tracer does but drops its
// Prewarmer interface.
type hidePrewarm struct{ q engine.Query }

func (h hidePrewarm) Name() string { return h.q.Name() }
func (h hidePrewarm) Plan(cores int, rng *rand.Rand) ([]engine.Phase, error) {
	return h.q.Plan(cores, rng)
}

// TestPrewarmForwardingMatters is the control for the equivalence
// tests: a wrapper that loses PrewarmRegions changes the figure, so the
// tracer's forwarding is what keeps its runs identical.
func TestPrewarmForwardingMatters(t *testing.T) {
	w, _ := lookup("agg-join")
	want := figureBytes(t, w, 1)
	p := params(1)
	d, err := buildAggJoin(p, nil)
	if err != nil {
		t.Fatal(err)
	}
	sys := d.sys
	row, err := pairArms(sys, nil, "P=1e8 G=1e3", d.q2, hidePrewarm{d.q3}, []arm{
		{"shared", func() error { return sys.SetPartitioning(false) }},
		{"join10", func() error { return setJoinFraction(sys, 0.10) }},
		{"join60", func() error { return setJoinFraction(sys, 0.60) }},
	})
	if err != nil {
		t.Fatal(err)
	}
	got, err := output([]harness.PairRow{row})
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Equal(got, want) {
		t.Fatal("dropping PrewarmRegions left the figure unchanged; the forwarding pin has no teeth")
	}
}

// corrupted returns a workload whose figure call returns the given
// output instead of running.
func corrupted(w *workload, out any) *workload {
	c := *w
	c.figure = func(harness.Params) (any, error) { return out, nil }
	return &c
}

func scanAggOutput(t *testing.T) []harness.Fig9Panel {
	t.Helper()
	w, _ := lookup("scan-agg")
	var panels []harness.Fig9Panel
	if err := json.Unmarshal(figureBytes(t, w, 1), &panels); err != nil {
		t.Fatal(err)
	}
	return panels
}

func lastLine(t *testing.T, rep *report) map[string]any {
	t.Helper()
	b, err := resultJSON(rep)
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]any
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestAnswerGuardCountsCorruption corrupts one result and checks that
// the run counts it as a failed operation: a broken shape on any seed,
// a changed digest on the default seed.
func TestAnswerGuardCountsCorruption(t *testing.T) {
	w, _ := lookup("scan-agg")
	for _, tc := range []struct {
		name    string
		seed    int64
		corrupt func(p []harness.Fig9Panel)
		failed  float64
	}{
		{"intact", 1, func([]harness.Fig9Panel) {}, 0},
		{"shape", 2, func(p []harness.Fig9Panel) { p[0].Rows[0].Arms[1].B.Throughput /= 2 }, 1},
		{"digest", 1, func(p []harness.Fig9Panel) { p[0].Rows[0].IsoA.MPI *= 1.0001 }, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			panels := scanAggOutput(t)
			tc.corrupt(panels)
			rep, err := measureRun(corrupted(w, panels), options{seed: tc.seed, seconds: 0, out: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			m := lastLine(t, rep)
			if m["failed"] != tc.failed || m["correct"] != (tc.failed == 0) {
				t.Fatalf("failed=%v correct=%v, want failed=%v\n%s", m["failed"], m["correct"], tc.failed, strings.Join(rep.lines, "\n"))
			}
		})
	}
}

// TestOverloadShape checks the serve-overload answers on a hand-made
// result: recovery above 1 passes, a tail short of samples fails.
func TestOverloadShape(t *testing.T) {
	res := func(victimDone int64, noneP99 int64) *harness.OverloadResult {
		return &harness.OverloadResult{SecondsPerTick: 1e-6, Loads: []harness.OverloadLoad{{Runs: []harness.OverloadRun{
			{Arm: "static", Shed: "none", Report: report1(victimDone/4, 50, noneP99)},
			{Arm: "adaptive", Shed: "none", Report: report1(victimDone/4, 50, noneP99)},
			{Arm: "static", Shed: "polluter", Report: report1(victimDone, 20, 30)},
			{Arm: "adaptive", Shed: "polluter", Report: report1(victimDone, 20, 35)},
		}}}}
	}
	a, err := answersOverload(res(1200, 60))
	if err != nil || a.shape != nil {
		t.Fatalf("good result rejected: %v %v", err, a.shape)
	}
	if math.Abs(a.results[1].value-30) > 1e-9 || a.results[2].value != 2 {
		t.Fatalf("tail %v recovery %v, want 30 and 2", a.results[1].value, a.results[2].value)
	}
	if a, _ := answersOverload(res(500, 60)); a.shape == nil {
		t.Fatal("500 victim completions accepted as a p99 tail")
	}
	if a, _ := answersOverload(res(1200, 25)); a.shape == nil {
		t.Fatal("recovery below 1 accepted")
	}
}

func report1(completed, p50, p99 int64) *serve.Report {
	return &serve.Report{Tenants: []serve.TenantReport{{Completed: completed, Arrivals: completed, Good: completed, P50: p50, P99: p99, P999: p99}}}
}

func TestBeyond(t *testing.T) {
	for _, tc := range []struct {
		n    int64
		q    float64
		want int64
	}{{1000, 0.99, 10}, {500, 0.99, 5}, {1200, 0.99, 12}, {100, 0.5, 50}, {0, 0.99, 0}} {
		if got := beyond(tc.n, tc.q); got != tc.want {
			t.Errorf("beyond(%d, %v) = %d, want %d", tc.n, tc.q, got, tc.want)
		}
	}
}

// TestMicroDrivers runs the column and replay micro-drivers on a
// workload's own data; each checks its own answer.
func TestMicroDrivers(t *testing.T) {
	w, _ := lookup("agg-join")
	rec := newRecorder(1)
	_, d, err := w.compose(params(1), rec)
	if err != nil {
		t.Fatal(err)
	}
	if ns, err := countDriver(d.q2.ValueCol); err != nil || ns <= 0 {
		t.Fatalf("count driver: %v ns/code, %v", ns, err)
	}
	if ns := getDriver(d.q2.GroupCol, d.q3.FKCol); ns <= 0 {
		t.Fatalf("get driver: %v ns/code", ns)
	}
	refs := rec.refs.refs()
	if len(refs) != replayRefs {
		t.Fatalf("captured %d references, want the last %d", len(refs), replayRefs)
	}
	if ns, err := replayDriver(d.sys.Machine.Config(), refs); err != nil || ns <= 0 {
		t.Fatalf("replay: %v ns/ref, %v", ns, err)
	}
	if _, err := replayDriver(d.sys.Machine.Config(), nil); err == nil {
		t.Fatal("replay of nothing succeeded")
	}
}

func TestRefRingKeepsLastInOrder(t *testing.T) {
	r := newRefRing(4)
	for i := 0; i < 6; i++ {
		r.Trace(cachesim.TraceEvent{Core: i})
	}
	got := r.refs()
	for i, rf := range got {
		if int(rf.core) != i+2 {
			t.Fatalf("ring kept cores %v, want 2..5", got)
		}
	}
}

// TestTracedCountsRepeat: every per-layer count of a traced run repeats
// exactly on a second run of the same seed.
func TestTracedCountsRepeat(t *testing.T) {
	w, _ := lookup("agg-join")
	run := func() map[string]float64 {
		rec := newRecorder(1)
		if _, _, err := w.compose(params(1), rec); err != nil {
			t.Fatal(err)
		}
		out := map[string]float64{}
		for _, m := range perLayerMetrics(layerReport{rec: rec}) {
			if deterministic(m) {
				out[m.name] = m.value
			}
		}
		return out
	}
	a, b := run(), run()
	if a["exec.step_calls"] == 0 || a["cachesim.refs"] == 0 {
		t.Fatalf("no work counted: %v", a)
	}
	for k, v := range a {
		if b[k] != v {
			t.Errorf("%s: %v then %v", k, v, b[k])
		}
	}
}

// TestLedgerFlagsChangedResults: a run whose simulated results differ
// from an earlier run of its set counts a failed operation.
func TestLedgerFlagsChangedResults(t *testing.T) {
	o := options{seed: 7, out: t.TempDir()}
	first := &report{}
	ledger(first, o, "x", map[string]string{"gain": "1.5"}, 1)
	same := &report{}
	ledger(same, o, "x", map[string]string{"gain": "1.5"}, 1.1)
	changed := &report{}
	ledger(changed, o, "x", map[string]string{"gain": "1.4"}, 1.2)
	if first.failed != 0 || same.failed != 0 || changed.failed != 1 {
		t.Fatalf("failed counts %d %d %d, want 0 0 1", first.failed, same.failed, changed.failed)
	}
}

func TestQuartiles(t *testing.T) {
	q1, med, q3 := quartiles([]float64{4, 1, 3, 2, 5})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Fatalf("quartiles %v %v %v, want 2 3 4", q1, med, q3)
	}
}

// TestBenchmarkJSONMatchesProgram keeps BENCHMARK.json and the program
// in step: same workloads, same metric names and units.
func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the program", len(spec.Workloads), len(workloads))
	}
	for i, sw := range spec.Workloads {
		if sw.Name != workloads[i].name {
			t.Errorf("workload %d: %q vs %q", i, sw.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metric) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the program", kind, len(got), len(want))
		}
		for i := range got {
			if got[i].Name != want[i].name || got[i].Unit != want[i].unit {
				t.Errorf("%s %d: %s %s vs %s %s", kind, i, got[i].Name, got[i].Unit, want[i].name, want[i].unit)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

func TestUnknownWorkloadPrintsNoResult(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"--workload", "nope"}, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q", code, stdout.String())
	}
}
