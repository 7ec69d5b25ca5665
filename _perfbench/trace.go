package main

import (
	"encoding/json"
	"math/rand"
	"os"
	"runtime"
	"time"

	"cachepart/internal/cachesim"
	"cachepart/internal/engine"
	"cachepart/internal/exec"
	"cachepart/internal/memory"
)

// Span is one timed interval of a traced run. Spans are recorded by the
// benchmark around its own calls into each layer; the program itself
// carries no instrumentation.
//
// Kernel.Step calls are far too many to keep one span each, so the
// recorder folds every Step under one open parent span and phase name
// into a single span: Calls counts the folded Steps, Dur sums their
// durations, and Start/End bound the first and last of them. For every
// other span Calls is 1 and Dur is End-Start.
type Span struct {
	ID     int           `json:"id"`
	Parent int           `json:"parent"` // -1 for a root span
	Run    int64         `json:"run"`    // the seed of the traced run
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Dur    time.Duration `json:"dur_ns"`
	Calls  int64         `json:"calls"`
	Rows   int64         `json:"rows,omitempty"`
	// AllocBytes is the heap allocated inside the span, recorded only
	// for data-generation spans (reading it stops the world).
	AllocBytes uint64 `json:"alloc_bytes,omitempty"`
}

// stepKey identifies one folded Step span.
type stepKey struct {
	parent int
	phase  string
}

// recorder keeps a traced run's spans in memory until the run ends.
// It is single-threaded, like the serial simulator it wraps.
type recorder struct {
	origin time.Time
	run    int64
	spans  []Span
	open   []int // stack of open span IDs
	steps  map[stepKey]int
	refs   *refRing
	c      counts
}

func newRecorder(run int64) *recorder {
	return &recorder{origin: time.Now(), run: run, steps: map[stepKey]int{}}
}

func (r *recorder) now() time.Duration { return time.Since(r.origin) }

func (r *recorder) parent() int {
	if len(r.open) == 0 {
		return -1
	}
	return r.open[len(r.open)-1]
}

// begin opens a span under the innermost open span.
func (r *recorder) begin(name string) int {
	id := len(r.spans)
	r.spans = append(r.spans, Span{ID: id, Parent: r.parent(), Run: r.run, Name: name, Start: r.now(), Calls: 1})
	r.open = append(r.open, id)
	return id
}

// end closes the innermost open span, which must be id.
func (r *recorder) end(id int) {
	s := &r.spans[id]
	s.End = r.now()
	s.Dur = s.End - s.Start
	r.open = r.open[:len(r.open)-1]
}

// span times fn as one span; a nil recorder just calls fn.
func (r *recorder) span(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	id := r.begin(name)
	defer r.end(id)
	return fn()
}

// genSpan times a data-generation call and records the heap it
// allocates; a nil recorder just calls fn.
func (r *recorder) genSpan(name string, fn func() error) error {
	if r == nil {
		return fn()
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	id := r.begin(name)
	err := fn()
	r.end(id)
	runtime.ReadMemStats(&after)
	r.spans[id].AllocBytes = after.TotalAlloc - before.TotalAlloc
	return err
}

// stepSpan returns the folded Step span of a phase under the innermost
// open span, creating it on first use.
func (r *recorder) stepSpan(phase string, start time.Duration) int {
	k := stepKey{r.parent(), phase}
	id, ok := r.steps[k]
	if !ok {
		id = len(r.spans)
		r.spans = append(r.spans, Span{ID: id, Parent: k.parent, Run: r.run, Name: "exec.step/" + phase, Start: start})
		r.steps[k] = id
	}
	return id
}

// step folds one Kernel.Step into the folded span id.
func (r *recorder) step(id int, start, end time.Duration, rows int) {
	s := &r.spans[id]
	s.End = end
	s.Dur += end - start
	s.Calls++
	s.Rows += int64(rows)
}

// writeFile stores the spans as JSON.
func (r *recorder) writeFile(path string) error {
	b, err := json.Marshal(r.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// tracedQuery wraps a query so each planned kernel is timed as a Step
// span under the phase's name. Prewarm regions are forwarded, as
// harness.Unannotated does: without them a wrapped query would start
// its measurement window cold and change the results.
type tracedQuery struct {
	q   engine.Query
	rec *recorder
}

type tracedPrewarmer struct {
	tracedQuery
	pw engine.Prewarmer
}

func (t *tracedPrewarmer) PrewarmRegions(cores int) []memory.Region {
	return t.pw.PrewarmRegions(cores)
}

// traced wraps q for rec; a nil recorder leaves q untouched.
func traced(q engine.Query, rec *recorder) engine.Query {
	if rec == nil {
		return q
	}
	if pw, ok := q.(engine.Prewarmer); ok {
		return &tracedPrewarmer{tracedQuery{q, rec}, pw}
	}
	return &tracedQuery{q, rec}
}

func (t *tracedQuery) Name() string { return t.q.Name() }

func (t *tracedQuery) Plan(cores int, rng *rand.Rand) ([]engine.Phase, error) {
	phases, err := t.q.Plan(cores, rng)
	if err != nil {
		return nil, err
	}
	for i := range phases {
		ks := make([]exec.Kernel, len(phases[i].Kernels))
		for j, k := range phases[i].Kernels {
			ks[j] = &tracedKernel{k: k, rec: t.rec, phase: phases[i].Name, span: -1}
		}
		phases[i].Kernels = ks
	}
	return phases, nil
}

type tracedKernel struct {
	k     exec.Kernel
	rec   *recorder
	phase string
	// span caches the folded span: a kernel lives within one run, so
	// its parent span never changes after the first Step.
	span int
}

func (t *tracedKernel) Step(ctx *exec.Ctx, budget int) (int, bool) {
	start := t.rec.now()
	rows, done := t.k.Step(ctx, budget)
	if t.span < 0 {
		t.span = t.rec.stepSpan(t.phase, start)
	}
	t.rec.step(t.span, start, t.rec.now(), rows)
	return rows, done
}

// ref is one captured memory reference.
type ref struct {
	addr  memory.Addr
	core  int32
	write bool
}

// refRing is a cachesim.Tracer keeping the last len(buf) references
// of the run it is installed on, for the replay micro-driver.
type refRing struct {
	buf  []ref
	next int
	seen int64
}

func newRefRing(n int) *refRing { return &refRing{buf: make([]ref, n)} }

func (r *refRing) Trace(ev cachesim.TraceEvent) {
	r.buf[r.next] = ref{addr: ev.Addr, core: int32(ev.Core), write: ev.Write}
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
	}
	r.seen++
}

// refs returns the captured references in access order.
func (r *refRing) refs() []ref {
	if r.seen < int64(len(r.buf)) {
		return r.buf[:r.seen]
	}
	return append(append([]ref(nil), r.buf[r.next:]...), r.buf[:r.next]...)
}
