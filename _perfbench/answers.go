package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"

	"cachepart/internal/harness"
	"cachepart/internal/serve"
)

// answers.go is the answer guard: the simulated result metrics of each
// workload, the paper's shape checked on every seed, and a digest of
// the whole figure output pinned for the default seed.

// defaultSeed is harness.Fast()'s seed, the one digests.json pins.
const defaultSeed = 1

//go:embed digests.json
var digestsJSON []byte

// result is one simulated metric. Simulated metrics are deterministic
// for a seed, so they are printed and guarded but carry no host noise.
type result struct {
	name, unit, better string
	value              float64
	// note states what a latency rests on: its sample count and how
	// many completions lie beyond the percentile.
	note string
}

// answers is a workload's simulated metrics plus its shape verdict.
type answers struct {
	results []result
	// shape is nil when the paper's shape holds.
	shape error
}

// output serialises a figure's result; equal bytes mean equal answers.
func output(out any) ([]byte, error) {
	return json.Marshal(out)
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// pinnedDigest returns the digest pinned for a workload's default-seed
// output.
func pinnedDigest(name string) (string, error) {
	var pins map[string]string
	if err := json.Unmarshal(digestsJSON, &pins); err != nil {
		return "", fmt.Errorf("digests.json: %w", err)
	}
	d, ok := pins[name]
	if !ok {
		return "", fmt.Errorf("digests.json has no digest for %q", name)
	}
	return d, nil
}

// guard checks one figure output: the digest when the seed is the
// default one, then the shape. It returns the answers and nil, or the
// reason the output counts as a failed operation.
func guard(w *workload, seed int64, out any) (answers, string, error) {
	b, err := output(out)
	if err != nil {
		return answers{}, "", err
	}
	d := digest(b)
	a, err := w.answers(out)
	if err != nil {
		return answers{}, d, err
	}
	if seed == defaultSeed {
		pin, err := pinnedDigest(w.name)
		if err != nil {
			return a, d, err
		}
		if d != pin {
			return a, d, fmt.Errorf("output digest %s differs from the pinned %s", d[:16], pin[:16])
		}
	}
	for _, r := range a.results {
		if math.IsNaN(r.value) || math.IsInf(r.value, 0) || r.value == 0 {
			return a, d, fmt.Errorf("%s is %v", r.name, r.value)
		}
	}
	return a, d, a.shape
}

func answersScanAgg(out any) (answers, error) {
	panels, ok := out.([]harness.Fig9Panel)
	if !ok || len(panels) != 1 || len(panels[0].Rows) != 1 {
		return answers{}, errors.New("scan-agg: want one Fig 9 panel with one row")
	}
	row := panels[0].Rows[0]
	shared, ok1 := row.Arm("shared")
	part, ok2 := row.Arm("partitioned")
	if !ok1 || !ok2 {
		return answers{}, errors.New("scan-agg: missing shared or partitioned arm")
	}
	gain := ratio(part.B.Throughput, shared.B.Throughput)
	a := answers{results: []result{
		{name: "gain", unit: "ratio", better: "higher", value: gain,
			note: "Q2 throughput, partitioned over shared"},
		{name: "norm_shared", unit: "ratio", better: "higher", value: shared.NormB,
			note: "Q2 throughput, shared over isolated"},
	}}
	if !(gain > 1) {
		a.shape = fmt.Errorf("scan-agg: gain %.4f is not above 1", gain)
	}
	return a, nil
}

func answersAggJoin(out any) (answers, error) {
	rows, ok := out.([]harness.PairRow)
	if !ok || len(rows) != 1 {
		return answers{}, errors.New("agg-join: want one Fig 10 row")
	}
	j10, ok1 := rows[0].Arm("join10")
	j60, ok2 := rows[0].Arm("join60")
	if !ok1 || !ok2 {
		return answers{}, errors.New("agg-join: missing join10 or join60 arm")
	}
	a := answers{results: []result{
		{name: "norm_join10", unit: "ratio", better: "higher", value: j10.NormB,
			note: "Q3 throughput under the 10% scheme, over isolated"},
		{name: "norm_join60", unit: "ratio", better: "higher", value: j60.NormB,
			note: "Q3 throughput under the 60% scheme, over isolated"},
	}}
	if !(j10.NormB < j60.NormB) {
		a.shape = fmt.Errorf("agg-join: norm_join10 %.4f is not below norm_join60 %.4f", j10.NormB, j60.NormB)
	}
	return a, nil
}

// tailMinBeyond is how many completions must lie beyond a percentile
// for it to serve as the tail.
const tailMinBeyond = 10

// beyond counts the samples above the nearest-rank q-quantile of n
// samples, the rank serve's report uses.
func beyond(n int64, q float64) int64 {
	if n == 0 {
		return 0
	}
	i := int64(q*float64(n)+0.5) - 1
	i = max(0, min(i, n-1))
	return n - 1 - i
}

// tail picks the highest percentile the serve report carries with at
// least tailMinBeyond completions beyond it.
func tail(t serve.TenantReport) (q float64, ticks int64) {
	for _, c := range []struct {
		q     float64
		ticks int64
	}{{0.999, t.P999}, {0.99, t.P99}, {0.5, t.P50}} {
		if beyond(t.Completed, c.q) >= tailMinBeyond {
			return c.q, c.ticks
		}
	}
	return 0, 0
}

func sampleNote(t serve.TenantReport, q float64) string {
	return fmt.Sprintf("n=%d, %d beyond p%g", t.Completed, beyond(t.Completed, q), q*100)
}

func answersOverload(out any) (answers, error) {
	r, ok := out.(*harness.OverloadResult)
	if !ok || len(r.Loads) != 1 {
		return answers{}, errors.New("serve-overload: want one load point")
	}
	cell := func(arm, shed string) (serve.TenantReport, error) {
		rep := r.Loads[0].Run(arm, shed)
		if rep == nil || r.Victim >= len(rep.Tenants) {
			return serve.TenantReport{}, fmt.Errorf("serve-overload: missing %s/%s cell", arm, shed)
		}
		return rep.Tenants[r.Victim], nil
	}
	sp, err := cell("static", "polluter")
	if err != nil {
		return answers{}, err
	}
	sn, err := cell("static", "none")
	if err != nil {
		return answers{}, err
	}
	ap, err := cell("adaptive", "polluter")
	if err != nil {
		return answers{}, err
	}
	an, err := cell("adaptive", "none")
	if err != nil {
		return answers{}, err
	}
	us := func(ticks int64) float64 { return float64(ticks) * r.SecondsPerTick * 1e6 }
	q, tailTicks := tail(sp)
	// Recovery compares the cells at the tail's percentile. Without
	// shedding the breaker and queue drop most victim queries, so
	// those cells rest on far fewer completions; their notes say so.
	a := answers{results: []result{
		{name: "victim_p50_us", unit: "us", better: "lower", value: us(sp.P50),
			note: "static, polluter-first; " + sampleNote(sp, 0.5)},
		{name: "victim_tail_us", unit: "us", better: "lower", value: us(tailTicks),
			note: "static, polluter-first; " + sampleNote(sp, q)},
		{name: "victim_tail_recovery", unit: "ratio", better: "higher", value: ratio(float64(sn.P99), float64(sp.P99)),
			note: "static p99 none/polluter; none " + sampleNote(sn, 0.99)},
		{name: "adaptive_victim_tail_recovery", unit: "ratio", better: "higher", value: ratio(float64(an.P99), float64(ap.P99)),
			note: "adaptive p99 none/polluter; none " + sampleNote(an, 0.99) + ", polluter " + sampleNote(ap, 0.99)},
		{name: "victim_slo_polluter", unit: "ratio", better: "higher", value: ratio(float64(sp.Good), float64(sp.Arrivals)),
			note: fmt.Sprintf("static, polluter-first; Good %d of %d arrivals", sp.Good, sp.Arrivals)},
	}}
	switch {
	case q < 0.99:
		a.shape = fmt.Errorf("serve-overload: %d victim completions leave fewer than %d beyond p99", sp.Completed, tailMinBeyond)
	case !(a.results[2].value > 1):
		a.shape = fmt.Errorf("serve-overload: victim_tail_recovery %.4f is not above 1", a.results[2].value)
	}
	return a, nil
}
