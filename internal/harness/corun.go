package harness

import (
	"fmt"

	"cachepart/internal/engine"
)

// PairArm is one configuration of a two-query co-run experiment.
type PairArm struct {
	Name  string
	A, B  Measure
	NormA float64 // A's throughput relative to its isolated run
	NormB float64
}

// PairRow is one x-axis point of a co-run figure: the two queries'
// isolated baselines and every experiment arm.
type PairRow struct {
	Label        string
	NameA, NameB string
	IsoA, IsoB   Measure
	Arms         []PairArm
}

// Arm returns the named arm, for tests and printers.
func (r PairRow) Arm(name string) (PairArm, bool) {
	for _, a := range r.Arms {
		if a.Name == name {
			return a, true
		}
	}
	return PairArm{}, false
}

// Fig9Panel is one dictionary configuration of Figure 9.
type Fig9Panel struct {
	Label string
	Rows  []PairRow
}

// pairArm is one policy arm of a co-run. apply configures the System
// that runs the arm, which starts from the row's base policy with no
// controller attached.
type pairArm struct {
	name  string
	apply func(*System) error
}

// partitionArms are the paper's two arms: no partitioning, then its
// scheme.
var partitionArms = []pairArm{
	{"shared", func(s *System) error { return s.SetPartitioning(false) }},
	{"partitioned", func(s *System) error { return s.SetPartitioning(true) }},
}

// runPairArms measures the isolated baselines and each policy arm of a
// query pair co-running on the disjoint core sets ca and cb. The
// isolated baselines use the same core sets, so normalization isolates
// cache and bandwidth interference. The baselines and arms are
// independent runs, so they run as concurrent jobs (runJobs) with the
// serial loop's results.
func (s *System) runPairArms(label string, qa, qb engine.Query, ca, cb []int, arms []pairArm) (PairRow, error) {
	if err := s.SetPartitioning(false); err != nil {
		return PairRow{}, err
	}
	// Job 0 is A's baseline, job 1 B's, job 2+i arm i; each writes only
	// its own slot.
	ms := make([][2]Measure, 2+len(arms))
	err := s.runJobs(len(ms), []engine.Query{qa, qb}, []int{len(ca), len(cb)},
		func(w *System, qs []engine.Query, j int) error {
			var err error
			switch j {
			case 0:
				ms[j][0], err = w.RunIsolated(qs[0], ca)
			case 1:
				ms[j][1], err = w.RunIsolated(qs[1], cb)
			default:
				if err := arms[j-2].apply(w); err != nil {
					return err
				}
				ms[j][0], ms[j][1], err = w.RunPair(qs[0], ca, qs[1], cb)
			}
			return err
		})
	if err != nil {
		return PairRow{}, err
	}
	row := PairRow{
		Label: label,
		NameA: qa.Name(), NameB: qb.Name(),
		IsoA: ms[0][0], IsoB: ms[1][1],
	}
	for i, arm := range arms {
		ma, mb := ms[2+i][0], ms[2+i][1]
		row.Arms = append(row.Arms, PairArm{
			Name:  arm.name,
			A:     ma,
			B:     mb,
			NormA: ratio(ma.Throughput, row.IsoA.Throughput),
			NormB: ratio(mb.Throughput, row.IsoB.Throughput),
		})
	}
	return row, nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// Fig9 reproduces Figure 9 (a, b, c): Query 1 (column scan) and
// Query 2 (aggregation) executed concurrently, for the three
// dictionary sizes and the group-count sweep, with partitioning
// disabled and enabled. With partitioning the scan is restricted to
// 10% of the LLC and the aggregation keeps 100%.
func Fig9(p Params) ([]Fig9Panel, error) {
	sys, err := NewSystem(p)
	if err != nil {
		return nil, err
	}
	q1, err := NewQ1(sys)
	if err != nil {
		return nil, err
	}
	ca, cb := sys.SplitCores()
	var panels []Fig9Panel
	for _, distinct := range p.dictSweep() {
		panel := Fig9Panel{Label: fmt.Sprintf("%d MiB dictionary", 4*distinct/1_000_000)}
		for _, groups := range p.groupSweep() {
			q2, err := NewQ2(sys, distinct, groups)
			if err != nil {
				return nil, err
			}
			row, err := sys.runPairArms(fmt.Sprintf("G=%s", sciLabel(groups)), q1, q2, ca, cb, partitionArms)
			if err != nil {
				return nil, err
			}
			panel.Rows = append(panel.Rows, row)
		}
		panels = append(panels, panel)
	}
	return panels, nil
}

// Fig10Keys are the two primary-key counts of Figure 10.
var Fig10Keys = []int64{1_000_000, 100_000_000}

// Fig10 reproduces Figure 10 (a, b): Query 2 (aggregation, 40 MiB
// dictionary) and Query 3 (foreign-key join) executed concurrently for
// 10^6 and 10^8 primary keys, comparing three configurations: no
// partitioning, join restricted to 10% of the LLC, and join
// restricted to 60%.
func Fig10(p Params) ([]PairRow, error) {
	sys, err := NewSystem(p)
	if err != nil {
		return nil, err
	}
	ca, cb := sys.SplitCores()
	var rows []PairRow
	keys10 := Fig10Keys
	if len(p.KeySweep) > 0 {
		keys10 = p.KeySweep
	}
	for _, keys := range keys10 {
		q3, err := NewQ3(sys, keys)
		if err != nil {
			return nil, err
		}
		for _, groups := range p.groupSweep() {
			q2, err := NewQ2(sys, 10_000_000, groups)
			if err != nil {
				return nil, err
			}
			row, err := sys.runPairArms(fmt.Sprintf("P=%s G=%s", sciLabel(keys), sciLabel(groups)), q2, q3, ca, cb, fig10Arms)
			if err != nil {
				return nil, err
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// fig10Arms are Figure 10's three configurations.
var fig10Arms = []pairArm{
	{"shared", func(s *System) error { return s.SetPartitioning(false) }},
	{"join10", func(s *System) error { return s.setJoinFraction(0.10) }},
	{"join60", func(s *System) error { return s.setJoinFraction(0.60) }},
}

// setJoinFraction forces the Depends class to a fixed LLC fraction by
// collapsing the bit-vector heuristic band.
func (sys *System) setJoinFraction(fraction float64) error {
	pol := sys.Engine.Policy()
	pol.Enabled = true
	if fraction >= 0.5 {
		// Treat every join as cache-sensitive: the 60% slice.
		pol.DependsLargeFraction = fraction
		pol.SensitiveLo = 0
		pol.SensitiveHi = 1e18
	} else {
		// Treat every join as polluting: the small slice. Pushing the
		// band far beyond any real bit vector disables the heuristic.
		pol.PollutingFraction = fraction
		pol.SensitiveLo = 1e15
		pol.SensitiveHi = 1e15
	}
	return sys.Engine.SetPolicy(pol)
}
