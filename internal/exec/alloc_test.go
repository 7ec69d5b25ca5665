package exec

import "testing"

// These tests pin the hot-path alloc budget (DESIGN.md §12) for the
// two kernels of the Fig 9 co-run: after warm-up sizes the scan's
// batch scratch and the aggregation table, a Step allocates nothing.
// Each kernel is rewound when it finishes, so every measured Step does
// real work.

func TestColumnScanStepZeroAllocs(t *testing.T) {
	ctx, space := testCtx(t)
	col := uniformCol(t, space, "x", 20_000, 1, 1<<15, 1)
	scan, err := NewColumnScan(col, 0, col.Rows(), 1<<14)
	if err != nil {
		t.Fatal(err)
	}
	Drive(ctx, scan, 1000)
	scan.Reset(scan.LoCode, scan.HiCode)
	allocs := testing.AllocsPerRun(100, func() {
		if _, done := scan.Step(ctx, 1000); done {
			scan.Reset(scan.LoCode, scan.HiCode)
		}
	})
	if allocs != 0 {
		t.Errorf("ColumnScan.Step allocates %.1f per step in steady state, want 0", allocs)
	}
}

func TestAggLocalStepZeroAllocs(t *testing.T) {
	ctx, space := testCtx(t)
	groups := uniformCol(t, space, "g", 20_000, 0, 999, 1)
	values := uniformCol(t, space, "v", 20_000, 1, 1<<15, 2)
	agg, err := NewAggLocal(groups, values, 0, groups.Rows(), NewAggTable(space, "t", 1000))
	if err != nil {
		t.Fatal(err)
	}
	Drive(ctx, agg, 256)
	agg.Reset()
	allocs := testing.AllocsPerRun(100, func() {
		if _, done := agg.Step(ctx, 256); done {
			agg.Reset()
		}
	})
	if allocs != 0 {
		t.Errorf("AggLocal.Step allocates %.1f per step in steady state, want 0", allocs)
	}
}
