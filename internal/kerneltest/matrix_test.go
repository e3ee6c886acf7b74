package kerneltest_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kerneltest"
	"repro/internal/mcbatch"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
	"repro/internal/zeroone"
)

// algs is the differential matrix's schedule axis: the six registered
// names plus the nowrap variant of the first row-major algorithm.
func algs() []string {
	return append(sched.Names(), "rm-rf-nowrap")
}

// TestDifferentialMatrix is the canonical cross-kernel proof: every
// schedule × the shape matrix × the workload set × {default cap, cap 3},
// every executor against the independent reference. This single test
// replaces the per-kernel comparison loops that used to live in the
// engine, zeroone, and mcbatch suites.
func TestDifferentialMatrix(t *testing.T) {
	src := rng.New(0x5EED)
	for _, alg := range algs() {
		for _, shape := range kerneltest.Shapes(alg) {
			rows, cols := shape[0], shape[1]
			for _, maxSteps := range []int{0, 3} {
				kerneltest.Compare(t, alg, rows, cols, maxSteps,
					kerneltest.Workloads(src, rows, cols))
			}
		}
	}
}

// TestDifferentialRandomShapes fuzzes the shape axis with random sides
// up to 17 (beyond every compiled-run and packing block boundary),
// keeping the even-column constraint of the row-major schedules.
func TestDifferentialRandomShapes(t *testing.T) {
	src := rng.New(0xC0FFEE)
	for _, alg := range algs() {
		for trial := 0; trial < 4; trial++ {
			rows := 1 + rng.Intn(src, 17)
			cols := 1 + rng.Intn(src, 17)
			if alg == "rm-rf" || alg == "rm-cf" || alg == "rm-rf-nowrap" {
				cols += cols % 2
			}
			kerneltest.Compare(t, alg, rows, cols, 0,
				kerneltest.Workloads(src, rows, cols))
		}
	}
}

// TestLockstepFullWidth packs more 0-1 grids than one 64-lane slice
// holds, so Compare's lockstep pass exercises a full slice plus a ragged
// tail, with every lane checked against the reference.
func TestLockstepFullWidth(t *testing.T) {
	const rows, cols, lanes = 7, 9, 70
	src := rng.New(0xFACE)
	cases := make([]kerneltest.Case, lanes)
	n := rows * cols
	for i := range cases {
		cases[i] = kerneltest.Case{
			Label: fmt.Sprintf("zeroone-%d", i),
			Input: workload.RandomZeroOne(src, rows, cols, rng.Intn(src, n+1)),
		}
	}
	kerneltest.Compare(t, "snake-a", rows, cols, 0, cases)
	kerneltest.Compare(t, "shearsort", rows, cols, 5, cases)
}

// TestBatchKernelMatrix crosses both batch executors with worker counts
// on both workload classes and requires byte-identical batches.
func TestBatchKernelMatrix(t *testing.T) {
	spec := mcbatch.Spec{
		Algorithm: core.SnakeB, Rows: 8, Cols: 8, Trials: 48, Seed: 42,
	}
	if b := kerneltest.CompareBatches(t, spec, []int{1, 3, 8}); b == nil {
		t.Fatal("permutation batch failed")
	}
	spec.ZeroOne = true
	if b := kerneltest.CompareBatches(t, spec, []int{1, 3, 8}); b == nil {
		t.Fatal("zeroone batch failed")
	}
}

// TestBatchStepLimitErrors pins the failure path: a cap no schedule can
// meet must produce the same error string from every kernel × worker
// combination.
func TestBatchStepLimitErrors(t *testing.T) {
	spec := mcbatch.Spec{
		Algorithm: core.RowMajorRowFirst, Rows: 6, Cols: 6, Trials: 8,
		Seed: 7, MaxSteps: 2,
	}
	if b := kerneltest.CompareBatches(t, spec, []int{1, 4}); b != nil {
		t.Fatal("expected the capped batch to fail")
	}
	spec.ZeroOne = true
	if b := kerneltest.CompareBatches(t, spec, []int{1, 4}); b != nil {
		t.Fatal("expected the capped zeroone batch to fail")
	}
}

// TestBatchThresholdFallsBackOnDuplicates pins the permutation class's
// never-error contract on grids the threshold oracle rejects: a custom
// Gen producing non-permutations must still yield identical batches
// under both executors (the span kernel falls back to the general loop
// per trial).
func TestBatchThresholdFallsBackOnDuplicates(t *testing.T) {
	spec := mcbatch.Spec{
		Algorithm: core.SnakeA, Rows: 6, Cols: 6, Trials: 16, Seed: 11,
		Gen: func(src rng.Source, trial int) *grid.Grid {
			return workload.FewDistinct(src, 6, 6, 4)
		},
	}
	if b := kerneltest.CompareBatches(t, spec, []int{1, 4}); b == nil {
		t.Fatal("duplicate-valued batch failed")
	}
	// These grids really are outside the permutation class: the threshold
	// oracle rejects them.
	g := workload.FewDistinct(rng.New(3), 6, 6, 4)
	ss, err := zeroone.CachedSliced("snake-a", 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := zeroone.SortThresholds(g, ss, 0); !errors.Is(err, zeroone.ErrNotPermutation) {
		t.Fatalf("SortThresholds on duplicates = %v, want ErrNotPermutation", err)
	}
}
