package mcbatch_test

import (
	"fmt"
	"testing"

	"repro/internal/core"
	"repro/internal/kerneltest"
	"repro/internal/mcbatch"
)

// The per-kernel agreement loops that used to accrete here — span vs
// generic, sliced vs generic, a worker-count sweep per kernel family —
// are one harness now: kerneltest.CompareBatches crosses the class's
// kernel and the engine's general loop with worker counts and requires
// byte-identical reports. This file is in the external test
// package because kerneltest imports mcbatch.
//
// Trial counts straddle the 64-trial block size (ragged lockstep tails,
// multiple blocks in flight under Workers=8), and the 9×8 mesh keeps
// the row-major schedules' even-column constraint while exceeding 64
// cells (one 64-cell block boundary of the sliced kernel).
func TestKernelWorkerMatrix(t *testing.T) {
	for _, zeroOne := range []bool{false, true} {
		for _, alg := range []core.Algorithm{core.SnakeA, core.RowMajorRowFirst, core.Shearsort} {
			for _, trials := range []int{1, 63, 200} {
				spec := mcbatch.Spec{
					Algorithm: alg, Rows: 9, Cols: 8, Trials: trials, Seed: 13,
					ZeroOne: zeroOne,
				}
				t.Run(fmt.Sprintf("%s-%d-zeroone=%v", alg.ShortName(), trials, zeroOne), func(t *testing.T) {
					if b := kerneltest.CompareBatches(t, spec, []int{1, 8}); b == nil {
						t.Fatal("batch failed")
					}
				})
			}
		}
	}
}

// TestKernelWorkerMatrixStepLimit is the failure-path cross: a cap of 2
// steps fails every trial, and the reported error — the scalar engine's,
// for the smallest failing trial index — must be identical under both
// executors and every worker count.
func TestKernelWorkerMatrixStepLimit(t *testing.T) {
	for _, zeroOne := range []bool{false, true} {
		spec := mcbatch.Spec{
			Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 150, Seed: 5,
			MaxSteps: 2, ZeroOne: zeroOne,
		}
		if b := kerneltest.CompareBatches(t, spec, []int{1, 8}); b != nil {
			t.Fatalf("zeroone=%v: MaxSteps=2 batch unexpectedly sorted", zeroOne)
		}
	}
}
