package engine_test

import (
	"testing"

	"repro/internal/kerneltest"
	"repro/internal/rng"
)

// The differential executor suite lives in internal/kerneltest now: one
// shared harness runs every registered executor — reference, sequential,
// generic, span, sharded span, trial-sliced, and the threshold-sliced
// oracle — over the full schedule × shape × workload × step-cap matrix
// and demands bit-identical Results, errors, and final grids. This file
// keeps an engine-local smoke slice of that matrix so a quick
// `go test ./internal/engine` still cross-checks the kernels it owns.
func TestDifferentialSmoke(t *testing.T) {
	src := rng.New(1234)
	for _, alg := range []string{"rm-rf", "snake-a", "shearsort"} {
		for _, maxSteps := range []int{0, 3} {
			kerneltest.Compare(t, alg, 6, 6, maxSteps, kerneltest.Workloads(src, 6, 6))
		}
	}
}
