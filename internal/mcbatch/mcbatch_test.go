package mcbatch

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/workload"
)

// TestDeterminismAcrossWorkerCounts is the batched driver's core
// guarantee: per-trial step counts AND the aggregated moments are
// bit-identical for Workers=1 and Workers=8 under the same master seed.
func TestDeterminismAcrossWorkerCounts(t *testing.T) {
	specs := []Spec{
		{Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 40, Seed: 11},
		{Algorithm: core.RowMajorRowFirst, Rows: 8, Cols: 8, Trials: 40, Seed: 11},
		{Algorithm: core.Shearsort, Rows: 6, Cols: 10, Trials: 25, Seed: 3},
		{
			Algorithm: core.SnakeB, Rows: 8, Cols: 8, Trials: 40, Seed: 11, ZeroOne: true,
			Gen: func(src rng.Source, _ int) *grid.Grid {
				return workload.HalfZeroOne(src, 8, 8)
			},
		},
	}
	for _, spec := range specs {
		spec := spec
		t.Run(fmt.Sprintf("%s-%dx%d-zeroone=%v", spec.Algorithm.ShortName(), spec.Rows, spec.Cols, spec.ZeroOne), func(t *testing.T) {
			spec.Workers = 1
			one, err := RunCtx(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			spec.Workers = 8
			eight, err := RunCtx(context.Background(), spec)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(one.Trials, eight.Trials) {
				t.Fatalf("per-trial results differ between Workers=1 and Workers=8:\n%v\nvs\n%v",
					one.Trials, eight.Trials)
			}
			// The Welford fold happens in trial order, so the float
			// aggregate must be exactly equal, not merely close.
			if one.Steps != eight.Steps {
				t.Fatalf("aggregate moments differ: %+v vs %+v", one.Steps, eight.Steps)
			}
		})
	}
}

// TestMatchesLegacyPerTrialLoop locks the seeding scheme: the batch must
// reproduce exactly what the historical sequential per-trial loop
// produced (stream = side<<20 | alg<<16 | trial), because the recorded
// EXPERIMENTS.md tables were generated with it.
func TestMatchesLegacyPerTrialLoop(t *testing.T) {
	const side, trials, seed = 8, 12, 5
	alg := core.SnakeA
	want := make([]int, trials)
	for i := 0; i < trials; i++ {
		src := rng.NewStream(seed, uint64(side)<<20|uint64(alg)<<16|uint64(i))
		g := workload.RandomPermutation(src, side, side)
		res, err := core.Sort(g, alg, core.Options{})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = res.Steps
	}
	b, err := RunCtx(context.Background(), Spec{Algorithm: alg, Rows: side, Cols: side, Trials: trials, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	if got := b.StepCounts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("batched steps %v != legacy loop steps %v", got, want)
	}
}

// TestZeroOnePathMatchesScalarPath runs the same 0-1 batch through the
// scalar engine and the trial-sliced kernel (the ZeroOne default):
// identical trials either way.
func TestZeroOnePathMatchesScalarPath(t *testing.T) {
	spec := Spec{
		Algorithm: core.RowMajorColFirst, Rows: 10, Cols: 10, Trials: 30, Seed: 9,
		Gen: func(src rng.Source, _ int) *grid.Grid {
			return workload.HalfZeroOne(src, 10, 10)
		},
	}
	scalar, err := RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.ZeroOne = true
	sliced, err := RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(scalar.Trials, sliced.Trials) {
		t.Fatalf("scalar trials %v != sliced trials %v", scalar.Trials, sliced.Trials)
	}
	if scalar.Steps != sliced.Steps {
		t.Fatalf("aggregates differ: %+v vs %+v", scalar.Steps, sliced.Steps)
	}
}

// TestZeroOneDefaultGen pins the canonical ZeroOne workload: a nil Gen
// must draw exactly what an explicit workload.HalfZeroOne generator draws
// (the wire-level contract the daemon's cache key relies on).
func TestZeroOneDefaultGen(t *testing.T) {
	spec := Spec{
		Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 70, Seed: 21, ZeroOne: true,
	}
	implicit, err := RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Gen = func(src rng.Source, _ int) *grid.Grid {
		return workload.HalfZeroOne(src, 8, 8)
	}
	explicit, err := RunCtx(context.Background(), spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(implicit.Trials, explicit.Trials) {
		t.Fatalf("nil-Gen trials differ from explicit HalfZeroOne trials")
	}
}

// TestZeroOneStepLimitError pins the failure contract of the sliced path:
// the reported error is the scalar path's, for the smallest failing trial
// index, under any worker count.
func TestZeroOneStepLimitError(t *testing.T) {
	spec := Spec{
		Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 150, Seed: 5, ZeroOne: true,
		MaxSteps: 2,
	}
	spec.Kernel = core.KernelGeneric
	_, wantErr := RunCtx(context.Background(), spec)
	if wantErr == nil {
		t.Fatal("MaxSteps=2 batch unexpectedly sorted")
	}
	for _, workers := range []int{1, 8} {
		spec.Kernel = core.KernelSliced
		spec.Workers = workers
		_, err := RunCtx(context.Background(), spec)
		if err == nil {
			t.Fatal("sliced path missed the step limit")
		}
		if err.Error() != wantErr.Error() {
			t.Fatalf("workers=%d: sliced error %q != scalar error %q", workers, err, wantErr)
		}
	}
}

func TestAggregateMatchesSample(t *testing.T) {
	b, err := RunCtx(context.Background(), Spec{Algorithm: core.SnakeC, Rows: 8, Cols: 8, Trials: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if b.Steps.N() != 50 {
		t.Fatalf("aggregate N = %d", b.Steps.N())
	}
	sum := 0
	for _, s := range b.StepCounts() {
		sum += s
	}
	mean := float64(sum) / 50
	if d := b.Steps.Mean() - mean; d > 1e-9 || d < -1e-9 {
		t.Fatalf("Welford mean %v != plain mean %v", b.Steps.Mean(), mean)
	}
}

func TestMapOrderAndErrors(t *testing.T) {
	out, err := MapCtx(context.Background(), 4, 100, func(i int) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
	// The error of the smallest failing index wins, regardless of
	// completion order.
	wantErr := errors.New("trial 7 failed")
	_, err = MapCtx(context.Background(), 8, 100, func(i int) (int, error) {
		if i >= 7 {
			return 0, fmt.Errorf("trial %d failed", i)
		}
		return i, nil
	})
	if err == nil || err.Error() != wantErr.Error() {
		t.Fatalf("err = %v, want %v", err, wantErr)
	}
	// Empty and single-trial batches.
	if out, err := MapCtx(context.Background(), 4, 0, func(i int) (int, error) { return 0, nil }); err != nil || len(out) != 0 {
		t.Fatalf("empty Map: %v %v", out, err)
	}
}

func TestRunValidation(t *testing.T) {
	if _, err := RunCtx(context.Background(), Spec{Algorithm: core.SnakeA, Rows: 0, Cols: 4, Trials: 1}); err == nil {
		t.Fatal("invalid mesh accepted")
	}
	if _, err := RunCtx(context.Background(), Spec{Algorithm: core.SnakeA, Rows: 4, Cols: 4, Trials: -1}); err == nil {
		t.Fatal("negative trials accepted")
	}
	// A Gen producing the wrong shape must fail loudly, not corrupt.
	_, err := RunCtx(context.Background(), Spec{
		Algorithm: core.SnakeA, Rows: 4, Cols: 4, Trials: 1,
		Gen: func(src rng.Source, _ int) *grid.Grid { return grid.New(2, 2) },
	})
	if err == nil {
		t.Fatal("mis-shaped Gen accepted")
	}
}

// TestRunRejectsOddColumnRowMajor: a row-major spec with an odd column
// count returns an error from every entry class instead of panicking in
// the schedule constructor on a worker goroutine.
func TestRunRejectsOddColumnRowMajor(t *testing.T) {
	for _, zeroOne := range []bool{false, true} {
		spec := Spec{Algorithm: core.RowMajorRowFirst, Rows: 15, Cols: 15, Trials: 4, ZeroOne: zeroOne}
		if _, err := RunCtx(context.Background(), spec); err == nil {
			t.Fatalf("zeroone=%v: rm-rf 15x15 accepted", zeroOne)
		}
	}
	if _, err := RunCtx(context.Background(), Spec{Algorithm: core.SnakeA, Rows: 15, Cols: 15, Trials: 4}); err != nil {
		t.Fatalf("snake-a 15x15: %v", err)
	}
}

// TestAutoKernelNeverShards pins the executor each batch reports. With
// no pin a permutation batch runs the serial span kernel (no batch
// reaches the sharded executor) and a ZeroOne batch the trial-sliced
// kernel; a KernelGeneric pin runs the engine's general loop for either
// class, and every other value runs the class's kernel, never an error.
func TestAutoKernelNeverShards(t *testing.T) {
	for _, tc := range []struct {
		zeroOne   bool
		pin, want core.Kernel
	}{
		{false, core.KernelAuto, core.KernelSpan},
		{false, core.KernelSpanSharded, core.KernelSpan},
		{false, core.KernelSliced, core.KernelSpan},
		{false, core.KernelGeneric, core.KernelGeneric},
		{true, core.KernelAuto, core.KernelSliced},
		{true, core.KernelSpan, core.KernelSliced},
		{true, core.KernelGeneric, core.KernelGeneric},
	} {
		spec := Spec{Algorithm: core.SnakeA, Rows: 8, Cols: 8, Trials: 3, Seed: 1, ZeroOne: tc.zeroOne, Kernel: tc.pin}
		b, err := RunCtx(context.Background(), spec)
		if err != nil {
			t.Fatalf("zeroone=%v pin %s: %v", tc.zeroOne, core.KernelName(tc.pin), err)
		}
		if b.Kernel != tc.want {
			t.Errorf("zeroone=%v pin %s: batch reports %s, want %s", tc.zeroOne,
				core.KernelName(tc.pin), core.KernelName(b.Kernel), core.KernelName(tc.want))
		}
	}
}

// TestRunAllocBudget pins the batch path's allocations per trial on one
// worker. A batch of 64 permutation trials at 32×32 allocates at most six
// times per trial under the span kernel (its four per run, plus the
// batch's own per-trial and fixed costs) and at most 16 under the
// generic kernel. A ZeroOne batch of 256 trials at 32×32 and 64×64
// allocates at most 0.25 times per trial: the trial-sliced kernel's few
// allocations per 64-lane block, and no generator or grid per trial
// (-short keeps only 32×32).
func TestRunAllocBudget(t *testing.T) {
	type budget struct {
		spec     Spec
		perTrial float64
	}
	var cases []budget
	for _, alg := range []core.Algorithm{core.RowMajorRowFirst, core.SnakeA, core.Shearsort} {
		cases = append(cases,
			budget{Spec{Algorithm: alg, Rows: 32, Cols: 32, Trials: 64, Kernel: core.KernelSpan}, 6},
			budget{Spec{Algorithm: alg, Rows: 32, Cols: 32, Trials: 64, Kernel: core.KernelGeneric}, 16})
		for _, side := range []int{32, 64} {
			if side > 32 && testing.Short() {
				continue
			}
			cases = append(cases, budget{Spec{Algorithm: alg, Rows: side, Cols: side, Trials: 256,
				ZeroOne: true, Kernel: core.KernelSliced}, 0.25})
		}
	}
	for _, c := range cases {
		spec := c.spec
		spec.Seed, spec.Workers = 3, 1
		name := fmt.Sprintf("%s %dx%d %s", spec.Algorithm.ShortName(), spec.Rows, spec.Cols, core.KernelName(spec.Kernel))
		allocs := testing.AllocsPerRun(3, func() { // its first, uncounted run warms the plan caches
			if _, err := RunCtx(context.Background(), spec); err != nil {
				t.Fatal(err)
			}
		})
		perTrial := allocs / float64(spec.Trials)
		t.Logf("%s: %.3f allocs per trial", name, perTrial)
		if perTrial > c.perTrial {
			t.Errorf("%s: %.3f allocs per trial, budget %g", name, perTrial, c.perTrial)
		}
	}
}
