package kerneltest

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/sched"
	"repro/internal/zeroone"
)

// TestExhaustiveTinyPermutations runs every permutation of every mesh of
// at most eight cells (six under -short), under every algorithm that
// accepts the shape, through the serial and the two-shard span kernels,
// and requires each Result, error and final grid to equal RefRun's. These
// are the shapes where the span plan's bands degenerate: one row, one
// column, odd row counts, and rows shorter than a word.
func TestExhaustiveTinyPermutations(t *testing.T) {
	maxCells := 8
	if testing.Short() {
		maxCells = 6
	}
	for rows := 1; rows <= maxCells; rows++ {
		for cols := 1; rows*cols <= maxCells; cols++ {
			for _, alg := range sched.Names() {
				if strings.HasPrefix(alg, "rm-") && cols%2 != 0 {
					continue // the row-major schedules need even columns
				}
				rows, cols, alg := rows, cols, alg
				t.Run(fmt.Sprintf("%s/%dx%d", alg, rows, cols), func(t *testing.T) {
					t.Parallel()
					exhaust(t, alg, rows, cols, 1)
				})
			}
		}
	}
}

// TestExhaustive3x3Permutations runs all 9! permutations of the 3×3 mesh
// under the snakes and shearsort (the row-major schedules need even
// columns) through the serial span kernel, and every fourth of them
// through the two-shard span kernel, against RefRun. It also pins each
// algorithm's exact total of steps over the 9! permutations, which is 9!
// times the exact mean step count of a uniformly random permutation.
// The two-shard kernel hands every phase to another goroutine, which
// costs about ten times a serial run at this size; running it on all 9!
// inputs would take about 15 s on two vCPUs.
func TestExhaustive3x3Permutations(t *testing.T) {
	if testing.Short() {
		t.Skip("9! permutations per algorithm skipped in -short mode")
	}
	for _, tc := range []struct {
		alg   string
		steps int64
	}{
		{"snake-a", 4_029_359}, // mean 11.104, as EXPERIMENTS.md E16 records
		{"snake-b", 4_499_191}, // 12.399
		{"snake-c", 4_870_807}, // 13.423
		{"shearsort", 4_234_175},
	} {
		tc := tc
		t.Run(tc.alg, func(t *testing.T) {
			t.Parallel()
			if got := exhaust(t, tc.alg, 3, 3, 4); got != tc.steps {
				t.Errorf("%s 3x3: %d steps over 9! permutations, want %d", tc.alg, got, tc.steps)
			}
		})
	}
}

// exhaust enumerates every permutation of 1..rows·cols (Heap's
// algorithm), compares the serial span kernel with RefRun on each and the
// two-shard span kernel on every shardEvery-th, stops at the first
// mismatch, and returns the total of RefRun's step counts.
func exhaust(t *testing.T, alg string, rows, cols, shardEvery int) int64 {
	t.Helper()
	s, err := sched.Cached(alg, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	pool := engine.NewShardPool(2)
	defer pool.Close()
	executors := []struct {
		name string
		opts engine.Options
	}{
		{"span", engine.Options{Kernel: engine.KernelSpan}},
		{"span-sharded-2", engine.Options{Kernel: engine.KernelSpanSharded, Shards: 2, ShardPool: pool}},
	}
	n := rows * cols
	vals := make([]int, n)
	for i := range vals {
		vals[i] = i + 1
	}
	ref, got := grid.New(rows, cols), grid.New(rows, cols)
	var total int64
	perm := 0
	check := func() bool {
		copy(ref.Cells(), vals)
		want, wantErr := RefRun(ref, s, 0)
		total += int64(want.Steps)
		run := executors
		if perm%shardEvery != 0 {
			run = executors[:1]
		}
		perm++
		for _, ex := range run {
			copy(got.Cells(), vals)
			res, err := engine.Run(got, s, ex.opts)
			if msg := diffErrors(wantErr, err); msg != "" || res != want || !got.Equal(ref) {
				t.Errorf("%s %dx%d input %v [%s]: %+v/%v, reference %+v/%v (grids equal: %v)",
					alg, rows, cols, vals, ex.name, res, err, want, wantErr, got.Equal(ref))
				return false
			}
		}
		return true
	}
	if !check() {
		return total
	}
	c := make([]int, n) // Heap's algorithm, iterative
	for i := 0; i < n; {
		if c[i] < i {
			j := 0
			if i%2 != 0 {
				j = c[i]
			}
			vals[j], vals[i] = vals[i], vals[j]
			if !check() {
				return total
			}
			c[i]++
			i = 0
		} else {
			c[i] = 0
			i++
		}
	}
	return total
}

// TestExhaustive4x4ZeroOne runs all 2^16 0-1 inputs of the 4×4 mesh, as
// 1,024 batches of 64 lanes, through the trial-sliced kernel under each
// of the six schedules, and requires every lane's Result, error and final
// grid to equal RefRun's. Each schedule's largest step count must be its
// exact 4×4 worst case as EXPERIMENTS.md E16 records it. E16 reaches
// those numbers through sortnet.ExactWorstCaseSteps, one grid at a time
// on the engine's general loop, so the two routes share no executor.
func TestExhaustive4x4ZeroOne(t *testing.T) {
	exhaustive4x4ZeroOne(t, 64)
}

// TestExhaustive4x4ZeroOneOneLane runs the same 2^16 inputs one lane per
// batch. In a 64-lane batch the early swaps of a lane's neighbours mark
// the change-tracking blocks it needs, which can hide a skip rule that
// drops a run it should have executed; alone, a lane depends on its own
// marks only.
func TestExhaustive4x4ZeroOneOneLane(t *testing.T) {
	exhaustive4x4ZeroOne(t, 1)
}

// exhaustive4x4ZeroOne checks every 4×4 0-1 input against RefRun, in
// batches of lanes consecutive inputs, and each schedule's worst case
// against E16.
func exhaustive4x4ZeroOne(t *testing.T, lanes int) {
	const rows, cols, n = 4, 4, 16
	for _, tc := range []struct {
		alg   string
		worst int
	}{
		{"rm-rf", 23}, {"rm-cf", 24}, {"snake-a", 27}, {"snake-b", 29}, {"snake-c", 29}, {"shearsort", 18},
	} {
		tc := tc
		t.Run(tc.alg, func(t *testing.T) {
			t.Parallel()
			s, err := sched.Cached(tc.alg, rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := zeroone.CachedSliced(tc.alg, rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			ts := zeroone.NewTrialSlice(rows, cols)
			in, ref, out := grid.New(rows, cols), grid.New(rows, cols), grid.New(rows, cols)
			fill := func(g *grid.Grid, mask int) {
				for f := range g.Cells() {
					g.Cells()[f] = mask >> f & 1
				}
			}
			worst := 0
			for lo := 0; lo < 1<<n; lo += lanes {
				ts.Reset()
				for mask := lo; mask < lo+lanes; mask++ {
					fill(in, mask)
					ts.AddGrid(in)
				}
				results, errs, err := zeroone.SortSliced(ts, ss, 0)
				if err != nil {
					t.Fatal(err)
				}
				for k := range results {
					fill(ref, lo+k)
					want, wantErr := RefRun(ref, s, 0)
					var laneErr error
					if errs != nil {
						laneErr = errs[k]
					}
					ts.ExtractInto(k, out)
					if msg := diffErrors(wantErr, laneErr); msg != "" || results[k] != want || !out.Equal(ref) {
						t.Fatalf("%s 4x4 input %#x, %d lanes per batch: %+v/%v, reference %+v/%v (grids equal: %v)",
							tc.alg, lo+k, lanes, results[k], laneErr, want, wantErr, out.Equal(ref))
					}
					worst = max(worst, want.Steps)
				}
			}
			if worst != tc.worst {
				t.Errorf("%s 4x4: worst case %d steps over all 0-1 inputs, E16 pins %d", tc.alg, worst, tc.worst)
			}
		})
	}
}
