package kerneltest_test

import (
	"context"
	"fmt"
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/kerneltest"
	"repro/internal/mcbatch"
	"repro/internal/rng"
	"repro/internal/workload"
)

// inversions counts the pairs of g's cells that stand in the wrong order
// along order's ranks: for a 0-1 grid, the (1, 0) pairs.
func inversions(g *grid.Grid, order grid.Order) int64 {
	vals := make([]int, g.Len())
	for m := range vals {
		vals[m] = g.Cells()[g.RankFlat(order, m)]
	}
	var inv int64
	for i, a := range vals {
		for _, b := range vals[i+1:] {
			if a > b {
				inv++
			}
		}
	}
	return inv
}

// TestSwapsMatchInversions is the analytic oracle for the swaps column.
// On a 1×N mesh every comparator joins two cells adjacent in the target
// order, so each swap removes exactly one inversion and a sorted trial's
// swaps equal its input's inversion count. Every algorithm runs at 1×8
// and 1×64 under every batch kernel of both input classes, and each
// trial's input is regenerated from its stream. On one row every pair has
// weight 0 under the trial-sliced kernel's potential, so its 0-1 swaps
// come from Φ alone. The permutation batch at 1×64 must also match
// Kendall's moments of the inversion count of a uniform permutation:
// E = N(N−1)/4 within 4 standard errors, Var = N(N−1)(2N+5)/72 within 10%.
func TestSwapsMatchInversions(t *testing.T) {
	for _, alg := range append(core.AllAlgorithms(), core.RowMajorRowFirstNoWrap) {
		for _, cols := range []int{8, 64} {
			for _, zeroOne := range []bool{false, true} {
				trials := 256
				if cols == 64 && !zeroOne {
					trials = 4096
				}
				spec := mcbatch.Spec{Algorithm: alg, Rows: 1, Cols: cols, Trials: trials, Seed: 7, ZeroOne: zeroOne}
				want := make([]int64, trials)
				stream := mcbatch.DefaultStream(alg, 1)
				for i := range want {
					src := rng.NewStream(mcbatch.CanonicalSeed(spec.Seed), stream(i))
					var g *grid.Grid
					if zeroOne {
						g = workload.HalfZeroOne(src, 1, cols)
					} else {
						g = workload.RandomPermutation(src, 1, cols)
					}
					want[i] = inversions(g, alg.Order())
				}
				for _, k := range kerneltest.BatchKernels() {
					spec.Kernel = k
					label := fmt.Sprintf("%s 1x%d zeroone=%v kernel=%s", alg.ShortName(), cols, zeroOne, core.KernelName(k))
					b, err := mcbatch.RunCtx(context.Background(), spec)
					if err != nil {
						t.Fatalf("%s: %v", label, err)
					}
					for i, tr := range b.Trials {
						if tr.Swaps != want[i] {
							t.Fatalf("%s trial %d: swaps %d, input has %d inversions", label, i, tr.Swaps, want[i])
						}
					}
				}
				if cols == 64 && !zeroOne {
					checkKendall(t, alg.ShortName(), cols, want)
				}
			}
		}
	}
}

// checkKendall compares the sample moments of the inversion counts of
// uniform permutations of n items with Kendall's exact ones.
func checkKendall(t *testing.T, label string, n int, inv []int64) {
	t.Helper()
	var sum, sumSq float64
	for _, v := range inv {
		sum += float64(v)
		sumSq += float64(v) * float64(v)
	}
	k := float64(len(inv))
	mean := sum / k
	variance := (sumSq - sum*sum/k) / (k - 1)
	nf := float64(n)
	wantMean := nf * (nf - 1) / 4
	wantVar := nf * (nf - 1) * (2*nf + 5) / 72
	if se := math.Sqrt(wantVar / k); math.Abs(mean-wantMean) > 4*se {
		t.Errorf("%s 1x%d: swaps mean %.2f, Kendall %.2f (4 SE = %.2f)", label, n, mean, wantMean, 4*se)
	}
	if math.Abs(variance-wantVar) > 0.1*wantVar {
		t.Errorf("%s 1x%d: swaps variance %.1f, Kendall %.1f", label, n, variance, wantVar)
	}
}
