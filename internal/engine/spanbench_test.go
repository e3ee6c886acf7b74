// Microbenchmarks of the span kernel: against the generic comparator
// path on identical permutation trials, and alone on the repository
// benchmark's permutation mix (BenchmarkSortSpan). These isolate
// engine.Run; the root BenchmarkBatchedTrials times the historical
// per-trial loop, and bench/ (`bash bench/run.sh --trace 1`) reports the
// kernel's ns per comparator on the served path. Run with a high
// -benchtime and -count and compare minima — shared hosts are noisy.
package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

func benchKernel(b *testing.B, side int, k engine.Kernel) {
	s, err := sched.Cached("snake-a", side, side)
	if err != nil {
		b.Fatal(err)
	}
	src := rng.New(7)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := workload.RandomPermutation(src, side, side)
		b.StartTimer()
		if _, err := engine.Run(g, s, engine.Options{Kernel: k}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkKernelGeneric32(b *testing.B) { benchKernel(b, 32, engine.KernelGeneric) }
func BenchmarkKernelSpan32(b *testing.B)    { benchKernel(b, 32, engine.KernelSpan) }
func BenchmarkKernelGeneric64(b *testing.B) { benchKernel(b, 64, engine.KernelGeneric) }
func BenchmarkKernelSpan64(b *testing.B)    { benchKernel(b, 64, engine.KernelSpan) }

// spanComparisons keeps the benchmarked runs' results live.
var spanComparisons int64

// BenchmarkSortSpan times the span kernel alone on the repository
// benchmark's perm-cold mix: the six served schedules at sides 16, 32
// and 48, one uniform random permutation trial per op through
// engine.Run's default path. Sixteen permutations per side are drawn
// before the timer; each op copies the next one into the grid (N word
// stores, against the Θ(N²) comparisons of the sort) and sorts it. Besides
// ns/op it reports ns per comparator (Result.Comparisons, settled pairs
// included), the unit of bench/'s engine.span_ns_per_comparator.
//
// For a before/after comparison build both trees' test binaries once and
// alternate them, each from its package directory, so that both sides see
// the same host load:
//
//	go test -c -o /tmp/span.new ./internal/engine/   # and /tmp/span.old from the parent tree
//	for i in 1 2 3 4 5; do
//	    /tmp/span.old -test.run '^$' -test.bench SortSpan -test.count 1 -test.timeout 30m
//	    /tmp/span.new -test.run '^$' -test.bench SortSpan -test.count 1 -test.timeout 30m
//	done
//
// Run with: go test -run '^$' -bench SortSpan ./internal/engine/
func BenchmarkSortSpan(b *testing.B) {
	const perSide = 16
	for _, side := range []int{16, 32, 48} {
		inputs := make([]*grid.Grid, perSide)
		for k := range inputs {
			inputs[k] = workload.RandomPermutation(rng.NewStream(1, uint64(side)<<8|uint64(k)), side, side)
		}
		g := grid.New(side, side)
		for _, name := range sched.Names() {
			s, err := sched.Cached(name, side, side)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/side=%d", name, side), func(b *testing.B) {
				var comparisons int64
				for i := 0; i < b.N; i++ {
					copy(g.Cells(), inputs[i%perSide].Cells())
					res, err := engine.Run(g, s, engine.Options{})
					if err != nil {
						b.Fatal(err)
					}
					comparisons += res.Comparisons
				}
				spanComparisons = comparisons
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(comparisons), "ns/comparator")
			})
		}
	}
}
