// Microbenchmarks pitting the span kernel against the generic comparator
// path on identical permutation trials. These isolate engine.Run; the
// root BenchmarkBatchedTrials times the historical per-trial loop, and
// bench/ (`bash bench/run.sh --trace 1`) reports the kernel's ns per
// comparator on the served path. Run with a high -benchtime and -count
// and compare minima — shared hosts are noisy.
package engine_test

import (
	"testing"

	"repro/internal/engine"
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
