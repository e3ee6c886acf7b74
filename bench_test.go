package meshsort

import (
	"context"

	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/mcbatch"
	"repro/internal/procmesh"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// ---------------------------------------------------------------------------
// One benchmark per experiment: each iteration regenerates the experiment's
// paper-vs-measured table (quick configuration). Run a single experiment's
// harness with e.g.:
//
//	go test -bench=BenchmarkE08 -benchmem
//
// The full tables are produced by cmd/experiments and recorded in
// EXPERIMENTS.md.
// ---------------------------------------------------------------------------

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	e, err := experiments.ByID(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		out, err := e.Run(experiments.Config{Seed: uint64(i + 1), Quick: true})
		if err != nil {
			b.Fatal(err)
		}
		if !out.OK {
			b.Fatalf("%s failed: %v", id, out.Notes)
		}
	}
}

func BenchmarkE01LinearArray(b *testing.B)      { benchExperiment(b, "E01") }
func BenchmarkE02RowMajorRowFirst(b *testing.B) { benchExperiment(b, "E02") }
func BenchmarkE03RowMajorColFirst(b *testing.B) { benchExperiment(b, "E03") }
func BenchmarkE04Concentration(b *testing.B)    { benchExperiment(b, "E04") }
func BenchmarkE05LemmaZ1(b *testing.B)          { benchExperiment(b, "E05") }
func BenchmarkE06VarianceZ1(b *testing.B)       { benchExperiment(b, "E06") }
func BenchmarkE07BlockMapping(b *testing.B)     { benchExperiment(b, "E07") }
func BenchmarkE08SnakeAZ10(b *testing.B)        { benchExperiment(b, "E08") }
func BenchmarkE09SnakeAVariance(b *testing.B)   { benchExperiment(b, "E09") }
func BenchmarkE10SnakeBY10(b *testing.B)        { benchExperiment(b, "E10") }
func BenchmarkE11SnakeCSmallest(b *testing.B)   { benchExperiment(b, "E11") }
func BenchmarkE12WorstCase(b *testing.B)        { benchExperiment(b, "E12") }
func BenchmarkE13OddSide(b *testing.B)          { benchExperiment(b, "E13") }
func BenchmarkE14Baseline(b *testing.B)         { benchExperiment(b, "E14") }
func BenchmarkE15Invariants(b *testing.B)       { benchExperiment(b, "E15") }
func BenchmarkE16ExactSmallMesh(b *testing.B)   { benchExperiment(b, "E16") }
func BenchmarkE17SmallestSettle(b *testing.B)   { benchExperiment(b, "E17") }

// ---------------------------------------------------------------------------
// Core throughput: steps/sec for each algorithm on random permutations.
// ---------------------------------------------------------------------------

func benchSort(b *testing.B, alg Algorithm, side int) {
	b.Helper()
	src := rng.New(99)
	inputs := make([]*Grid, 8)
	for i := range inputs {
		inputs[i] = workload.RandomPermutation(src, side, side)
	}
	b.ResetTimer()
	totalSteps := 0
	for i := 0; i < b.N; i++ {
		g := inputs[i%len(inputs)].Clone()
		res, err := Sort(g, alg, Options{})
		if err != nil {
			b.Fatal(err)
		}
		totalSteps += res.Steps
	}
	b.ReportMetric(float64(totalSteps)/float64(b.N), "steps/sort")
}

func BenchmarkSort(b *testing.B) {
	for _, alg := range append(Algorithms(), Shearsort) {
		for _, side := range []int{16, 32, 64} {
			b.Run(fmt.Sprintf("%s/side%d", alg.ShortName(), side), func(b *testing.B) {
				benchSort(b, alg, side)
			})
		}
	}
}

// ---------------------------------------------------------------------------
// Ablation: completion detection via the O(1)-per-swap misplacement tracker
// (the engine's approach) vs a full-grid rescan after every step.
//
// Measured result (recorded in bench_output.txt): the rescan is competitive
// on random runs — IsSorted early-exits at the first inversion, which is
// O(1) in expectation while the grid is far from sorted — so the tracker's
// advantage is its worst-case guarantee (near-sorted phases, observer-driven
// runs past completion) rather than the average case.
// ---------------------------------------------------------------------------

func BenchmarkCompletionDetection(b *testing.B) {
	const side = 32
	s := sched.NewSnakeA(side, side)
	src := rng.New(5)
	input := workload.RandomPermutation(src, side, side)

	b.Run("tracker", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := input.Clone()
			if _, err := engine.Run(g, s, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("full-rescan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := input.Clone()
			sorted := false
			for t := 1; t <= engine.DefaultMaxSteps(side, side); t++ {
				engine.ApplyStep(g, s.Step(t))
				if g.IsSorted(grid.Snake) {
					sorted = true
					break
				}
			}
			if !sorted {
				b.Fatal("did not sort")
			}
		}
	})
}

// BenchmarkProcMesh compares the goroutine-per-processor execution model
// against the centralized array engine on the same workload (expect the
// channel-based model to be orders of magnitude slower; it exists for
// fidelity, not speed).
func BenchmarkProcMesh(b *testing.B) {
	const side = 8
	s := sched.NewSnakeA(side, side)
	input := workload.RandomPermutation(rng.New(3), side, side)
	b.Run("procmesh", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := input.Clone()
			if _, err := procmesh.Run(g, s, 0); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("engine", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			g := input.Clone()
			if _, err := engine.Run(g, s, engine.Options{}); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// ---------------------------------------------------------------------------
// Batched trial engine: the historical per-trial loop (rebuild the schedule
// from scratch every trial, run it single-threaded) against mcbatch.RunCtx
// (shared compiled schedule, trial-level worker pool). Same seeds, same
// trials, identical step counts either way — only the driver changes.
// ---------------------------------------------------------------------------

// legacySortTrial reproduces the pre-batching per-trial code path exactly
// as the seed shipped it (see git history of internal/engine): the
// schedule is rebuilt for every trial, each step's comparators are fetched
// through the Schedule.Step(t) interface call, and completion is tracked
// through the Tracker interface, paying a dynamic dispatch per swap.
func legacySortTrial(alg Algorithm, side int, src rng.Source) (int, error) {
	g := workload.RandomPermutation(src, side, side)
	s, err := sched.ByName(alg.ShortName(), side, side)
	if err != nil {
		return 0, err
	}
	tr := grid.Tracker(grid.NewTracker(g, s.Order()))
	if tr.Sorted() {
		return 0, nil
	}
	maxSteps := engine.DefaultMaxSteps(side, side)
	for t := 1; t <= maxSteps; t++ {
		delta := 0
		for _, cmp := range s.Step(t) {
			lo, hi := int(cmp.Lo), int(cmp.Hi)
			if g.AtFlat(lo) > g.AtFlat(hi) {
				g.SwapFlat(lo, hi)
				delta += tr.Delta(g, lo, hi)
			}
		}
		tr.Apply(delta)
		if tr.Sorted() {
			return t, nil
		}
	}
	return 0, fmt.Errorf("legacy loop: %s did not sort within %d steps", alg.ShortName(), maxSteps)
}

func BenchmarkBatchedTrials(b *testing.B) {
	const side, trials, seed = 32, 64, 7
	alg := SnakeA
	b.Run("legacy-loop", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for trial := 0; trial < trials; trial++ {
				src := rng.NewStream(seed, mcbatch.DefaultStream(alg, side)(trial))
				if _, err := legacySortTrial(alg, side, src); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trials), "ns/trial")
	})
	b.Run("mcbatch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := mcbatch.RunCtx(context.Background(), mcbatch.Spec{
				Algorithm: alg, Rows: side, Cols: side, Trials: trials, Seed: seed,
			}); err != nil {
				b.Fatal(err)
			}
		}
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*trials), "ns/trial")
	})
}

// BenchmarkStepApplication measures raw comparator throughput for one step.
func BenchmarkStepApplication(b *testing.B) {
	for _, side := range []int{64, 256} {
		b.Run(fmt.Sprintf("side%d", side), func(b *testing.B) {
			s := sched.NewSnakeA(side, side)
			g := workload.RandomPermutation(rng.New(1), side, side)
			comps := s.Step(1)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				engine.ApplyStep(g, comps)
			}
			b.SetBytes(int64(len(comps) * 8))
		})
	}
}
