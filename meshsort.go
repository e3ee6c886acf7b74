// Package meshsort is a simulator and analysis toolkit for the five
// two-dimensional generalizations of the odd-even transposition ("bubble")
// sort studied in:
//
//	Serap A. Savari, "Average Case Analysis of Five Two-Dimensional Bubble
//	Sorting Algorithms", SPAA 1993.
//
// The package sorts N values on a √N×√N mesh of processors using
// synchronous compare-exchange steps and reproduces the paper's analysis:
// the Θ(N) average-case step counts, the exact expectations and variances
// of the column statistics driving the proofs, the concentration bounds,
// the worst-case constructions, and the appendix's odd-side-length variants
// — each as a runnable experiment (see internal/experiments and
// cmd/experiments).
//
// # Quick start
//
//	g := meshsort.RandomMesh(1, 16)               // 16×16 random permutation
//	res, err := meshsort.Sort(g, meshsort.SnakeA, meshsort.Options{})
//	fmt.Println(res.Steps)                         // Θ(N) on average
//
// Algorithms: RowMajorRowFirst and RowMajorColFirst sort into row-major
// order and use wrap-around wires between the first and last columns;
// SnakeA, SnakeB and SnakeC sort into snakelike order; Shearsort is the
// classical Θ(√N·log N) baseline used for comparison.
package meshsort

import (
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/experiments"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/workload"
)

// Grid is an R×C mesh of integer values (re-exported from internal/grid).
type Grid = grid.Grid

// Order identifies a target output ordering.
type Order = grid.Order

// Target orderings.
const (
	// RowMajor reads the mesh row by row, left to right.
	RowMajor = grid.RowMajor
	// Snake reads odd rows left to right and even rows right to left.
	Snake = grid.Snake
)

// Algorithm identifies one of the sorting procedures.
type Algorithm = core.Algorithm

// The five algorithms of the paper, the baseline, and the ablation.
const (
	RowMajorRowFirst       = core.RowMajorRowFirst
	RowMajorColFirst       = core.RowMajorColFirst
	SnakeA                 = core.SnakeA
	SnakeB                 = core.SnakeB
	SnakeC                 = core.SnakeC
	Shearsort              = core.Shearsort
	RowMajorRowFirstNoWrap = core.RowMajorRowFirstNoWrap
)

// Options configures a run (step cap, observer hook, completion tracker,
// kernel hints).
type Options = engine.Options

// Result reports a run's step, swap, and comparison counts.
type Result = engine.Result

// Algorithms returns the five paper algorithms in paper order.
func Algorithms() []Algorithm { return core.Algorithms() }

// AlgorithmByName resolves a short name (rm-rf, rm-cf, snake-a, snake-b,
// snake-c, shearsort, rm-rf-nowrap).
func AlgorithmByName(name string) (Algorithm, error) { return core.ByName(name) }

// Sort runs algorithm a on g in place until g reaches a.Order(), returning
// the step count.
func Sort(g *Grid, a Algorithm, opts Options) (Result, error) {
	return core.Sort(g, a, opts)
}

// StepsToSort runs a on a copy of g and returns only the step count.
func StepsToSort(g *Grid, a Algorithm) (int, error) {
	return core.StepsToSort(g, a)
}

// NewMesh returns an empty (all zero) rows×cols mesh.
func NewMesh(rows, cols int) *Grid { return grid.New(rows, cols) }

// FromValues builds a mesh from row-major values.
func FromValues(rows, cols int, vals []int) *Grid { return grid.FromValues(rows, cols, vals) }

// RandomMesh returns a side×side mesh holding a uniformly random
// permutation of 1..side², deterministically derived from seed.
func RandomMesh(seed uint64, side int) *Grid {
	return workload.RandomPermutation(rng.New(seed), side, side)
}

// RandomZeroOneMesh returns a side×side 0-1 mesh with exactly alpha zeroes,
// the paper's A^01 input model.
func RandomZeroOneMesh(seed uint64, side, alpha int) *Grid {
	return workload.RandomZeroOne(rng.New(seed), side, side, alpha)
}

// WorstCaseMesh returns the Corollary 1 adversarial 0-1 input: one all-zero
// column in a mesh of ones.
func WorstCaseMesh(side int) *Grid { return workload.AllZeroColumn(side, side, 0) }

// ExperimentConfig configures the reproduction experiments.
type ExperimentConfig = experiments.Config

// ExperimentOutcome is the result of one reproduction experiment.
type ExperimentOutcome = experiments.Outcome

// Experiments returns the full E01–E15 reproduction suite.
func Experiments() []experiments.Experiment { return experiments.All() }

// RunExperiment runs one experiment by id ("E01" … "E15").
func RunExperiment(id string, cfg ExperimentConfig) (*ExperimentOutcome, error) {
	e, err := experiments.ByID(id)
	if err != nil {
		return nil, err
	}
	return e.Run(cfg)
}
