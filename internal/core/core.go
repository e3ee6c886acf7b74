// Package core assembles the paper's contribution: the five
// two-dimensional bubble sorting algorithms (plus the shearsort baseline
// and the no-wrap ablation) behind one uniform run interface.
package core

import (
	"fmt"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/sched"
)

// Algorithm identifies one of the sorting procedures.
type Algorithm int

const (
	// RowMajorRowFirst is the paper's first algorithm: row-major order,
	// wrap-around wires, beginning with a row sort.
	RowMajorRowFirst Algorithm = iota
	// RowMajorColFirst is the paper's second algorithm: as above but
	// beginning with a column sort.
	RowMajorColFirst
	// SnakeA is the paper's first snakelike algorithm.
	SnakeA
	// SnakeB is the paper's second snakelike algorithm.
	SnakeB
	// SnakeC is the paper's third snakelike algorithm.
	SnakeC
	// Shearsort is the classical Θ(√N·log N) baseline, not from the paper.
	Shearsort
	// RowMajorRowFirstNoWrap is the ablation of RowMajorRowFirst without
	// wrap-around wires; it fails to sort some inputs by design.
	RowMajorRowFirstNoWrap

	numAlgorithms
)

// Algorithms returns the five paper algorithms in paper order.
func Algorithms() []Algorithm {
	return []Algorithm{RowMajorRowFirst, RowMajorColFirst, SnakeA, SnakeB, SnakeC}
}

// AllAlgorithms returns the paper algorithms plus the baseline.
func AllAlgorithms() []Algorithm {
	return append(Algorithms(), Shearsort)
}

// String returns the descriptive name.
func (a Algorithm) String() string {
	switch a {
	case RowMajorRowFirst:
		return "row-major (row first)"
	case RowMajorColFirst:
		return "row-major (column first)"
	case SnakeA:
		return "snakelike A"
	case SnakeB:
		return "snakelike B"
	case SnakeC:
		return "snakelike C"
	case Shearsort:
		return "shearsort (baseline)"
	case RowMajorRowFirstNoWrap:
		return "row-major, no wrap (ablation)"
	default:
		return fmt.Sprintf("Algorithm(%d)", int(a))
	}
}

// ShortName returns the schedule identifier used by the CLI tools.
func (a Algorithm) ShortName() string {
	switch a {
	case RowMajorRowFirst:
		return "rm-rf"
	case RowMajorColFirst:
		return "rm-cf"
	case SnakeA:
		return "snake-a"
	case SnakeB:
		return "snake-b"
	case SnakeC:
		return "snake-c"
	case Shearsort:
		return "shearsort"
	case RowMajorRowFirstNoWrap:
		return "rm-rf-nowrap"
	default:
		return fmt.Sprintf("alg%d", int(a))
	}
}

// ByName resolves a short name to an Algorithm.
func ByName(name string) (Algorithm, error) {
	for a := Algorithm(0); a < numAlgorithms; a++ {
		if a.ShortName() == name {
			return a, nil
		}
	}
	return 0, fmt.Errorf("core: unknown algorithm %q", name)
}

// Order returns the target ordering the algorithm sorts into.
func (a Algorithm) Order() grid.Order {
	switch a {
	case RowMajorRowFirst, RowMajorColFirst, RowMajorRowFirstNoWrap:
		return grid.RowMajor
	default:
		return grid.Snake
	}
}

// CheckMesh reports whether a can run on an R×C mesh: a known algorithm,
// both sides at least 1, and — for the row-major algorithms, whose
// wrap-around wires join column pairs — an even number of columns. Entry
// points call it so a bad request is an error, not a panic in the
// schedule constructor.
func (a Algorithm) CheckMesh(rows, cols int) error {
	if a < 0 || a >= numAlgorithms {
		return fmt.Errorf("core: unknown algorithm %d", int(a))
	}
	if rows < 1 || cols < 1 {
		return fmt.Errorf("core: invalid mesh %dx%d", rows, cols)
	}
	if a.Order() == grid.RowMajor && cols%2 != 0 {
		return fmt.Errorf("core: %s needs an even number of columns, got %d", a.ShortName(), cols)
	}
	return nil
}

// Schedule returns the compiled comparator schedule of a for an R×C mesh.
// Schedules are built once per (algorithm, rows, cols) and shared
// read-only across all subsequent calls, so per-trial Sort calls in a
// Monte-Carlo batch do not pay the construction cost again.
func (a Algorithm) Schedule(rows, cols int) sched.Schedule {
	s, err := sched.Cached(a.ShortName(), rows, cols)
	if err != nil {
		panic(err) // unreachable: every Algorithm has a schedule
	}
	return s
}

// Options re-exports the engine options.
type Options = engine.Options

// Result re-exports the engine result.
type Result = engine.Result

// Kernel re-exports the engine kernel selector, with its values, so
// harness code can pin an executor family without importing the engine.
type Kernel = engine.Kernel

const (
	KernelAuto        = engine.KernelAuto
	KernelGeneric     = engine.KernelGeneric
	KernelSpan        = engine.KernelSpan
	KernelSliced      = engine.KernelSliced
	KernelSpanSharded = engine.KernelSpanSharded
)

// KernelName returns the identifier of a kernel selector: the encoding
// used by the meshsortd JSON API (job status, /metrics, the fabric shard
// wire format).
func KernelName(k Kernel) string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelGeneric:
		return "generic"
	case KernelSpan:
		return "span"
	case KernelSliced:
		return "sliced"
	case KernelSpanSharded:
		return "span-sharded"
	default:
		return fmt.Sprintf("kernel%d", int(k))
	}
}

// Sort runs algorithm a on g in place until g is in a.Order().
func Sort(g *grid.Grid, a Algorithm, opts Options) (Result, error) {
	return engine.Run(g, a.Schedule(g.Rows(), g.Cols()), opts)
}

// StepsToSort runs a on a copy of g and returns the number of steps needed;
// g itself is left untouched.
func StepsToSort(g *grid.Grid, a Algorithm) (int, error) {
	res, err := Sort(g.Clone(), a, Options{})
	if err != nil {
		return 0, err
	}
	return res.Steps, nil
}
