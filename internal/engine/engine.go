// Package engine executes comparator schedules on a mesh, step by
// synchronous step, until the grid reaches its target order.
//
// Run has one general loop and one fast path. The general loop applies
// each step's comparators in order and keeps a completion tracker; it
// serves every run the fast path does not: observers, injected trackers,
// duplicate-valued grids such as 0-1 inputs, schedules without a span
// plan, and KernelGeneric. A permutation trial with neither an observer
// nor an injected tracker takes the span kernel (span.go), optionally
// split into row shards behind a phase barrier (shard.go). Every path
// produces bit-identical grids and counters, which the differential
// suites in internal/kerneltest prove.
package engine

import (
	"fmt"

	"repro/internal/grid"
	"repro/internal/sched"
)

// Options configures a run.
type Options struct {
	// MaxSteps caps the run; 0 uses DefaultMaxSteps of the mesh. Hitting
	// the cap without sorting returns ErrStepLimit in Result.Err.
	MaxSteps int
	// Observer, if non-nil, is called after every step with the 1-indexed
	// step number and the grid. The grid must not be modified.
	Observer func(t int, g *grid.Grid)
	// Tracker overrides the automatically chosen completion tracker.
	Tracker grid.Tracker
	// Kernel selects the fast-path executor family (see Kernel). The zero
	// value, KernelAuto, uses the span kernel whenever the schedule
	// qualifies.
	Kernel Kernel
	// Shards sets the row-shard count for KernelSpanSharded; 0 lets
	// AutoShards decide from the mesh size and the parallelism budget.
	// A pure execution hint: it can never change results.
	Shards int
	// ShardPool, if non-nil, supplies the persistent worker pool and
	// arenas KernelSpanSharded reuses across runs; nil runs build a
	// transient pool. Sharing a pool between concurrent runs is not
	// allowed — give each goroutine its own.
	ShardPool *ShardPool
}

// Result reports what a run did.
type Result struct {
	// Steps is the number of steps after which the grid first matched the
	// target order (0 for an initially sorted input).
	Steps int
	// Swaps is the total number of exchanges performed.
	Swaps int64
	// Comparisons is the total number of comparator evaluations.
	Comparisons int64
	// Sorted reports whether the grid reached target order within the cap.
	Sorted bool
}

// ErrStepLimit is returned when a run exhausts MaxSteps without sorting.
type ErrStepLimit struct {
	Algorithm string
	MaxSteps  int
	Misplaced int
}

func (e *ErrStepLimit) Error() string {
	return fmt.Sprintf("engine: %s did not sort within %d steps (%d cells misplaced)",
		e.Algorithm, e.MaxSteps, e.Misplaced)
}

// DefaultMaxSteps returns a generous cap for an R×C mesh: every algorithm
// in the paper finishes in Θ(N) steps with a small constant, and shearsort
// in Θ((R+C)·log R).
func DefaultMaxSteps(rows, cols int) int {
	n := rows * cols
	return 6*n + 16*(rows+cols) + 64
}

// Run executes schedule s on g (in place) until g reaches s.Order() or the
// step cap is hit.
func Run(g *grid.Grid, s sched.Schedule, opts Options) (Result, error) {
	r, c := s.Dims()
	if g.Rows() != r || g.Cols() != c {
		return Result{}, fmt.Errorf("engine: grid is %dx%d but schedule %s was built for %dx%d",
			g.Rows(), g.Cols(), s.Name(), r, c)
	}
	maxSteps := opts.MaxSteps
	if maxSteps == 0 {
		maxSteps = DefaultMaxSteps(r, c)
	}

	// Monte-Carlo fast path: a permutation trial with no observer and no
	// injected tracker runs the span kernel, which needs no tracker at all.
	if opts.Observer == nil && opts.Tracker == nil && opts.Kernel != KernelGeneric {
		if minVal, ok := permutationMin(g); ok {
			if plan := spanPlanFor(s, g); plan != nil {
				if opts.Kernel == KernelSpanSharded {
					if shards := resolveShards(opts, r, c); shards > 1 {
						return runDistinctSpansSharded(g, plan, maxSteps, minVal, shards, opts.ShardPool)
					}
				}
				return runDistinctSpans(g, plan, maxSteps, minVal)
			}
		}
	}

	tr := opts.Tracker
	if tr == nil {
		tr = grid.NewTracker(g, s.Order())
	}
	var res Result
	if tr.Sorted() && opts.Observer == nil {
		res.Sorted = true
		return res, nil
	}

	// Materialize one full period of comparator slices up front (a no-op
	// for schedules that already hold their phases, and a shared cache hit
	// for sched.Compiled/sched.Cached schedules). The step loop then does
	// an indexed lookup instead of an interface call per step.
	phases := sched.PhasesOf(s)
	period := len(phases)

	sortedAt := -1
	if tr.Sorted() {
		// Already sorted, but an observer is attached (the no-observer
		// case returned above): run one period so instrumentation sees a
		// full cycle, bounded by the configured cap.
		sortedAt = 0
		if period < maxSteps {
			maxSteps = period
		}
	}
	pi := 0
	for t := 1; t <= maxSteps; t++ {
		comps := phases[pi]
		if pi++; pi == period {
			pi = 0
		}
		swaps, delta := runStepSeq(g, comps, tr)
		tr.Apply(delta)
		res.Swaps += int64(swaps)
		res.Comparisons += int64(len(comps))
		if opts.Observer != nil {
			opts.Observer(t, g)
		}
		if sortedAt < 0 && tr.Sorted() {
			sortedAt = t
			if opts.Observer == nil {
				break
			}
			// With an observer attached, keep running to the end of the
			// current period so instrumentation sees complete cycles, then
			// stop — without ever exceeding the configured cap.
			rem := (period - t%period) % period
			if t+rem < maxSteps {
				maxSteps = t + rem
			}
		}
	}
	if sortedAt >= 0 {
		res.Steps = sortedAt
		res.Sorted = true
		return res, nil
	}
	return res, &ErrStepLimit{Algorithm: s.Name(), MaxSteps: maxSteps, Misplaced: tr.Misplaced()}
}

// ApplyStep applies one step's comparators to g in place (sequentially)
// and returns the number of exchanges performed. It is the single-step
// building block used by the instrumentation and lemma-checking code.
//
//meshlint:exempt oblivious compare-exchange primitive: the value comparison is the comparator itself
func ApplyStep(g *grid.Grid, comps []sched.Comparator) (swaps int) {
	for _, cmp := range comps {
		lo, hi := int(cmp.Lo), int(cmp.Hi)
		if g.AtFlat(lo) > g.AtFlat(hi) {
			g.SwapFlat(lo, hi)
			swaps++
		}
	}
	return swaps
}

// runStepSeq applies one step's comparators sequentially, returning the
// number of swaps and the accumulated tracker delta. The concrete tracker
// types get dedicated loops so their Delta methods inline into the
// comparator scan; the generic loop pays an interface dispatch per swap,
// which profiles as over a third of a Monte-Carlo trial's runtime.
//
//meshlint:exempt oblivious compare-exchange primitive: the value comparison is the comparator itself
func runStepSeq(g *grid.Grid, comps []sched.Comparator, tr grid.Tracker) (swaps, delta int) {
	switch t := tr.(type) {
	case *grid.DistinctTracker:
		return runStepDistinct(g, comps, t)
	case *grid.ZeroOneTracker:
		return runStepZeroOne(g, comps, t)
	}
	for _, cmp := range comps {
		lo, hi := int(cmp.Lo), int(cmp.Hi)
		if g.AtFlat(lo) > g.AtFlat(hi) {
			g.SwapFlat(lo, hi)
			swaps++
			delta += tr.Delta(g, lo, hi)
		}
	}
	return swaps, delta
}

// runStepDistinct fuses the comparator scan with the distinct tracker's
// delta arithmetic: the values read for the comparison are reused for the
// home-table lookups (Delta would re-load both cells), and the cell and
// home slices are hoisted out of the loop.
//
//meshlint:exempt oblivious compare-exchange primitive fused with tracker delta arithmetic
//meshlint:hot
func runStepDistinct(g *grid.Grid, comps []sched.Comparator, t *grid.DistinctTracker) (swaps, delta int) {
	cells := g.Cells()
	home, min := t.Home()
	for _, cmp := range comps {
		lo, hi := int(cmp.Lo), int(cmp.Hi)
		a, b := cells[lo], cells[hi]
		if a > b {
			cells[lo], cells[hi] = b, a
			swaps++
			// After the swap b sits at lo and a at hi; mirror
			// DistinctTracker.Delta on the values already in hand.
			ha, hb := home[a-min], home[b-min]
			if ha != lo {
				delta--
			}
			if hb != hi {
				delta--
			}
			if hb != lo {
				delta++
			}
			if ha != hi {
				delta++
			}
		}
	}
	return swaps, delta
}

// runStepZeroOne is the same fusion for 0-1 grids: a swap always moves a 1
// from lo to hi, so the measure changes only when exactly one endpoint is
// in the zero region.
//
//meshlint:exempt oblivious compare-exchange primitive fused with tracker delta arithmetic
//meshlint:hot
func runStepZeroOne(g *grid.Grid, comps []sched.Comparator, t *grid.ZeroOneTracker) (swaps, delta int) {
	cells := g.Cells()
	region := t.ZeroRegion()
	for _, cmp := range comps {
		lo, hi := int(cmp.Lo), int(cmp.Hi)
		a, b := cells[lo], cells[hi]
		if a > b {
			cells[lo], cells[hi] = b, a
			swaps++
			if region[lo] != region[hi] {
				if region[hi] {
					delta++
				} else {
					delta--
				}
			}
		}
	}
	return swaps, delta
}
