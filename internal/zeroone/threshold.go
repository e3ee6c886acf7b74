package zeroone

import (
	"errors"
	"math/bits"

	"repro/internal/engine"
	"repro/internal/grid"
)

// The threshold-sliced kernel runs a *permutation* trial through the 0-1
// machinery of this package. By the threshold decomposition theorem
// (internal/sortnet, docs/THEORY.md), compare-exchange commutes with
// monotone projection, so the permutation's trajectory determines every
// projection's trajectory and vice versa:
//
//   - cell f of projection k at step t is [val_t(f) > k], so at any time
//     the 64 projections of one chunk form a "staircase" word per cell —
//     a prefix-of-ones mask of length clamp(val−base, 0, 64);
//   - the permutation is sorted at step t iff every projection is, hence
//     Steps = max over projections of the projection's last-swap step;
//   - a permutation swap of values a > b swaps exactly the projections
//     k ∈ [b, a−1], a contiguous run of lanes with its single low
//     boundary at lane b−base, so counting run starts recovers the
//     permutation's swap count exactly.
//
// An R×C permutation has N−1 = R·C−1 nontrivial projections, so meshes
// beyond 64 cells run ⌈(N−1)/63⌉ chunks whose bases advance by 63: lane 0
// of chunk c repeats lane 63 of chunk c−1 as a sentinel, which makes the
// boundary count exact across chunk seams (a run continuing from the
// previous chunk swaps the sentinel too and is not re-counted) and is
// masked out of the final popcount reconstruction. Each comparator then
// costs Θ(N/64) words instead of Θ(1) scalar compares — the decomposition
// performs Σ(a−b) ≈ N³/12 slice swaps for N²/12-ish permutation swaps —
// so this kernel is a test-only oracle, not a served executor: the
// differential suites use it to cross-check the span kernel bit for bit
// through the 0-1 principle (and it runs sortnet.StepsViaThresholds-
// style decomposition sweeps ~64x faster than one scalar run per
// projection). See DESIGN.md §11.

// ErrNotPermutation reports that a grid handed to SortThresholds does not
// hold each value 1..N exactly once.
var ErrNotPermutation = errors.New("zeroone: grid is not a permutation of 1..N")

// LoadThresholds fills all 64 lanes of ts with consecutive 0-1 threshold
// projections of g: bit l of words[f] is [g value at f > base+l], i.e.
// lane l holds g.Threshold(base+l) for l in 0..63. Unlike AddGrid this
// overwrites every lane, so no Reset is needed between loads.
//
//meshlint:exempt oblivious building the threshold staircases reads every cell once by definition; no comparator depends on the values
//meshlint:hot
func (ts *TrialSlice) LoadThresholds(g *grid.Grid, base int) {
	if g.Rows() != ts.rows || g.Cols() != ts.cols {
		panic("zeroone: LoadThresholds grid does not match trial-slice dimensions")
	}
	w := ts.words
	for f, v := range g.Cells() {
		c := v - base
		switch {
		case c <= 0:
			w[f] = 0
		case c >= 64:
			w[f] = ^uint64(0)
		default:
			w[f] = 1<<uint(c) - 1
		}
	}
	ts.lanes = 64
}

// SortThresholds sorts the permutation grid g in place under schedule ss
// by running all of g's 0-1 threshold projections through the lockstep
// executor, 64 projections per chunk, and reassembling the permutation's
// Result from the slices. The returned Result, error, and final grid are
// bit-identical to engine.Run on g — including the ErrStepLimit fields
// when maxSteps (0 = engine default) cuts the run short, in which case g
// is left in the exact partial state the scalar engine would leave.
//
// g must hold each value 1..N exactly once; otherwise SortThresholds
// returns ErrNotPermutation with g untouched.
//
//meshlint:exempt oblivious permutation validation, chunk bookkeeping, and popcount reconstruction read cell values; the comparator network itself is SortSliced's and stays oblivious — exactness is proven by the differential suites
func SortThresholds(g *grid.Grid, ss *SlicedSchedule, maxSteps int) (engine.Result, error) {
	if g.Rows() != ss.rows || g.Cols() != ss.cols {
		return engine.Result{}, errors.New("zeroone: grid does not match the sliced schedule's dimensions")
	}
	if maxSteps == 0 {
		maxSteps = engine.DefaultMaxSteps(ss.rows, ss.cols)
	}
	cells := g.Cells()
	n := len(cells)
	// Allocate every buffer here: the chunk loop is the allocation-free
	// hot region. The per-cell popcount accumulators reconstruct the final
	// grid; blockMax is the executor's change tracking.
	ts := NewTrialSlice(ss.rows, ss.cols)
	counts := make([]int32, n)
	blockMax := make([]int32, (n-1)>>blockShift+1)

	// Validate 1..N-ness with the counts array doubling as a seen table;
	// the grid is untouched until validation passes.
	for _, v := range cells {
		if v < 1 || v > n || counts[v-1] != 0 {
			return engine.Result{}, ErrNotPermutation
		}
		counts[v-1] = 1
	}
	clear(counts)

	var res engine.Result
	var lastAny int32
	failed := false
	w := ts.words
	for chunk, base := 0, 0; ; chunk, base = chunk+1, base+63 {
		ts.LoadThresholds(g, base)
		if unsortedAmong(w, ss.ranks, ^uint64(0)) != 0 {
			last, swaps, unsorted := runThresholdChunk(w, ss, maxSteps, blockMax)
			res.Swaps += swaps
			if last > lastAny {
				lastAny = last
			}
			if unsorted {
				failed = true
			}
		}
		// Accumulate val(f) = Σ_k [val(f) > k]: every lane of chunk 0, and
		// lanes 1..63 of later chunks (lane 0 repeats the previous chunk's
		// top lane). Projections at or beyond N are all-zero and add 0.
		countMask := ^uint64(0)
		if chunk > 0 {
			countMask &^= 1
		}
		for f, x := range w {
			counts[f] += int32(bits.OnesCount64(x & countMask))
		}
		if base+63 >= n-1 {
			break
		}
	}
	for f := range cells {
		cells[f] = int(counts[f])
	}

	if failed {
		// Mirror the scalar engine's failure shape: Steps stays 0, the
		// counters run through the cap, and Misplaced counts the ranks of
		// the reconstructed partial grid holding the wrong value. Chunks
		// that quiesced early sit at fixed points of the whole schedule,
		// so their state at quiescence *is* their state at maxSteps.
		res.Comparisons = ss.comparisonsAfter(maxSteps)
		mis := 0
		for m, f := range ss.ranks {
			if counts[f] != int32(m+1) {
				mis++
			}
		}
		return res, &engine.ErrStepLimit{Algorithm: ss.name, MaxSteps: maxSteps, Misplaced: mis}
	}
	res.Sorted = true
	res.Steps = int(lastAny)
	res.Comparisons = ss.comparisonsAfter(int(lastAny))
	return res, nil
}

// runThresholdChunk runs one 64-projection chunk to quiescence or
// maxSteps. It runs SortSliced's compiled runs under the same skip rule,
// with the per-lane accounting replaced by the permutation view: swaps
// counts low boundaries of each comparator's swap mask (one per
// permutation swap owned by this chunk, the sentinel lane 0 excluded), and
// lastSwap is the chunk-wide last step that swapped anything — the step
// its slowest projection finished, since a sorted 0-1 lane is a fixed
// point from its last swap on.
//
//meshlint:hot
func runThresholdChunk(w []uint64, ss *SlicedSchedule, maxSteps int, blockMax []int32) (lastSwap int32, swaps int64, unsorted bool) {
	clear(blockMax)

	period := len(ss.steps)
	pi := 0
	quiet := 0
	for t := 1; t <= maxSteps; t++ {
		st := &ss.steps[pi]
		if pi++; pi == period {
			pi = 0
		}
		var dirty uint64
		tt, since := int32(t), int32(t-period)
		for ri := range st.runs {
			r := &st.runs[ri]
			stale := true
			for _, m := range blockMax[r.blo : r.bhi+1] {
				stale = stale && m < since
			}
			if stale {
				continue
			}
			f, delta, stride := int(r.base), int(r.delta), int(r.stride)
			for j := int32(0); j < r.count; j++ {
				lo, hi := w[f], w[f+delta]
				if s := lo &^ hi; s != 0 {
					dirty |= s
					w[f], w[f+delta] = lo&hi, lo|hi
					blockMax[f>>blockShift] = tt
					blockMax[(f+delta)>>blockShift] = tt
					swaps += int64(bits.OnesCount64(s &^ (s << 1) &^ 1))
				}
				f += stride
			}
		}
		// Quiescence for a full period means every projection of the chunk
		// sits at a fixed point of the whole schedule — its final state.
		if dirty == 0 {
			if quiet++; quiet == period {
				break
			}
			continue
		}
		quiet = 0
		lastSwap = tt
	}
	return lastSwap, swaps, unsortedAmong(w, ss.ranks, ^uint64(0)) != 0
}
