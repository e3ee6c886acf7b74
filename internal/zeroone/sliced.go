package zeroone

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"
	"unsafe"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/sched"
)

// The trial-sliced kernel bit-packs across trials rather than cells: a
// TrialSlice stores 64 *trials* of one cell per word — bit k of words[f]
// is trial k's value at flat cell f.
// Because every trial of a fixed (algorithm, rows, cols) runs the same
// oblivious comparator schedule, one compare-exchange on the pair (lo, hi)
// serves all 64 trials at once:
//
//	lo' = lo & hi   (destination of the smaller value)
//	hi' = lo | hi   (destination of the larger value)
//
// and the swap mask s = lo &^ hi marks exactly the trials whose pair was
// out of order — the classic bitslicing trick of sorting-network and
// cipher implementations. Each comparator costs a handful of word
// operations *total*, not per trial. The executor is one strided sweep
// with no per-pair branch: it always stores both results. Swaps are not
// tallied pair by pair: a swap moves its lane's 1 from Lo to Hi, so with a
// cell potential P and Φ the sum of P over a lane's 1s, a lane's swaps are
// Φ_final − Φ_init plus each pair's swaps weighted by w = 1 − (P(Hi) −
// P(Lo)). With P(r, c) = r + c, column pairs and forward row pairs have
// w = 0 and run with no counter at all; only the reverse row pairs of the
// snakes and shearsort (w = 2) and the row-major wrap pairs (w = C − 1)
// sum their swap masks, per lane in five register bit-planes, touching
// memory beyond the two words only once per chunk in which some lane
// swapped (docs/THEORY.md, "Swap accounting by potential"). Runs stop at
// every 64-cell change-tracking block, so a run whose blocks are
// unchanged since it last executed is skipped.
// SortSliced is verified bit-identical, lane by lane, to an independent
// reference executor — Steps, Swaps, Comparisons, errors, and final
// grids — by the differential suites of internal/kerneltest, including
// ragged batches (fewer than 64 occupied lanes) and random schedules.

// TrialSlice is a batch of up to 64 same-shaped 0-1 grids in trial-sliced
// layout: one word per cell, one bit lane per trial.
type TrialSlice struct {
	rows, cols int
	lanes      int      // occupied trial lanes, 0..64
	words      []uint64 // words[f] holds flat cell f of all lanes
}

// NewTrialSlice returns an empty slice batch for R×C grids.
func NewTrialSlice(rows, cols int) *TrialSlice {
	if rows < 1 || cols < 1 {
		panic(fmt.Sprintf("zeroone: invalid trial-slice mesh %dx%d", rows, cols))
	}
	return &TrialSlice{rows: rows, cols: cols, words: make([]uint64, rows*cols)}
}

// Rows returns the number of rows.
func (ts *TrialSlice) Rows() int { return ts.rows }

// Cols returns the number of columns.
func (ts *TrialSlice) Cols() int { return ts.cols }

// Lanes returns the number of occupied trial lanes.
func (ts *TrialSlice) Lanes() int { return ts.lanes }

// Reset empties the batch so the buffer can be reused for the next block
// of trials without reallocating.
func (ts *TrialSlice) Reset() {
	ts.lanes = 0
	clear(ts.words)
}

// AddGrid transposes g (which must hold only 0s and 1s and match the batch
// dimensions) into the next free trial lane and returns that lane's index.
// It panics when all 64 lanes are occupied.
//
//meshlint:exempt oblivious transposing a grid into bit lanes reads every cell once by definition; no comparator depends on the values
func (ts *TrialSlice) AddGrid(g *grid.Grid) int {
	if g.Rows() != ts.rows || g.Cols() != ts.cols {
		panic(fmt.Sprintf("zeroone: AddGrid %dx%d grid into %dx%d trial slice",
			g.Rows(), g.Cols(), ts.rows, ts.cols))
	}
	if ts.lanes == 64 {
		panic("zeroone: AddGrid on a full trial slice (64 lanes)")
	}
	lane := ts.lanes
	w := ts.words
	// The transpose loop is branchless: a data-dependent `if v == 1` here
	// mispredicts on ~half the cells of a random 0-1 grid and dominates the
	// per-trial setup cost. Validation folds into the same pass via acc.
	acc := 0
	for i, v := range g.Cells() {
		acc |= v
		w[i] |= uint64(v&1) << uint(lane)
	}
	if acc&^1 != 0 {
		// Roll the lane back before panicking so a recovering caller sees
		// the slice unchanged, then let requireZeroOne report the offender.
		bit := uint64(1) << uint(lane)
		for i := range w {
			w[i] &^= bit
		}
		requireZeroOne(g)
	}
	ts.lanes++
	return lane
}

// PackedWords returns the number of words one lane takes in FillPacked's
// input: ⌈rows·cols/64⌉.
//
//meshlint:hot
func (ts *TrialSlice) PackedWords() int { return (len(ts.words) + 63) >> 6 }

// FillPacked replaces the batch with lanes packed 0-1 grids. Lane k's grid
// is packed[k·W : (k+1)·W], W = PackedWords(), with bit f%64 of its word
// f/64 holding cell f; bits past the last cell are ignored. The result
// equals Reset followed by AddGrid of each lane's grid in lane order, and
// lanes lanes..63 are zero. Each 64-cell block of the lanes is one 64×64
// bit transpose instead of 64 cell-by-cell passes. It panics unless
// 0 ≤ lanes ≤ 64 and packed holds lanes·W words.
//
//meshlint:hot
func (ts *TrialSlice) FillPacked(packed []uint64, lanes int) {
	nw := ts.PackedWords()
	if lanes < 0 || lanes > 64 || len(packed) < lanes*nw {
		panic("zeroone: FillPacked lane count or buffer out of range")
	}
	var a [64]uint64
	for b := 0; b < nw; b++ {
		for k := 0; k < lanes; k++ {
			a[k] = packed[k*nw+b]
		}
		clear(a[lanes:])
		transpose64(&a)
		copy(ts.words[b<<6:], a[:])
	}
	ts.lanes = lanes
}

// transpose64 transposes the 64×64 bit matrix a in place: bit c of a[r]
// becomes bit r of a[c]. Each round swaps the off-diagonal j×j blocks of
// every 2j×2j diagonal block (Hacker's Delight §7-3), from j = 32 down
// to 1.
//
//meshlint:hot
func transpose64(a *[64]uint64) {
	m := uint64(0x00000000ffffffff) // the columns whose bit j is clear
	for j := uint(32); j != 0; j >>= 1 {
		for k := uint(0); k < 64; k = (k + j + 1) &^ j {
			t := (a[k&63]>>j ^ a[(k+j)&63]) & m
			a[k&63] ^= t << j
			a[(k+j)&63] ^= t
		}
		m ^= m << (j >> 1)
	}
}

// Bit returns trial lane's value (0 or 1) at flat cell f.
func (ts *TrialSlice) Bit(lane, f int) int {
	return int(ts.words[f] >> uint(lane) & 1)
}

// ExtractInto writes trial lane's grid into g, which must have the batch
// dimensions — the inverse transpose of AddGrid.
func (ts *TrialSlice) ExtractInto(lane int, g *grid.Grid) {
	if g.Rows() != ts.rows || g.Cols() != ts.cols {
		panic(fmt.Sprintf("zeroone: ExtractInto %dx%d grid from %dx%d trial slice",
			g.Rows(), g.Cols(), ts.rows, ts.cols))
	}
	if lane < 0 || lane >= ts.lanes {
		panic(fmt.Sprintf("zeroone: ExtractInto lane %d of %d", lane, ts.lanes))
	}
	for i := 0; i < len(ts.words); i++ {
		g.SetFlat(i, int(ts.words[i]>>uint(lane)&1))
	}
}

// Extract returns trial lane's grid.
func (ts *TrialSlice) Extract(lane int) *grid.Grid {
	g := grid.New(ts.rows, ts.cols)
	ts.ExtractInto(lane, g)
	return g
}

// slicedRun is a compressed group of comparators within one step: the
// comparators (f, f+delta) for f = base, base+stride, ..., count of them.
// Lo and Hi are comparator *roles* (min lands at Lo), so delta is
// negative for reversed pairs such as the snake family's right-to-left
// rows. A run's lower cells all lie in one change-tracking block, so the
// executor can skip each block's share of a phase on its own.
type slicedRun struct {
	base   int32
	delta  int32
	stride int32
	count  int32
	// blo..bhi is the inclusive range of change-tracking blocks the run's
	// cells fall in, precomputed for the executor's skip check.
	blo, bhi int32
	// weight is every member pair's w = 1 − (P(Hi) − P(Lo)) under the
	// schedule's potential: what a swap on the pair adds to a lane's swap
	// count beyond its change of Φ. Weight-0 runs are swept uncounted.
	weight int32
}

// blockShift sets the granularity of the executor's change tracking:
// blocks of 64 cells, the compromise between skip-check cost (a run spans
// a couple of blocks) and skip precision (late in a 0-1 sort, activity is
// a narrow band around each lane's 0/1 boundary).
const blockShift = 6

// chunkPairs is how many pairs the sweep counts in its five register
// bit-planes before it must flush them: 31 is the largest per-lane swap
// count five bits hold. Chunks of 63 in six planes measured no faster
// (DESIGN.md §10).
const chunkPairs = 31

// slicedStep is one schedule step for the lockstep executor: the step's
// comparators ordered by their lower cell, so the word accesses stream
// through memory (column steps would otherwise jump by `cols` words
// between construction-order comparators), and compressed into arithmetic
// runs.
type slicedStep struct {
	runs        []slicedRun
	comparisons int64 // comparators in the step (matches the scalar count)
}

// SlicedSchedule is a schedule compiled for the trial-sliced kernel: one
// full period of comparator steps plus the target order's rank layout,
// shared read-only across all concurrent blocks.
type SlicedSchedule struct {
	name       string
	order      grid.Order
	rows, cols int
	steps      []slicedStep
	ranks      []int32 // ranks[m] = flat cell of target rank m

	// Comparison-count reconstruction: the cumulative comparator count
	// after step t is (t/period)*periodComps + compPrefix[t%period], so the
	// executor never tracks it per step.
	periodComps int64
	compPrefix  []int64 // compPrefix[r] = comparators in the first r steps

	// runStart[si] is step si's offset into a flat per-run scratch array of
	// totalRuns entries (the executor's last-execution stamps).
	runStart  []int32
	totalRuns int

	// Swap accounting by potential: pot[f] is the potential P of flat
	// cell f, phiSorted[α] = Σ P over ranks α..N−1 is Φ of a sorted lane
	// with α zeros, and omega is the one nonzero run weight (0 when every
	// run has weight 0).
	pot       []int32
	phiSorted []int64
	omega     int64
}

// comparisonsAfter returns the cumulative comparator count after step t;
// a negative t, a cap under which no step runs, counts none.
func (ss *SlicedSchedule) comparisonsAfter(t int) int64 {
	if t <= 0 {
		return 0
	}
	period := len(ss.steps)
	return int64(t/period)*ss.periodComps + ss.compPrefix[t%period]
}

// Name returns the underlying schedule's identifier.
func (ss *SlicedSchedule) Name() string { return ss.name }

// Order returns the target ordering.
func (ss *SlicedSchedule) Order() grid.Order { return ss.order }

// Dims returns the mesh dimensions.
func (ss *SlicedSchedule) Dims() (int, int) { return ss.rows, ss.cols }

// Period returns the number of steps in one full period.
func (ss *SlicedSchedule) Period() int { return len(ss.steps) }

// pairLow returns the lower flat cell of a comparator.
func pairLow(c sched.Comparator) int32 {
	if c.Lo < c.Hi {
		return c.Lo
	}
	return c.Hi
}

// pairWeight is comparator c's weight under potential pot: a swap on c
// raises its lane's Φ by pot[Hi] − pot[Lo], so it counts w = 1 − that
// beyond the change of Φ.
func pairWeight(pot []int32, c sched.Comparator) int32 {
	return 1 - (pot[c.Hi] - pot[c.Lo])
}

// choosePotential returns the cell potential P(r, c) = r + c and ω, the
// one nonzero weight the pairs of phases take under it (0 if none): a
// column or forward row pair has weight 0, a reverse row pair 2 and a
// row-major wrap pair C − 1. If the pairs take two different nonzero
// weights it returns P ≡ 0 instead, under which every pair has weight 1,
// so every swap is counted.
func choosePotential(rows, cols int, phases [][]sched.Comparator) (pot []int32, omega int32) {
	pot = make([]int32, rows*cols)
	for f := range pot {
		pot[f] = int32(f/cols + f%cols)
	}
	for _, comps := range phases {
		for _, c := range comps {
			w := pairWeight(pot, c)
			if w != 0 && omega != 0 && w != omega {
				clear(pot)
				return pot, 1
			}
			if w != 0 {
				omega = w
			}
		}
	}
	return pot, omega
}

// CompileSliced compiles s for the trial-sliced kernel. Every schedule
// compiles: the executor consumes comparators directly, so only the
// memory order of the step's pairs and their weights matter.
func CompileSliced(s sched.Schedule) *SlicedSchedule {
	rows, cols := s.Dims()
	n := rows * cols
	phases := sched.PhasesOf(s)
	pot, omega := choosePotential(rows, cols, phases)
	ss := &SlicedSchedule{
		name: s.Name(), order: s.Order(),
		rows: rows, cols: cols,
		steps: make([]slicedStep, len(phases)),
		pot:   pot, omega: int64(omega),
	}
	ss.compPrefix = make([]int64, len(phases)+1)
	ss.runStart = make([]int32, len(phases))
	for si, comps := range phases {
		pairs := make([]sched.Comparator, len(comps))
		copy(pairs, comps) // PhasesOf shares its slices; sort a copy
		sort.Slice(pairs, func(i, j int) bool {
			return pairLow(pairs[i]) < pairLow(pairs[j])
		})
		ss.steps[si] = slicedStep{runs: compressRuns(pairs, pot), comparisons: int64(len(comps))}
		ss.compPrefix[si+1] = ss.compPrefix[si] + int64(len(comps))
		ss.runStart[si] = int32(ss.totalRuns)
		ss.totalRuns += len(ss.steps[si].runs)
	}
	ss.periodComps = ss.compPrefix[len(phases)]
	g := grid.New(rows, cols)
	ss.ranks = make([]int32, n)
	for m := 0; m < n; m++ {
		ss.ranks[m] = int32(g.RankFlat(s.Order(), m))
	}
	ss.phiSorted = make([]int64, n+1)
	for m := n - 1; m >= 0; m-- {
		ss.phiSorted[m] = ss.phiSorted[m+1] + int64(pot[ss.ranks[m]])
	}
	return ss
}

// compressRuns greedily packs pairLow-ordered comparators into arithmetic
// runs: successive pairs join a run while their delta (Hi−Lo) and weight
// under pot match, their Lo advances by the run's stride (fixed by the
// first two members), and their lower cell stays in the first member's
// block. Irregular comparators — e.g. a lone wraparound pair, whose
// weight differs from its row neighbours' — fall out as runs of count 1,
// so any schedule compresses without a special case.
func compressRuns(pairs []sched.Comparator, pot []int32) []slicedRun {
	var runs []slicedRun
	for i := 0; i < len(pairs); {
		r := slicedRun{base: pairs[i].Lo, delta: pairs[i].Hi - pairs[i].Lo, count: 1, weight: pairWeight(pot, pairs[i])}
		block := pairLow(pairs[i]) >> blockShift
		j := i + 1
		for ; j < len(pairs); j++ {
			if pairs[j].Hi-pairs[j].Lo != r.delta || pairLow(pairs[j])>>blockShift != block ||
				pairWeight(pot, pairs[j]) != r.weight {
				break
			}
			stride := pairs[j].Lo - pairs[j-1].Lo
			if r.count == 1 {
				r.stride = stride
			} else if stride != r.stride {
				break
			}
			r.count++
		}
		// Sorted pairLow order makes stride positive, so the run's lowest
		// cell is at the first comparator and the highest at the last.
		last := r.base + (r.count-1)*r.stride
		r.blo = (r.base + min(r.delta, 0)) >> blockShift
		r.bhi = (last + max(r.delta, 0)) >> blockShift
		runs = append(runs, r)
		i = j
	}
	return runs
}

var slicedCache sync.Map // slicedCacheKey{name,rows,cols} -> *SlicedSchedule

type slicedCacheKey struct {
	name       string
	rows, cols int
}

// CachedSliced returns the trial-sliced compilation of algorithm name on
// an R×C mesh, building it at most once per process.
func CachedSliced(name string, rows, cols int) (*SlicedSchedule, error) {
	k := slicedCacheKey{name, rows, cols}
	if v, ok := slicedCache.Load(k); ok {
		return v.(*SlicedSchedule), nil
	}
	s, err := sched.Cached(name, rows, cols)
	if err != nil {
		return nil, err
	}
	v, _ := slicedCache.LoadOrStore(k, CompileSliced(s))
	return v.(*SlicedSchedule), nil
}

// unsortedAmong returns the subset of cand whose lanes are not yet in
// target order. A 0-1 grid is sorted iff its values are nondecreasing
// along the rank order, i.e. no 1 is ever followed by a 0; the scan keeps
// a per-lane "seen a 1" prefix and records a violation whenever a cell
// shows a 0 after it. This works for every lane simultaneously whatever
// each lane's zero count is, and exits as soon as every candidate lane is
// known unsorted — a handful of cells for far-from-sorted lanes.
//
//meshlint:hot
func unsortedAmong(w []uint64, ranks []int32, cand uint64) uint64 {
	var seen, viol uint64
	for _, f := range ranks {
		x := w[f]
		viol |= seen &^ x
		seen |= x
		if viol&cand == cand {
			return cand
		}
	}
	return viol & cand
}

// SortSliced runs all occupied lanes of ts in lockstep under schedule ss
// until every lane reaches target order or maxSteps is hit (0 uses
// engine.DefaultMaxSteps; a negative cap runs no step). The batch is
// sorted in place; lane k's final grid, Result, and error are
// bit-identical to running the scalar engine on lane k's input alone — a
// lane that finishes at step t is a fixed point of every later step (a
// sorted 0-1 grid produces no swap under any comparator of these
// schedules), so lockstep continuation cannot disturb it.
//
// results[k] is lane k's Result; errs is nil when every lane sorted,
// otherwise errs[k] carries lane k's *engine.ErrStepLimit (nil for lanes
// that finished). The final error reports a batch-level misuse (dimension
// mismatch).
func SortSliced(ts *TrialSlice, ss *SlicedSchedule, maxSteps int) (results []engine.Result, errs []error, err error) {
	if ts.rows != ss.rows || ts.cols != ss.cols {
		return nil, nil, fmt.Errorf("zeroone: trial slice is %dx%d but sliced schedule %s was built for %dx%d",
			ts.rows, ts.cols, ss.name, ss.rows, ss.cols)
	}
	if maxSteps == 0 {
		maxSteps = engine.DefaultMaxSteps(ss.rows, ss.cols)
	}
	lanes := ts.lanes
	results = make([]engine.Result, lanes)
	if lanes == 0 {
		return results, nil, nil
	}
	w := ts.words
	laneMask := ^uint64(0) >> uint(64-lanes)

	if unsortedAmong(w, ss.ranks, laneMask) == 0 {
		for k := range results {
			results[k].Sorted = true
		}
		return results, nil, nil
	}

	// Per-lane state the hot loop maintains is deliberately tiny. A lane's
	// sorted status can only change on a step where it swaps, so a lane
	// that ends sorted became sorted exactly at its last swap step — the
	// loop records lastSwap per lane and never rescans the grid. Counts
	// live in bit-sliced form (bit k of planes[i] is bit i of lane k's
	// count): ones holds each lane's count of 1s, which compare-exchange
	// never changes, phi its Φ_init, and planes its swaps on pairs of
	// weight ss.omega.
	var (
		lastSwap  [64]int32
		ones, phi [64]uint64
		planes    [64]uint64
	)
	addPotential(w, ss.pot, &ones, &phi)

	// Change tracking for run skipping: blockMax[b] is the latest step that
	// may have swapped a cell of block b (marks are per chunk or run, so
	// they can cover more than the swapped cells but never miss one),
	// lastExec the step each run last executed.
	n := ss.rows * ss.cols
	blockMax := make([]int32, (n-1)>>blockShift+1)
	lastExec := make([]int32, ss.totalRuns)
	for i := range lastExec {
		lastExec[i] = -1
	}

	// sweep reaches w, blockMax and lastExec through raw pointers, with no
	// bounds check. Every run's cells lie in [0, n): CompileSliced looks up
	// the potential of every comparator's cells, bounds-checked, before any
	// sweep (TestCompileSlicedRejectsOutOfRangePair), and the dimension
	// check above makes len(w) == n. The run's blocks then lie within
	// blockMax, and runStart[pi] plus a run's index within lastExec.
	wp := unsafe.Pointer(unsafe.SliceData(w))
	bp := unsafe.Pointer(unsafe.SliceData(blockMax))
	ep := unsafe.Pointer(unsafe.SliceData(lastExec))

	period := len(ss.steps)
	pi := 0
	quiet := 0
	for t := 1; t <= maxSteps; t++ {
		var dirty uint64
		// A step can have no runs (the column steps of a 1×N mesh), and
		// then its share of lastExec would start past the end.
		if st := &ss.steps[pi]; len(st.runs) != 0 {
			runExec := unsafe.Pointer(uintptr(ep) + 4*uintptr(ss.runStart[pi]))
			dirty = sweep(wp, bp, runExec, st.runs, int32(t), &planes)
		}
		if pi++; pi == period {
			pi = 0
		}
		// Quiescence for a full period means every lane sits at a fixed
		// point of the whole schedule — its final state, sorted or not.
		if dirty == 0 {
			if quiet++; quiet == period {
				break
			}
			continue
		}
		quiet = 0
		for d := dirty; d != 0; d &= d - 1 {
			lastSwap[bits.TrailingZeros64(d)] = int32(t)
		}
	}

	still := unsortedAmong(w, ss.ranks, laneMask)
	limitComps := ss.comparisonsAfter(maxSteps)
	for k := 0; k < lanes; k++ {
		// Swaps = Φ_final − Φ_init + ω·(swaps on weight-ω pairs). A sorted
		// lane with α zeros holds its 1s at ranks α..N−1.
		alpha := n - int(laneCount(&ones, k))
		phiEnd := ss.phiSorted[alpha]
		unsorted := still>>uint(k)&1 == 1
		var misplaced int
		if unsorted {
			misplaced, phiEnd = cutLane(w, ss, k, alpha)
		}
		results[k].Swaps = phiEnd - laneCount(&phi, k) + ss.omega*laneCount(&planes, k)
		if unsorted {
			// The lane is at (or was cut off in) an unsorted state; the
			// scalar engine would have churned on to the step limit, so its
			// comparison count is the limit's.
			results[k].Comparisons = limitComps
			if errs == nil {
				errs = make([]error, lanes)
			}
			errs[k] = &engine.ErrStepLimit{
				Algorithm: ss.name,
				MaxSteps:  maxSteps,
				Misplaced: misplaced,
			}
			continue
		}
		results[k].Sorted = true
		if t := int(lastSwap[k]); t != 0 {
			results[k].Steps = t
			results[k].Comparisons = ss.comparisonsAfter(t)
		}
	}
	return results, errs, nil
}

// sweep executes one step's runs on the slice words at w as step tt and
// returns the OR of the lanes' swap masks. Every pair stores lo&hi and
// lo|hi, swapped or not, so the loop has no branch on the data: on the
// paper's half-0/half-1 inputs 20–56% of the executed pairs swap in some
// lane, depending on schedule, so a branch on it mispredicts often. A
// weight-0 run is one uncounted pass, which marks all of the run's blocks
// in blockMax if some lane swapped. A weighted run goes in chunks of up
// to chunkPairs pairs, each summing its swap masks per lane in five
// register bit-planes through a fixed half-adder chain; only a chunk in
// which some lane swapped marks its blocks in blockMax and flushes its
// sums into planes. The marks cover the blocks of both roles' first and
// last cells, hence every cell of the chunk: each role's cells lie within
// 64 consecutive cells, so at most two blocks.
//
// A run is skipped unless one of its blocks was marked at or after the
// step it last executed: a run none of whose blocks changed since would
// find every pair already exchanged (compare-exchange is idempotent), and
// late in a 0-1 sort that is almost every run, since activity shrinks to
// a band around the lanes' boundaries. w, blockMax and runExec (the
// step's share of lastExec) are reached through raw pointers, with no
// bounds check; SortSliced states why every access lies inside its array.
//
//meshlint:hot
func sweep(w, blockMax, runExec unsafe.Pointer, runs []slicedRun, tt int32, planes *[64]uint64) (dirty uint64) {
next:
	for ri := range runs {
		r := &runs[ri]
		f, delta, stride, count := uintptr(r.base), uintptr(r.delta), uintptr(r.stride), int(r.count)
		blo, bhi := uintptr(r.blo), uintptr(r.bhi)
		stamp := (*int32)(unsafe.Pointer(uintptr(runExec) + 4*uintptr(ri)))
		for b, last := blo, *stamp; *(*int32)(unsafe.Pointer(uintptr(blockMax) + 4*b)) < last; b++ {
			if b == bhi {
				continue next
			}
		}
		*stamp = tt
		if r.weight == 0 {
			if swapped := exchange(unsafe.Pointer(uintptr(w)+8*f), 8*delta, 8*stride, count); swapped != 0 {
				dirty |= swapped
				for b := blo; b <= bhi; b++ {
					*(*int32)(unsafe.Pointer(uintptr(blockMax) + 4*b)) = tt
				}
			}
			continue
		}
		for left := count; left > 0; left -= chunkPairs {
			k := min(left, chunkPairs)
			ones, twos, fours, eights, sixteens := sweepChunk(unsafe.Pointer(uintptr(w)+8*f), 8*delta, 8*stride, k)
			if swapped := ones | twos | fours | eights | sixteens; swapped != 0 {
				dirty |= swapped
				last := f + uintptr(k-1)*stride
				*(*int32)(unsafe.Pointer(uintptr(blockMax) + 4*(f>>blockShift))) = tt
				*(*int32)(unsafe.Pointer(uintptr(blockMax) + 4*((f+delta)>>blockShift))) = tt
				*(*int32)(unsafe.Pointer(uintptr(blockMax) + 4*(last>>blockShift))) = tt
				*(*int32)(unsafe.Pointer(uintptr(blockMax) + 4*((last+delta)>>blockShift))) = tt
				addCounts(planes, ones, twos, fours, eights, sixteens)
			}
			f += uintptr(k) * stride
		}
	}
	return dirty
}

// exchange compare-exchanges k ≥ 1 pairs without counting and returns the
// OR of their swap masks. lo is the first pair's Lo word, each Hi word
// lies off bytes from its Lo word (off wraps for a negative delta), and
// the pairs step by stride bytes. Like sweepChunk it stays out of line,
// so sweep's live values do not spill its loop's registers to the stack.
//
//meshlint:hot
//go:noinline
func exchange(lo unsafe.Pointer, off, stride uintptr, k int) (swapped uint64) {
	for {
		pl, ph := (*uint64)(lo), (*uint64)(unsafe.Pointer(uintptr(lo)+off))
		x, y := *pl, *ph
		s := x &^ y
		*pl, *ph = x&y, y|s
		swapped |= s
		if k--; k == 0 {
			return swapped
		}
		// Step only onto a pair that exists: a pointer past the words
		// would fail the checkptr instrumentation of -race builds.
		lo = unsafe.Pointer(uintptr(lo) + stride)
	}
}

// sweepChunk compare-exchanges 1 ≤ k ≤ chunkPairs pairs, laid out as for
// exchange, and returns their per-lane swap counts as five bit-planes. It
// stays out of line: inlined, its live values and sweep's own exceed the
// amd64 registers, and the planes spill to the stack on every pair.
//
//meshlint:hot
//go:noinline
func sweepChunk(lo unsafe.Pointer, off, stride uintptr, k int) (ones, twos, fours, eights, sixteens uint64) {
	for {
		pl, ph := (*uint64)(lo), (*uint64)(unsafe.Pointer(uintptr(lo)+off))
		x, y := *pl, *ph
		s := x &^ y
		*pl, *ph = x&y, y|s // y|s == x|y, and frees x's register sooner
		ones ^= s
		c := s &^ ones // the carries: lanes where ones was set
		twos ^= c
		c &^= twos
		fours ^= c
		c &^= fours
		eights ^= c
		sixteens |= c &^ eights // no carry out: a chunk counts at most 31
		if k--; k == 0 {
			return ones, twos, fours, eights, sixteens
		}
		lo = unsafe.Pointer(uintptr(lo) + stride) // onto a pair that exists, as in exchange
	}
}

// addCounts adds a chunk's per-lane swap counts, the 5-bit numbers whose
// bit-planes are ones..sixteens, into the bit-sliced lane counters: a
// full-adder chain over the five low planes, then a carry ripple that
// stops at the first plane absorbing it.
//
//meshlint:hot
func addCounts(planes *[64]uint64, ones, twos, fours, eights, sixteens uint64) {
	carry := planes[0] & ones
	planes[0] ^= ones
	x := planes[1] ^ twos
	carry, planes[1] = planes[1]&twos|x&carry, x^carry
	x = planes[2] ^ fours
	carry, planes[2] = planes[2]&fours|x&carry, x^carry
	x = planes[3] ^ eights
	carry, planes[3] = planes[3]&eights|x&carry, x^carry
	x = planes[4] ^ sixteens
	carry, planes[4] = planes[4]&sixteens|x&carry, x^carry
	addAt(planes, carry, 5)
}

// addPotential adds each lane's count of 1s into ones and its potential
// Φ = Σ pot[f] over the lane's 1s into phi, both bit-sliced like the swap
// planes: cell f adds its word once at plane 0 of ones and once at plane
// b of phi for every set bit b of pot[f].
//
//meshlint:hot
func addPotential(w []uint64, pot []int32, ones, phi *[64]uint64) {
	pot = pot[:len(w)]
	for f, x := range w {
		addAt(ones, x, 0)
		for p := uint32(pot[f]); p != 0; p &= p - 1 {
			addAt(phi, x, bits.TrailingZeros32(p))
		}
	}
}

// addAt adds 2^b to the bit-sliced counter of every lane set in x.
//
//meshlint:hot
func addAt(planes *[64]uint64, x uint64, b int) {
	for ; x != 0; b++ {
		p := planes[b&63]
		planes[b&63] = p ^ x
		x &= p
	}
}

// laneCount reads lane k's value out of bit-sliced counter planes.
func laneCount(planes *[64]uint64, k int) int64 {
	var v int64
	for i := 62; i >= 0; i-- { // counts stay far below 2^63
		v = v<<1 | int64(planes[i]>>uint(k)&1)
	}
	return v
}

// cutLane returns, for lane k cut off unsorted with alpha zeros, its 1s
// inside its zero region — the first alpha target ranks, matching
// grid.ZeroOneTracker's misplacement measure exactly — and its final
// potential Φ.
//
//meshlint:hot
func cutLane(w []uint64, ss *SlicedSchedule, k, alpha int) (misplaced int, phi int64) {
	for _, f := range ss.ranks[:alpha] {
		misplaced += int(w[f] >> uint(k) & 1)
	}
	for f, x := range w {
		phi += int64(ss.pot[f]) * int64(x>>uint(k)&1)
	}
	return misplaced, phi
}
