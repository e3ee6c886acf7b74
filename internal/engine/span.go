package engine

import (
	"sort"
	"sync"
	"unsafe"

	"repro/internal/grid"
	"repro/internal/sched"
)

// Kernel selects which executor family Run uses on its Monte-Carlo fast
// path (permutation trial, no observer, no injected tracker). The
// kernels are proven bit-identical — same final grid, Steps, Swaps, and
// Comparisons — by the differential suites; the knob exists so
// benchmarks can hold one fixed and callers can pin a path if they ever
// need to. Kernels travel by name (KernelName in internal/core), never
// by value, so the numbering is free to change.
type Kernel int

const (
	// KernelAuto picks the span kernel whenever the schedule has a span
	// plan (its steps are disjoint and monotone), falling back to the
	// comparator path otherwise. This is the default.
	KernelAuto Kernel = iota
	// KernelGeneric forces the comparator-slice path (the pre-span
	// engine), which is also what non-permutation inputs always use.
	KernelGeneric
	// KernelSpan requests the span kernel. Runs that are not eligible for
	// any fast path (observers, custom trackers, duplicate values) or
	// whose schedule has no span plan silently fall back to the generic
	// path, so the option is a hint, never an error.
	KernelSpan
	// KernelSliced requests the trial-sliced 0-1 kernel (64 trials of one
	// cell per word), mcbatch's default for ZeroOne batches. It is a
	// batch-level hint: the engine itself treats it as KernelAuto.
	KernelSliced
	// KernelSpanSharded requests the sharded span executor: the span
	// kernel's phases partitioned into contiguous row blocks executed
	// shard-parallel on a persistent pool with a phase barrier (see
	// shard.go). Eligibility matches KernelSpan; runs that resolve to a
	// single shard (small meshes, one-row grids, no parallelism budget)
	// take the serial span path, keeping the hint-never-error semantics.
	KernelSpanSharded
)

// The span kernel runs a permutation trial on a shadow of the grid laid
// out so that every step of every schedule is a handful of unit-stride
// runs. The shadow holds all even-column cells in row-major order, then
// all odd-column cells: with E = ⌈C/2⌉ and O = ⌊C/2⌋, cell (r, c) lives
// at r·E + c/2 when c is even and at R·E + r·O + c/2 when c is odd. In
// that layout:
//
//   - a row pair (r, c)-(r, c+1) joins an even and an odd cell whose
//     indices both advance by one as c advances by two, whatever the
//     parity of c and whichever cell takes the minimum;
//   - the row-major wrap pair (r, C−1)-(r+1, 0) continues row r's
//     odd-start pairs, so the fused wrap phase is one run of N/2−1 pairs;
//   - column pairs (r, c)-(r+1, c) of one column parity sit E or O apart
//     inside one half and advance by one as c advances by two, so the
//     uniform and the alternating column steps are both unit-stride.
//
// A span is therefore just pair k = (lo+k, hi+k), k < pairs, with lo the
// min destination, and one sweep serves every span (see sweep).

// span is one run of a phase annotated for settled-window skipping. Pair
// k compares shadow cells lo+k (receives the minimum) and hi+k.
// maxLoRank/minHiRank bound the pairs' destination ranks: the whole span
// is a guaranteed no-op once the settled prefix covers every
// min-destination rank (maxLoRank < p) or the settled suffix covers
// every max-destination rank (minHiRank >= n-s).
//
// For every schedule in the repertoire the destination ranks are affine
// along the span — pair k's min destination is lr0 + k·dl and its max
// destination hr0 + k·dh (a span walks its rows two columns at a time,
// and rows occupy consecutive ranks in each target order). When that holds the kernel trims settled pairs off the span's
// ends with permanent per-run cursors, mirroring runDistinctLazy's
// comparator cursors: the settled windows only grow, so a trimmed pair
// stays trimmed and cursor advancement is amortized O(1) over the run.
// A non-affine span — none exist in the six schedules — falls back to
// whole-span skipping only.
type span struct {
	lo, hi    int32 // shadow cells of pair 0: min and max destination
	pairs     int32
	maxLoRank int32
	minHiRank int32
	lr0, dl   int32 // pair k's min-destination rank: lr0 + k·dl
	hr0, dh   int32 // pair k's max-destination rank: hr0 + k·dh
	affine    bool
}

// spanPhase is one schedule step as spans, plus the step's total
// comparator count (trimmed pairs still count as comparisons) and the
// phase's offset into the per-run cursor array (two cursors per span).
type spanPhase struct {
	pairs  int64
	curOff int
	spans  []span
}

// spanPlan is the engine-level compilation of a schedule for the span
// kernel: the shadow geometry, the rank layout of the target order, and
// every phase as spans sorted by rank. A plan only exists for schedules
// whose steps are pairwise disjoint and monotone (every comparator sends
// the smaller value to the strictly lower target rank), which is what
// makes the settled-window argument of runDistinctLazy carry over
// unchanged.
type spanPlan struct {
	name       string
	n          int
	rows, cols int
	wide       bool    // 32-bit shadow cells (n > 32768), else 16-bit
	curLen     int     // total cursor slots: two per span across all phases
	rankPos    []int32 // rankPos[m] = shadow cell of target rank m
	phases     []spanPhase
}

// half is the shadow index of the first odd-column cell.
func (p *spanPlan) half() int { return p.rows * ((p.cols + 1) / 2) }

// index maps flat cell f to its shadow cell.
func (p *spanPlan) index(f int) int32 { return p.cell(f/p.cols, f%p.cols) }

// cell maps cell (r, c) to its shadow cell.
func (p *spanPlan) cell(r, c int) int32 {
	if c&1 == 0 {
		return int32(r*((p.cols+1)/2) + c>>1)
	}
	return int32(p.half() + r*(p.cols/2) + c>>1)
}

// flat maps shadow cell i back to its flat cell, inverting index.
func (p *spanPlan) flat(i int32) int {
	if h := p.half(); int(i) >= h {
		j, odd := int(i)-h, p.cols/2
		return j/odd*p.cols + 2*(j%odd) + 1
	}
	even := (p.cols + 1) / 2
	return int(i)/even*p.cols + 2*(int(i)%even)
}

// comparators expands phase pi back into flat comparators, span by span.
func (p *spanPlan) comparators(pi int) []sched.Comparator {
	var out []sched.Comparator
	for _, sp := range p.phases[pi].spans {
		for k := int32(0); k < sp.pairs; k++ {
			out = append(out, sched.Comparator{Lo: int32(p.flat(sp.lo + k)), Hi: int32(p.flat(sp.hi + k))})
		}
	}
	return out
}

// SpanSteps expands the span kernel's plan for s back into flat
// comparators, step t at index t−1, and reports false when s gets no
// plan (a step's comparators overlap or one is non-monotone). The plan
// is lossless: each step holds exactly the comparator set s.Step(t)
// yields, which the sched tests check for the whole repertoire.
func SpanSteps(s sched.Schedule) ([][]sched.Comparator, bool) {
	rows, cols := s.Dims()
	plan := buildSpanPlan(s, grid.New(rows, cols))
	if plan == nil {
		return nil, false
	}
	steps := make([][]sched.Comparator, len(plan.phases))
	for pi := range steps {
		steps[pi] = plan.comparators(pi)
	}
	return steps, true
}

// transfer copies the grid into the shadow as v − min (in) or the
// shadow back into the grid (!in), row by row so no cell costs a
// division.
func (p *spanPlan) transfer(sh unsafe.Pointer, gc []int, minVal int, in bool) {
	for r := 0; r < p.rows; r++ {
		row := gc[r*p.cols : (r+1)*p.cols]
		for c := range row {
			if in {
				p.set(sh, p.cell(r, c), uint32(row[c]-minVal))
			} else {
				row[c] = minVal + int(p.get(sh, p.cell(r, c)))
			}
		}
	}
}

// settle extends the settled prefix p and suffix s (in ranks) as far as
// the shadow holds the final values, and reports the new sizes.
func (p *spanPlan) settle(sh unsafe.Pointer, pre, suf int) (int, int) {
	n := p.n
	for pre+suf < n && p.get(sh, p.rankPos[pre]) == uint32(pre) {
		pre++
	}
	for pre+suf < n && p.get(sh, p.rankPos[n-1-suf]) == uint32(n-1-suf) {
		suf++
	}
	return pre, suf
}

// misplaced counts the unsettled ranks not holding their final value.
func (p *spanPlan) misplaced(sh unsafe.Pointer, pre, suf int) int {
	count := 0
	for m := pre; m < p.n-suf; m++ {
		if p.get(sh, p.rankPos[m]) != uint32(m) {
			count++
		}
	}
	return count
}

// cellSize is the shadow's bytes per cell. A cell holds v − min < n, so
// its top bit is always clear (see sweepLanes).
func (p *spanPlan) cellSize() uintptr {
	if p.wide {
		return 4
	}
	return 2
}

// words is the shadow's length in 64-bit words.
func (p *spanPlan) words() int { return (p.n*int(p.cellSize()) + 7) / 8 }

func (p *spanPlan) get(sh unsafe.Pointer, i int32) uint32 {
	if p.wide {
		return *(*uint32)(unsafe.Add(sh, 4*uintptr(i)))
	}
	return uint32(*(*uint16)(unsafe.Add(sh, 2*uintptr(i))))
}

func (p *spanPlan) set(sh unsafe.Pointer, i int32, v uint32) {
	if p.wide {
		*(*uint32)(unsafe.Add(sh, 4*uintptr(i))) = v
		return
	}
	*(*uint16)(unsafe.Add(sh, 2*uintptr(i))) = uint16(v)
}

// spanPlans caches plans for shared compiled schedules; a nil entry
// records "no span plan" (overlapping or non-monotone steps) so
// ineligible schedules are not re-examined on every run. Ad-hoc schedule
// values get a fresh plan per run, mirroring lazyPlans.
var spanPlans sync.Map // *sched.Compiled -> *spanPlan (nil = ineligible)

func spanPlanFor(s sched.Schedule, g *grid.Grid) *spanPlan {
	c, shared := s.(*sched.Compiled)
	if shared {
		if v, ok := spanPlans.Load(c); ok {
			return v.(*spanPlan)
		}
	}
	plan := buildSpanPlan(s, g)
	if shared {
		v, _ := spanPlans.LoadOrStore(c, plan)
		return v.(*spanPlan)
	}
	return plan
}

// buildSpanPlan compiles s for the span kernel, returning nil when a
// step's comparators overlap or one is non-monotone. Each phase is built
// in O(pairs): every pair is placed at its lo cell, a pair whose
// predecessor cell does not hold the pair (lo−1, hi−1) starts a span,
// and the span extends while both ends advance by one. Spans never cross
// from the even half into the odd half, so each span's lo cells lie in
// one half and the sharded executor can cut it by rows.
func buildSpanPlan(s sched.Schedule, g *grid.Grid) *spanPlan {
	rows, cols := s.Dims()
	n := rows * cols
	order := s.Order()
	plan := &spanPlan{name: s.Name(), n: n, rows: rows, cols: cols, wide: n > 1<<15, rankPos: make([]int32, n)}
	rank := make([]int32, n) // rank[i] = target rank of shadow cell i
	for m := 0; m < n; m++ {
		i := plan.index(g.RankFlat(order, m))
		plan.rankPos[m] = i
		rank[i] = int32(m)
	}
	half := int32(plan.half())
	phases := sched.PhasesOf(s)
	plan.phases = make([]spanPhase, len(phases))
	next := make([]int32, n) // next[lo] = hi+1 of the current phase's pair at lo, 0 if none
	used := make([]int32, n) // used[i] = 1 + index of the last phase touching cell i
	for pi, comps := range phases {
		ph := &plan.phases[pi]
		ph.pairs = int64(len(comps))
		ph.curOff = plan.curLen
		stamp := int32(pi + 1)
		for _, c := range comps {
			lo, hi := plan.index(int(c.Lo)), plan.index(int(c.Hi))
			if used[lo] == stamp || used[hi] == stamp || lo == hi {
				return nil
			}
			used[lo], used[hi] = stamp, stamp
			next[lo] = hi + 1
		}
		for _, c := range comps {
			lo := plan.index(int(c.Lo))
			hi := next[lo] - 1
			if lo != half && lo > 0 && hi > 0 && next[lo-1] == hi {
				continue // not the first pair of its span
			}
			sp := span{lo: lo, hi: hi, pairs: 1}
			for e := lo + 1; e < int32(n) && e != half && next[e] == hi+sp.pairs+1; e++ {
				sp.pairs++
			}
			if !finishSpan(&sp, rank) {
				return nil
			}
			ph.spans = append(ph.spans, sp)
		}
		for _, c := range comps {
			next[plan.index(int(c.Lo))] = 0
		}
		// Rank order puts the spans a settled window covers at the ends
		// of the list, where the window cursors drop them.
		sort.Slice(ph.spans, func(i, j int) bool {
			a, b := &ph.spans[i], &ph.spans[j]
			if a.maxLoRank != b.maxLoRank {
				return a.maxLoRank < b.maxLoRank
			}
			return a.lo < b.lo
		})
		plan.curLen += 2 * len(ph.spans)
	}
	return plan
}

// finishSpan verifies monotonicity (every pair's min destination at the
// strictly lower target rank — what settled-window trimming rests on),
// accumulates the span's destination-rank bounds, and detects the affine
// rank pitch that enables end trimming. Returns false — no span plan —
// when a pair is non-monotone.
func finishSpan(s *span, rank []int32) bool {
	s.maxLoRank, s.minHiRank = -1, int32(len(rank))
	s.lr0, s.hr0 = rank[s.lo], rank[s.hi]
	if s.pairs > 1 {
		s.dl = rank[s.lo+1] - s.lr0
		s.dh = rank[s.hi+1] - s.hr0
	}
	s.affine = true
	for k := int32(0); k < s.pairs; k++ {
		lr, hr := rank[s.lo+k], rank[s.hi+k]
		if lr >= hr {
			return false
		}
		if lr != s.lr0+k*s.dl || hr != s.hr0+k*s.dh {
			s.affine = false
		}
		s.maxLoRank = max(s.maxLoRank, lr)
		s.minHiRank = min(s.minHiRank, hr)
	}
	return true
}

// permutationMin reports whether g holds a permutation of a contiguous
// range — the grids grid.NewTracker tracks with a DistinctTracker — and
// returns the range's minimum. A permutation of {0, 1} (at most two
// cells) is excluded: NewTracker tracks it as a 0-1 grid, whose
// ErrStepLimit count differs.
//
//meshlint:exempt oblivious input classification (which executor may run this trial), decided once before the first step
func permutationMin(g *grid.Grid) (int, bool) {
	cells := g.Cells()
	lo, hi := cells[0], cells[0]
	for _, v := range cells {
		lo = min(lo, v)
		hi = max(hi, v)
	}
	if uint(hi-lo) != uint(len(cells)-1) || (lo >= 0 && hi <= 1) {
		return 0, false
	}
	seen := make([]uint64, (len(cells)+63)/64)
	for _, v := range cells {
		d := uint(v - lo)
		if seen[d>>6]&(1<<(d&63)) != 0 {
			return 0, false
		}
		seen[d>>6] |= 1 << (d & 63)
	}
	return lo, true
}

// b2i converts a comparison outcome to a swap increment without a
// data-dependent branch (the compiler lowers it to a SETcc).
//
//meshlint:hot
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sweep compare-exchanges the pairs (lo+k, hi+k), k < pairs, of the
// shadow sh, smaller value to lo, and returns the number of exchanges
// (strict a > b, exactly like the comparator executors).
//
//meshlint:hot
func sweep(sh unsafe.Pointer, wide bool, lo, hi, pairs int32) int {
	if wide {
		return sweepLanes[uint32](sh, lo, hi, pairs)
	}
	return sweepLanes[uint16](sh, lo, hi, pairs)
}

// sweepLanes is sweep over shadow cells of type T. It works SWAR ("SIMD
// within a register"): a step's pairs are disjoint, so the lo and hi
// runs never overlap, and whole 64-bit words of each — four 16-bit or
// two 32-bit lanes — are loaded, compare-exchanged lane-wise, and stored
// back. With every lane below its top bit H:
//
//	gt = ^((y | H) − x) & H     H set in each lane where x > y
//	m  = gt | (gt − gt>>top)    that lane all ones, the others zero
//	x, y = x ^ (x^y)&m, y ^ (x^y)&m
//
// (y|H) − x never borrows across lanes because x < H. gt>>top adds one
// per exchanged lane to a lane-wise swap count, which one multiply sums
// at the end; neither a lane's count nor the sum can overflow a lane,
// since a span has at most N/2 pairs and N ≤ 32768 for 16-bit lanes. The lane geometry follows from T at compile time, so each
// instantiation runs on constants. The loads are unaligned native
// loads; the lanes are the cells in native order, so the arithmetic is
// the same on either byte order. The tail of fewer pairs than a word's
// lanes runs scalar: no store touches a lane outside the span, because
// shards sweep their spans concurrently.
//
//meshlint:hot
func sweepLanes[T uint16 | uint32](sh unsafe.Pointer, lo, hi, pairs int32) int {
	var zero T
	cell := uint64(^zero) // all ones in one cell: 0xFFFF or 0xFFFF_FFFF
	size := uintptr(2)
	if cell > 0xFFFF {
		size = 4
	}
	top := 8*size - 1
	high := ^uint64(0) / cell << top // every lane's top bit
	a := unsafe.Pointer(uintptr(sh) + uintptr(lo)*size)
	b := unsafe.Pointer(uintptr(sh) + uintptr(hi)*size)
	words := uintptr(pairs) * size >> 3
	swaps := 0
	// The scalar tail goes first so that little stays live across the
	// word loop, which would otherwise spill its temporaries.
	for off := 8 * words; off < uintptr(pairs)*size; off += size {
		pa, pb := (*T)(unsafe.Pointer(uintptr(a)+off)), (*T)(unsafe.Pointer(uintptr(b)+off))
		x, y := *pa, *pb
		*pa, *pb = min(x, y), max(x, y)
		swaps += b2i(x > y)
	}
	var acc uint64
	for i := uintptr(0); i < words; i++ {
		pa, pb := (*uint64)(unsafe.Pointer(uintptr(a)+8*i)), (*uint64)(unsafe.Pointer(uintptr(b)+8*i))
		x, y := *pa, *pb
		gt := ^((y | high) - x) & high
		one := gt >> top
		acc += one
		t := (x ^ y) & (gt | (gt - one))
		*pa, *pb = x^t, y^t
	}
	return swaps + int(acc*(high>>top)>>(63-top))
}

// execPhaseSpans runs one span list — a whole phase for the serial
// kernel, one shard's slice of a phase for the sharded kernel — for one
// step and returns the number of exchanges. win is the list's two
// active-window cursors [win[0], win[1]) and cur its per-span pair
// cursors (two per span, indexed 2j relative to spans); both advance
// permanently, exactly as documented on runDistinctSpans. Serial and
// sharded executors share this body, so their inner logic cannot drift.
//
//meshlint:exempt oblivious settled-window trimming around a branchless span sweep; exactness is proven by the differential suites
//meshlint:hot
func execPhaseSpans(sh unsafe.Pointer, wide bool, spans []span, cur, win []int32, p32, ns32 int32) int {
	swaps := 0
	jLo, jHi := win[0], win[1]
	for jLo < jHi {
		sp := &spans[jLo]
		if sp.maxLoRank >= p32 && sp.minHiRank < ns32 {
			break
		}
		jLo++
	}
	for jLo < jHi {
		sp := &spans[jHi-1]
		if sp.maxLoRank >= p32 && sp.minHiRank < ns32 {
			break
		}
		jHi--
	}
	win[0], win[1] = jLo, jHi
	for j := jLo; j < jHi; j++ {
		sp := &spans[j]
		if sp.maxLoRank < p32 || sp.minHiRank >= ns32 {
			continue
		}
		c := 2 * int(j)
		kLo, kHi := cur[c], cur[c+1]
		if sp.affine {
			// A pair whose min destination is already in the settled
			// prefix (lr < p) or whose max destination is in the
			// settled suffix (hr >= n-s) cannot swap — the same rule
			// runDistinctLazy trims by. Affine ranks put all such
			// pairs at the span's ends, one end per sign of the
			// pitch.
			if sp.dl > 0 {
				for kLo < kHi && sp.lr0+kLo*sp.dl < p32 {
					kLo++
				}
			} else if sp.dl < 0 {
				for kLo < kHi && sp.lr0+(kHi-1)*sp.dl < p32 {
					kHi--
				}
			}
			if sp.dh > 0 {
				for kLo < kHi && sp.hr0+(kHi-1)*sp.dh >= ns32 {
					kHi--
				}
			} else if sp.dh < 0 {
				for kLo < kHi && sp.hr0+kLo*sp.dh >= ns32 {
					kLo++
				}
			}
			cur[c], cur[c+1] = kLo, kHi
			if kLo >= kHi {
				continue
			}
		}
		swaps += sweep(sh, wide, sp.lo+kLo, sp.hi+kLo, kHi-kLo)
	}
	return swaps
}

// runDistinctSpans is the span kernel: the permutation fast path executed
// as span sweeps instead of comparator slices. The sweeps are branchless
// SWAR loops over the narrow shadow (see sweep), and the settled-window
// machinery of runDistinctLazy carries over at span granularity: once
// the P smallest values occupy their final cells, a span whose every
// min-destination rank lies below P cannot swap and is skipped whole
// (symmetrically for the suffix), so the early exit fires on exactly the
// same step. Skipped spans still count their comparisons, so Steps,
// Swaps, and Comparisons are bit-identical to every other executor — the
// differential suites prove it. minVal is the grid's smallest value, as
// found by permutationMin.
//
//meshlint:exempt oblivious settled-window completion detection around a branchless span sweep; exactness is proven by the differential suites
func runDistinctSpans(g *grid.Grid, plan *spanPlan, maxSteps, minVal int) (Result, error) {
	gc := g.Cells()
	n := plan.n
	sh := unsafe.Pointer(unsafe.SliceData(make([]uint64, plan.words())))
	plan.transfer(sh, gc, minVal, true)

	var res Result
	p, s := plan.settle(sh, 0, 0) // settled prefix / suffix sizes, in ranks
	if p+s >= n {
		res.Sorted = true
		return res, nil
	}

	// Per-run trim cursors, two per span: the active pair window
	// [cur[c], cur[c+1]) of each affine span. They only advance (the
	// settled windows only grow), so the trims are amortized O(1).
	// win holds two more cursors per phase bounding the active span
	// window [win[2i], win[2i+1]): a span whose skip condition holds is
	// skippable forever, so phases stop visiting their settled ends
	// entirely.
	cur := make([]int32, plan.curLen)
	win := make([]int32, 2*len(plan.phases))
	for i := range plan.phases {
		ph := &plan.phases[i]
		win[2*i+1] = int32(len(ph.spans))
		for j := range ph.spans {
			cur[ph.curOff+2*j+1] = ph.spans[j].pairs
		}
	}

	period := len(plan.phases)
	pi := 0
	for t := 1; t <= maxSteps; t++ {
		ph := &plan.phases[pi]
		w := 2 * pi
		if pi++; pi == period {
			pi = 0
		}
		swaps := execPhaseSpans(sh, plan.wide, ph.spans, cur[ph.curOff:], win[w:w+2], int32(p), int32(n-s))
		res.Swaps += int64(swaps)
		res.Comparisons += ph.pairs
		if p, s = plan.settle(sh, p, s); p+s >= n {
			res.Steps = t
			res.Sorted = true
			plan.transfer(sh, gc, minVal, false)
			return res, nil
		}
	}
	misplaced := plan.misplaced(sh, p, s)
	plan.transfer(sh, gc, minVal, false)
	return res, &ErrStepLimit{Algorithm: plan.name, MaxSteps: maxSteps, Misplaced: misplaced}
}
