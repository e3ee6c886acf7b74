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
	// general loop otherwise. This is the default.
	KernelAuto Kernel = iota
	// KernelGeneric forces the general tracker loop, which is also what
	// non-permutation inputs always use.
	KernelGeneric
	// KernelSpan requests the span kernel. Runs that are not eligible for
	// any fast path (observers, custom trackers, duplicate values) or
	// whose schedule has no span plan silently fall back to the general
	// loop, so the option is a hint, never an error.
	KernelSpan
	// KernelSliced names the trial-sliced 0-1 kernel (64 trials of one
	// cell per word), mcbatch's executor for ZeroOne batches. It is a
	// batch-level name: the engine itself treats it as KernelAuto.
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
// runs. The shadow holds all even-column cells, then all odd-column
// cells; within each half a mesh row is a block of E = ⌈C/2⌉ or
// O = ⌊C/2⌋ consecutive cells, and the blocks come in slot order: cell
// (r, c) lives at slot(r)·E + c/2 when c is even and at
// R·E + slot(r)·O + c/2 when c is odd. In that layout:
//
//   - a row pair (r, c)-(r, c+1) joins an even and an odd cell whose
//     indices both advance by one as c advances by two, whatever the
//     parity of c and whichever cell takes the minimum;
//   - column pairs (r, c)-(r+1, c) of one column parity lie in one half
//     and advance by one as c advances by two, so the uniform and the
//     alternating column steps are both unit-stride.
//
// Slots come in one of two orders, fixed per schedule by buildSpanPlan.
// Mesh order (slot(r) = r) keeps a row's block next to the next row's,
// so a run that goes on from one row into the next stays one span: the
// row-major schedules' full row steps are one run of N/2 pairs, and the
// wrap pair (r, C−1)-(r+1, 0) continues row r's odd-start pairs into one
// run of N/2−1. Parity slot order stores the even rows first, then the
// odd rows (slot(r) = r/2, or ⌈R/2⌉ + r/2 for odd r), so the rows of one
// parity are consecutive blocks: a column step, pairing each even row
// with an odd one, and a row step whose rows use every cell of their
// blocks become bands whose rows sit back to back in both roles, which
// sweep runs as one run (see sweep).
//
// A span is therefore just pair k = (lo+k, hi+k), k < pairs, with lo the
// min destination. The spans of one phase repeat at a fixed stride — one
// per mesh row or row pair and column parity — so the plan folds them
// into bands, and one sweep serves every band.

// span is one run of a phase, the unit the plan is built from: pair k
// compares shadow cells lo+k (receives the minimum) and hi+k, and its
// destination ranks are affine along the span — pair k's min destination
// is lr0 + k·dl and its max destination hr0 + k·dh. For the six
// schedules a span walks one row or row pair two columns at a time, and
// rows occupy consecutive ranks in each target order. buildSpanPlan cuts
// every run where its ranks leave their pitch, so every span is affine
// whatever the schedule. A span of more than one pair never has zero
// pitch, because ranks are distinct.
type span struct {
	lo, hi  int32 // shadow cells of pair 0: min and max destination
	pairs   int32
	lr0, dl int32 // pair k's min-destination rank: lr0 + k·dl
	hr0, dh int32 // pair k's max-destination rank: hr0 + k·dh
}

// band is a span repeated rows times: row j is the span with
// lo + j·sLo, hi + j·sHi and destination ranks shifted by j·rl and j·rh.
// A band's rows have disjoint, increasing destination-rank ranges
// (rl > |dl|·(pairs−1) and rh > |dh|·(pairs−1)), so a settled prefix
// covers a prefix of its rows and a settled suffix a suffix of them, and
// only the first and last active row can have a settled pair (see
// execBands). maxLoRank and minHiRank bound row 0's destination ranks:
// a row is a guaranteed no-op once the settled prefix covers every
// min-destination rank (maxLoRank < p) or the settled suffix covers
// every max-destination rank (minHiRank >= n−s). cur and win locate the
// band's cursors in the run's arrays: two pair cursors per row at
// cur+2j, and the two row-window cursors at win.
type band struct {
	span
	rows      int32
	sLo, sHi  int32 // shadow stride between rows
	rl, rh    int32 // rank stride between rows
	maxLoRank int32 // row 0's bounds; row j's are shifted by j·rl and j·rh
	minHiRank int32
	cur, win  int32
}

// row returns row j of b as a span.
func (b *band) row(j int32) span {
	return span{lo: b.lo + j*b.sLo, hi: b.hi + j*b.sHi, pairs: b.pairs,
		lr0: b.lr0 + j*b.rl, dl: b.dl, hr0: b.hr0 + j*b.rh, dh: b.dh}
}

// spanPhase is one schedule step as bands, plus the step's total
// comparator count (trimmed pairs still count as comparisons).
type spanPhase struct {
	pairs int64
	bands []band
}

// spanPlan is the engine-level compilation of a schedule for the span
// kernel: the shadow geometry, the rank layout of the target order, and
// every phase as bands. A plan only exists for schedules whose steps are
// pairwise disjoint and monotone (every comparator sends the smaller
// value to the strictly lower target rank), which is what makes the
// kernel's two exact accelerations sound:
//
// Settled windows. Once the P lowest target ranks hold their final values
// (the P smallest values, in position), no comparator can disturb them: a
// comparator whose min destination is settled compares one of the P
// smallest values against a necessarily larger one and never swaps, and
// by monotonicity a comparator cannot have only its max destination
// settled. The settled prefix therefore only grows, and the comparators
// it covers are skipped outright. A settled suffix of the S largest
// values is symmetric. Skipped comparators still count as comparisons
// (the synchronous machine evaluates them; the kernel just knows their
// outcome), so Steps, Swaps, and Comparisons are bit-identical to the
// general loop.
//
// Completion. The grid is sorted exactly when P+S covers every rank, and
// extending P and S after each step stops at the first unsettled rank,
// so detection is O(1) amortized per step and the first sorted step is
// reported exactly.
type spanPlan struct {
	name       string
	n          int
	rows, cols int
	slots      bool    // parity slot order, else mesh order (see the layout above)
	wide       bool    // 32-bit shadow cells (n > 32768), else 16-bit
	curLen     int32   // pair cursors: two per band row across all phases
	winLen     int32   // row-window cursors: two per band across all phases
	rankPos    []int32 // rankPos[m] = shadow cell of target rank m
	phases     []spanPhase
}

// half is the shadow index of the first odd-column cell.
func (p *spanPlan) half() int { return p.rows * ((p.cols + 1) / 2) }

// index maps flat cell f to its shadow cell.
func (p *spanPlan) index(f int) int32 { return p.cell(f/p.cols, f%p.cols) }

// slot returns the position of row r's block within each half.
func (p *spanPlan) slot(r int) int {
	switch {
	case !p.slots:
		return r
	case r&1 == 0:
		return r >> 1
	}
	return (p.rows+1)>>1 + r>>1
}

// rowAt returns the row whose block sits at slot s, inverting slot.
func (p *spanPlan) rowAt(s int) int {
	switch even := (p.rows + 1) >> 1; {
	case !p.slots:
		return s
	case s < even:
		return 2 * s
	default:
		return 2*(s-even) + 1
	}
}

// cell maps cell (r, c) to its shadow cell.
func (p *spanPlan) cell(r, c int) int32 {
	if c&1 == 0 {
		return int32(p.slot(r)*((p.cols+1)/2) + c>>1)
	}
	return int32(p.half() + p.slot(r)*(p.cols/2) + c>>1)
}

// flat maps shadow cell i back to its flat cell, inverting index.
func (p *spanPlan) flat(i int32) int {
	if h := p.half(); int(i) >= h {
		j, odd := int(i)-h, p.cols/2
		return p.rowAt(j/odd)*p.cols + 2*(j%odd) + 1
	}
	even := (p.cols + 1) / 2
	return p.rowAt(int(i)/even)*p.cols + 2*(int(i)%even)
}

// comparators expands phase pi back into flat comparators, band by band
// and row by row.
func (p *spanPlan) comparators(pi int) []sched.Comparator {
	return p.expand(p.phases[pi].bands)
}

// expand lists the flat comparators of bands.
func (p *spanPlan) expand(bands []band) []sched.Comparator {
	var out []sched.Comparator
	for i := range bands {
		for j := int32(0); j < bands[i].rows; j++ {
			sp := bands[i].row(j)
			for k := int32(0); k < sp.pairs; k++ {
				out = append(out, sched.Comparator{Lo: int32(p.flat(sp.lo + k)), Hi: int32(p.flat(sp.hi + k))})
			}
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
// shadow back into the grid (!in), row by row from the row's two block
// starts, so no cell costs a division or a slot lookup.
func (p *spanPlan) transfer(sh unsafe.Pointer, gc []int, minVal int, in bool) {
	for r := 0; r < p.rows; r++ {
		row := gc[r*p.cols : (r+1)*p.cols]
		base := [2]int32{p.cell(r, 0), p.cell(r, 1)} // cell (r, c) is base[c&1] + c/2
		for c := range row {
			i := base[c&1] + int32(c>>1)
			if in {
				p.set(sh, i, uint32(row[c]-minVal))
			} else {
				row[c] = minVal + int(p.get(sh, i))
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
// its top bit is always clear (see sweep).
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
// values get a fresh plan per run, so repeated one-off constructions
// cannot grow the map without bound.
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
// step's comparators overlap or one is non-monotone. It picks the slot
// order once, from the schedule: parity slots store rows r and r+1 apart
// and so cut every span that runs on from one row into the next. Mesh
// order is kept when such a span exists — the row-major schedules' full
// row steps, and the wrap phase of rm-rf and rm-cf — and parity slots
// are used otherwise, which is every schedule whose target order turns
// at each row end (the snakes and shearsort).
func buildSpanPlan(s sched.Schedule, g *grid.Grid) *spanPlan {
	phases := sched.PhasesOf(s)
	plan := compileSpanPlan(s, g, phases, false)
	if plan == nil || plan.runsOn() {
		return plan
	}
	return compileSpanPlan(s, g, phases, true)
}

// runsOn reports whether a span of p has cells in two rows, in either
// role.
func (p *spanPlan) runsOn() bool {
	for _, ph := range p.phases {
		for i := range ph.bands {
			b := &ph.bands[i]
			for j := int32(0); j < b.rows; j++ {
				sp := b.row(j)
				last := sp.pairs - 1
				if p.flat(sp.lo)/p.cols != p.flat(sp.lo+last)/p.cols || p.flat(sp.hi)/p.cols != p.flat(sp.hi+last)/p.cols {
					return true
				}
			}
		}
	}
	return false
}

// compileSpanPlan compiles phases, the steps of s, in the given slot
// order. Each phase is built in O(pairs): every pair is placed at its lo
// cell, a pair whose predecessor cell does not hold the pair (lo−1, hi−1)
// starts a span, and the span extends while both ends advance by one.
// Spans never cross from the even half into the odd half, so each span's
// lo cells lie in one half and the sharded executor can cut it by rows.
// groupBands then folds each phase's spans into bands. A step whose
// comparators overlap or send a minimum to the higher rank gets no plan.
func compileSpanPlan(s sched.Schedule, g *grid.Grid, phases [][]sched.Comparator, slots bool) *spanPlan {
	rows, cols := s.Dims()
	n := rows * cols
	order := s.Order()
	plan := &spanPlan{name: s.Name(), n: n, rows: rows, cols: cols, slots: slots, wide: n > 1<<15, rankPos: make([]int32, n)}
	rank := make([]int32, n) // rank[i] = target rank of shadow cell i
	for m := 0; m < n; m++ {
		i := plan.index(g.RankFlat(order, m))
		plan.rankPos[m] = i
		rank[i] = int32(m)
	}
	half := int32(plan.half())
	plan.phases = make([]spanPhase, len(phases))
	next := make([]int32, n) // next[lo] = hi+1 of the current phase's pair at lo, 0 if none
	used := make([]int32, n) // used[i] = 1 + index of the last phase touching cell i
	var spans []span
	for pi, comps := range phases {
		ph := &plan.phases[pi]
		ph.pairs = int64(len(comps))
		stamp := int32(pi + 1)
		for _, c := range comps {
			lo, hi := plan.index(int(c.Lo)), plan.index(int(c.Hi))
			if used[lo] == stamp || used[hi] == stamp || lo == hi {
				return nil
			}
			used[lo], used[hi] = stamp, stamp
			next[lo] = hi + 1
		}
		spans = spans[:0]
		for _, c := range comps {
			lo := plan.index(int(c.Lo))
			hi := next[lo] - 1
			if lo != half && lo > 0 && hi > 0 && next[lo-1] == hi {
				continue // not the first pair of its run
			}
			run := int32(1)
			for e := lo + 1; e < int32(n) && e != half && next[e] == hi+run+1; e++ {
				run++
			}
			// Cut the run where its destination ranks leave their pitch
			// (at odd sides a snake's reverse row and the forward row
			// below it form one run).
			for run > 0 {
				sp := span{lo: lo, hi: hi, pairs: min(run, 2)}
				sp.lr0, sp.hr0 = rank[lo], rank[hi]
				if sp.pairs > 1 {
					sp.dl, sp.dh = rank[lo+1]-sp.lr0, rank[hi+1]-sp.hr0
				}
				for sp.pairs < run && rank[lo+sp.pairs] == sp.lr0+sp.pairs*sp.dl && rank[hi+sp.pairs] == sp.hr0+sp.pairs*sp.dh {
					sp.pairs++
				}
				// Every pair must send the minimum to the strictly lower
				// rank; the ranks are affine, so the two end pairs decide.
				if last := sp.pairs - 1; sp.lr0 >= sp.hr0 || sp.lr0+last*sp.dl >= sp.hr0+last*sp.dh {
					return nil
				}
				spans = append(spans, sp)
				lo, hi, run = lo+sp.pairs, hi+sp.pairs, run-sp.pairs
			}
		}
		for _, c := range comps {
			next[plan.index(int(c.Lo))] = 0
		}
		ph.bands = groupBands(spans, &plan.curLen, &plan.winLen)
	}
	return plan
}

// groupBands folds spans into bands and assigns each band its cursor
// slots, advancing *curLen by two per row and *winLen by two per band.
// Spans join one band when they have the same pairs and pitch, their lo,
// hi, lr0 and hr0 each advance by a constant stride, and the rows'
// destination-rank ranges are disjoint and increasing:
// rl > |dl|·(pairs−1) and rh > |dh|·(pairs−1). The spans are sorted by
// (pairs, pitch, lo) and joined greedily; a span that fits no run is a
// band of one row. The serial plan and every shard of the sharded plan
// group with this one function.
func groupBands(spans []span, curLen, winLen *int32) []band {
	sort.Slice(spans, func(i, j int) bool {
		a, b := &spans[i], &spans[j]
		switch {
		case a.pairs != b.pairs:
			return a.pairs < b.pairs
		case a.dl != b.dl:
			return a.dl < b.dl
		case a.dh != b.dh:
			return a.dh < b.dh
		}
		return a.lo < b.lo
	})
	var bands []band
	for i := 0; i < len(spans); {
		b := band{span: spans[i], rows: 1}
		if i+1 < len(spans) && joins(&spans[i], &spans[i+1]) {
			s, t := &spans[i], &spans[i+1]
			b.sLo, b.sHi, b.rl, b.rh = t.lo-s.lo, t.hi-s.hi, t.lr0-s.lr0, t.hr0-s.hr0
			for b.rows = 2; i+int(b.rows) < len(spans) && spans[i+int(b.rows)] == b.row(b.rows); b.rows++ {
			}
		}
		last := b.pairs - 1
		b.maxLoRank = max(b.lr0, b.lr0+last*b.dl)
		b.minHiRank = min(b.hr0, b.hr0+last*b.dh)
		b.cur, b.win = *curLen, *winLen
		*curLen += 2 * b.rows
		*winLen += 2
		bands = append(bands, b)
		i += int(b.rows)
	}
	return bands
}

// joins reports whether t can follow s as the next row of a band: the
// same pairs and pitch, and t's destination ranks strictly above all of
// s's (the rank strides exceed a row's rank spread).
func joins(s, t *span) bool {
	spread := func(d int32) int32 { return max(d, -d) * (s.pairs - 1) }
	return s.pairs == t.pairs && s.dl == t.dl && s.dh == t.dh &&
		t.lr0-s.lr0 > spread(s.dl) && t.hr0-s.hr0 > spread(s.dh)
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

// lanes returns the SWAR geometry of shadow cells of type T: the bytes
// per cell, the bit index of a lane's top bit, and every lane's top bit.
// It follows from T at compile time, so each instantiation of its
// callers runs on constants.
//
//meshlint:hot
func lanes[T uint16 | uint32]() (size, top uintptr, high uint64) {
	var zero T
	cell := uint64(^zero) // all ones in one cell: 0xFFFF or 0xFFFF_FFFF
	size = 2
	if cell > 0xFFFF {
		size = 4
	}
	top = 8*size - 1
	return size, top, ^uint64(0) / cell << top
}

// sweep compare-exchanges the pairs (lo+k, hi+k), k < pairs, of each of
// rows ≥ 1 rows of the shadow sh — row j shifted by j·sLo and j·sHi cells —
// smaller value to lo, and returns the number of exchanges (strict a > b,
// exactly like the comparator executors). It works SWAR ("SIMD within a
// register"): a step's pairs are disjoint, so the lo and hi runs never
// overlap, and whole 64-bit words of each — four 16-bit or two 32-bit
// lanes — are loaded, compare-exchanged lane-wise, and stored back. With
// every lane below its top bit H:
//
//	gt = ^((y | H) − x) & H     H set in each lane where x > y
//	m  = gt − gt>>top           that lane's low bits all ones, the others zero
//	x, y = x ^ (x^y)&m, y ^ (x^y)&m
//
// (y|H) − x never borrows across lanes because x < H, and x^y has every
// top bit clear, so m need not cover it. gt>>top adds one per exchanged
// lane to a lane-wise swap count, which one multiply sums at the end;
// neither a lane's count nor the sum can overflow a lane, since a phase
// has at most N/2 pairs and N ≤ 32768 for 16-bit lanes. The loads are
// unaligned native loads; the lanes are the cells in native order, so
// the arithmetic is the same on either byte order.
//
// A band whose rows sit back to back in both roles (sLo = sHi = pairs,
// as parity slots make every column step) is one run of rows·pairs pairs:
// its rows' pairs are disjoint and contiguous, so no store leaves them.
// Runs shorter than one word run scalar. Longer runs go through
// sweepRow, one call per run: with the row loop in the same function the
// word loop spilled its temporaries to the stack.
//
//meshlint:hot
func sweep[T uint16 | uint32](sh unsafe.Pointer, lo, hi, pairs, rows, sLo, sHi int32) int {
	size, top, high := lanes[T]()
	if sLo == pairs && sHi == pairs {
		pairs, rows = pairs*rows, 1
	}
	bytes := uintptr(pairs) * size
	if bytes < 8 {
		swaps := 0
		for j := int32(0); j < rows; j++ {
			for off := uintptr(0); off < bytes; off += size {
				pa := (*T)(unsafe.Pointer(uintptr(sh) + uintptr(lo+j*sLo)*size + off))
				pb := (*T)(unsafe.Pointer(uintptr(sh) + uintptr(hi+j*sHi)*size + off))
				x, y := *pa, *pb
				*pa, *pb = min(x, y), max(x, y)
				swaps += b2i(x > y)
			}
		}
		return swaps
	}
	a := unsafe.Pointer(uintptr(sh) + uintptr(lo)*size)
	b := unsafe.Pointer(uintptr(sh) + uintptr(hi)*size)
	acc := sweepRow[T](a, b, bytes)
	for j := int32(1); j < rows; j++ {
		// Step only onto rows that exist: a pointer past the shadow
		// would fail the checkptr instrumentation of -race builds.
		a = unsafe.Pointer(uintptr(a) + uintptr(sLo)*size)
		b = unsafe.Pointer(uintptr(b) + uintptr(sHi)*size)
		acc += sweepRow[T](a, b, bytes)
	}
	return int(acc * (high >> top) >> (63 - top))
}

// sweepRow compare-exchanges one run — the cells in the first bytes ≥ 8
// bytes at a against those at b — and returns the swap marks summed per
// lane (see sweep). When bytes is not a whole number of words, the last
// word is swept first, overlapping the word before it; then, when the
// whole words are odd in number, the first one; then the rest two words
// per iteration, into two accumulators so that neither sum waits on the
// other. Compare-exchange is idempotent and an ordered pair never swaps,
// so the overlapped pairs are neither changed nor counted twice, and no
// store leaves the run, which the sharded executor needs because shards
// sweep concurrently. Sweeping the overlapped word first keeps the word
// before it from loading bytes just stored at another alignment.
//
//meshlint:hot
func sweepRow[T uint16 | uint32](a, b unsafe.Pointer, bytes uintptr) uint64 {
	_, top, high := lanes[T]()
	var acc0, acc1 uint64
	if bytes&7 != 0 {
		acc0 = exchange(a, b, bytes-8, high, top)
	}
	off := uintptr(0)
	if bytes&8 != 0 {
		acc1 = exchange(a, b, 0, high, top)
		off = 8
	}
	for ; off+16 <= bytes; off += 16 {
		acc0 += exchange(a, b, off, high, top)
		acc1 += exchange(a, b, off+8, high, top)
	}
	return acc0 + acc1
}

// exchange compare-exchanges the words at byte offset off of a and b
// lane-wise (see sweep) and returns one in the low bit of each lane that
// swapped.
//
//meshlint:hot
func exchange(a, b unsafe.Pointer, off uintptr, high uint64, top uintptr) uint64 {
	pa, pb := (*uint64)(unsafe.Pointer(uintptr(a)+off)), (*uint64)(unsafe.Pointer(uintptr(b)+off))
	x, y := *pa, *pb
	gt := ^((y | high) - x) & high
	one := gt >> top
	t := (x ^ y) & (gt - one)
	*pa, *pb = x^t, y^t
	return one
}

// execPhaseBands runs one band list — a whole phase for the serial
// kernel, one shard's share of a phase for the sharded kernel — for one
// step and returns the number of exchanges. cur and win are the run's
// cursor arrays, indexed by each band's cur and win; both advance
// permanently, as documented on runDistinctSpans. Serial and sharded
// executors share this body, so their inner logic cannot drift.
//
//meshlint:hot
func execPhaseBands(sh unsafe.Pointer, wide bool, bands []band, cur, win []int32, p32, ns32 int32) int {
	if wide {
		return execBands[uint32](sh, bands, cur, win, p32, ns32)
	}
	return execBands[uint16](sh, bands, cur, win, p32, ns32)
}

// execBands is execPhaseBands over shadow cells of type T. Each band
// first narrows its row window [jLo, jHi) past rows the settled windows
// cover whole. Rows strictly inside the window are then never trimmed:
// row jLo is active, so its largest min-destination rank is at least the
// settled prefix p, and every later row's ranks lie above row jLo's, so
// no later row has a pair below p; symmetrically only row jHi−1 can have
// a pair in the settled suffix. The two edge rows are trimmed with their
// pair cursors, and every untrimmed row is swept in one call.
//
//meshlint:hot
func execBands[T uint16 | uint32](sh unsafe.Pointer, bands []band, cur, win []int32, p32, ns32 int32) int {
	swaps := 0
	for i := range bands {
		b := &bands[i]
		jLo, jHi := win[b.win], win[b.win+1]
		for jLo < jHi && (b.maxLoRank+jLo*b.rl < p32 || b.minHiRank+jLo*b.rh >= ns32) {
			jLo++
		}
		for jLo < jHi && (b.maxLoRank+(jHi-1)*b.rl < p32 || b.minHiRank+(jHi-1)*b.rh >= ns32) {
			jHi--
		}
		win[b.win], win[b.win+1] = jLo, jHi
		if jLo == jHi {
			continue
		}
		// Rows [first, end) are swept whole; a trimmed edge row is swept
		// on its own.
		first, end := jLo, jHi
		if kLo, kHi := trim(b, cur, jLo, p32, ns32); kHi-kLo != b.pairs {
			swaps += sweep[T](sh, b.lo+jLo*b.sLo+kLo, b.hi+jLo*b.sHi+kLo, kHi-kLo, 1, 0, 0)
			first++
		}
		if j := jHi - 1; j > jLo {
			if kLo, kHi := trim(b, cur, j, p32, ns32); kHi-kLo != b.pairs {
				swaps += sweep[T](sh, b.lo+j*b.sLo+kLo, b.hi+j*b.sHi+kLo, kHi-kLo, 1, 0, 0)
				end--
			}
		}
		if first < end {
			swaps += sweep[T](sh, b.lo+first*b.sLo, b.hi+first*b.sHi, b.pairs, end-first, b.sLo, b.sHi)
		}
	}
	return swaps
}

// trim advances row j's pair cursors past the pairs the settled windows
// cover and returns the row's active pairs [kLo, kHi). A pair whose min
// destination is already in the settled prefix (lr < p) or whose max
// destination is in the settled suffix (hr >= n−s) cannot swap (see
// spanPlan for why). Affine ranks put all such pairs at the row's ends,
// one end per sign of the pitch (a one-pair row has zero pitch and is
// left to the row window). The settled windows only grow, so the cursors
// only advance and the trims are amortized O(1) over a run.
//
//meshlint:hot
func trim(b *band, cur []int32, j, p32, ns32 int32) (int32, int32) {
	c := b.cur + 2*j
	kLo, kHi := cur[c], cur[c+1]
	lr0, hr0 := b.lr0+j*b.rl, b.hr0+j*b.rh
	if b.dl > 0 {
		for kLo < kHi && lr0+kLo*b.dl < p32 {
			kLo++
		}
	} else if b.dl < 0 {
		for kLo < kHi && lr0+(kHi-1)*b.dl < p32 {
			kHi--
		}
	}
	if b.dh > 0 {
		for kLo < kHi && hr0+(kHi-1)*b.dh >= ns32 {
			kHi--
		}
	} else if b.dh < 0 {
		for kLo < kHi && hr0+kLo*b.dh >= ns32 {
			kLo++
		}
	}
	cur[c], cur[c+1] = kLo, kHi
	return kLo, kHi
}

// resetCursors rewinds the cursors of bands to whole rows and whole
// windows, as at the start of a fresh run.
func resetCursors(bands []band, cur, win []int32) {
	for i := range bands {
		b := &bands[i]
		win[b.win], win[b.win+1] = 0, b.rows
		for j := int32(0); j < b.rows; j++ {
			cur[b.cur+2*j], cur[b.cur+2*j+1] = 0, b.pairs
		}
	}
}

// runDistinctSpans is the span kernel: the permutation fast path executed
// as band sweeps instead of comparator slices. The sweeps are branchless
// SWAR loops over the narrow shadow (see sweep), and the settled-window
// argument (see spanPlan) applies at row granularity: once the P
// smallest values occupy their final cells, a row whose every
// min-destination rank lies below P cannot swap and is skipped whole
// (symmetrically for the suffix), so the early exit fires on exactly the
// same step. Skipped rows still count their comparisons, so Steps,
// Swaps, and Comparisons are bit-identical to every other executor — the
// differential suites prove it. minVal is the grid's smallest value, as
// found by permutationMin.
//
//meshlint:exempt oblivious settled-window completion detection around a branchless band sweep; exactness is proven by the differential suites
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

	// Per-run cursors: cur holds two per band row, the row's active pair
	// window, and win two per band, the band's active row window. Both
	// only advance (the settled windows only grow): a trimmed pair or a
	// skipped row stays so, and phases stop visiting their settled ends
	// entirely.
	cur := make([]int32, plan.curLen)
	win := make([]int32, plan.winLen)
	for i := range plan.phases {
		resetCursors(plan.phases[i].bands, cur, win)
	}

	period := len(plan.phases)
	pi := 0
	for t := 1; t <= maxSteps; t++ {
		ph := &plan.phases[pi]
		if pi++; pi == period {
			pi = 0
		}
		swaps := execPhaseBands(sh, plan.wide, ph.bands, cur, win, int32(p), int32(n-s))
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
