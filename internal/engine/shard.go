package engine

import (
	"runtime"
	"sync"
	"unsafe"

	"repro/internal/grid"
)

// The sharded span executor partitions the mesh into contiguous row
// blocks and runs each phase's bands shard-parallel on a persistent
// worker pool, synchronizing at a phase barrier. It exists for the
// regime the serial span kernel cannot reach: one trial whose working
// set outgrows a single core's cache, where across-trial parallelism
// (mcbatch workers) stops scaling because every worker is thrashing the
// same shared cache on its own huge grid.
//
// Sharding is a pure scheduling change, so results are bit-identical to
// the serial span kernel for every shard count:
//
//   - The comparators of one step are pairwise disjoint (a schedule
//     invariant, enforced by tests and fuzzing), so executing them in
//     any order or concurrently writes the same cells the same way. A
//     pair whose two cells straddle a shard boundary is owned by the
//     shard holding its lo cell (for the schedules' column pairs, the
//     top cell) and simply writes one cell into its neighbor's rows;
//     disjointness makes that safe without coordination, and a sweep
//     stores only to the pairs of the band rows it was handed, all of
//     them one shard's.
//   - Skipping is exact-conservative: a row (or row piece) is skipped,
//     and a pair trimmed, only when the settled windows prove it a
//     no-op, so executing a different partition of the same pair set
//     skips at most different no-ops and never a live pair.
//   - Swap counts are integer sums over disjoint pair sets (order
//     independent), Comparisons adds the phase's precomputed pair
//     total, and the settled prefix/suffix advance serially at the
//     barrier — so Steps, Swaps, Comparisons, the early exit, and the
//     ErrStepLimit misplaced count all match the serial kernel exactly.
//
// The per-shard cursors (see span.go) live in per-shard arenas and are
// merged implicitly at the barrier: each shard trims only its own bands
// against the globally settled windows published with the phase job, so
// no cursor is ever shared between shards. Serial and sharded runs share
// one executor body, execPhaseBands; a shard's bands are the serial
// bands' rows cut at the shard's row boundaries and regrouped by the
// serial plan's groupBands.

const (
	// shardL2Budget is the working-set threshold below which sharding is
	// pointless: a whole shadow that fits one core's L2 is better served
	// by the serial kernel than by any barrier. Meshes large enough to
	// cross it have 32-bit shadow cells, hence four bytes per cell below.
	shardL2Budget = 512 << 10
	// minShardRows keeps auto-sharding from slicing the mesh thinner
	// than the barrier cost amortizes over.
	minShardRows = 32
	// maxShards bounds pool size against absurd requests.
	maxShards = 64
)

// AutoShards picks a shard count for an R×C mesh given a parallelism
// budget (how many procs intra-trial parallelism may claim). It returns
// 1 — no sharding — when the shadow fits one L2, when the budget is a
// single proc, or when the mesh is too short to give every shard
// minShardRows; otherwise it uses the budget, so every shard's row
// block is an L2-or-smaller tile walked by its own core.
func AutoShards(rows, cols, budget int) int {
	if rows*cols*4 <= shardL2Budget {
		return 1
	}
	shards := budget
	if byRows := rows / minShardRows; shards > byRows {
		shards = byRows
	}
	if shards > maxShards {
		shards = maxShards
	}
	if shards < 1 {
		shards = 1
	}
	return shards
}

// shardedPlan is a spanPlan split into contiguous row shards. Indexing
// is phases[pi][s], shard s's bands of phase pi; curLen[s] and winLen[s]
// are shard s's cursor-arena lengths.
type shardedPlan struct {
	plan   *spanPlan
	shards int
	curLen []int32
	winLen []int32
	phases [][][]band
}

// shardSpanPlan splits plan into `shards` contiguous row blocks of
// near-equal height (the first rows%shards blocks get the extra row). A
// pair is owned by the shard holding its lo cell's row. Each half of the
// shadow stores rows as consecutive blocks of cells in slot order — all
// rows in mesh order, the even rows and then the odd rows in parity slot
// order — so a shard's rows with one half and one row parity (or all of
// its rows, in mesh order) are one contiguous range of cells, and the
// ranges of all shards in turn tile that part of the half. A band row's
// lo cells are consecutive cells of one half, so each shard owns one
// contiguous k-range of it within each such part: a row is cut only
// where a part or a shard boundary falls inside it, and splitting
// preserves the pair set exactly. Each shard's pieces are then regrouped
// into bands by groupBands, the serial plan's grouping.
func shardSpanPlan(plan *spanPlan, shards int) *shardedPlan {
	// firstRow[s] is shard s's first row; firstRow[shards] = rows.
	firstRow := make([]int, shards+1)
	base, rem := plan.rows/shards, plan.rows%shards
	for s := 1; s <= shards; s++ {
		firstRow[s] = firstRow[s-1] + base
		if s <= rem {
			firstRow[s]++
		}
	}
	first, step := []int{0}, 1 // the row parts: every row
	if plan.slots {
		first, step = []int{0, 1}, 2 // the even rows, then the odd rows
	}
	var bounds [][]int32
	for c := 0; c < 2; c++ {
		for _, f := range first {
			bounds = append(bounds, partBounds(plan, firstRow, c, f, step))
		}
	}
	sp := &shardedPlan{
		plan:   plan,
		shards: shards,
		curLen: make([]int32, shards),
		winLen: make([]int32, shards),
		phases: make([][][]band, len(plan.phases)),
	}
	pieces := make([][]span, shards)
	for pi := range plan.phases {
		for s := range pieces {
			pieces[s] = pieces[s][:0]
		}
		for i := range plan.phases[pi].bands {
			b := &plan.phases[pi].bands[i]
			for j := int32(0); j < b.rows; j++ {
				row := b.row(j)
				for _, bound := range bounds {
					splitSpan(&row, bound, pieces)
				}
			}
		}
		parts := make([][]band, shards)
		for s := range parts {
			parts[s] = groupBands(pieces[s], &sp.curLen[s], &sp.winLen[s])
		}
		sp.phases[pi] = parts
	}
	return sp
}

// partBounds returns where each shard's rows start in one part of the
// shadow: the cells of column parity c of rows f, f+step, f+2·step, …,
// which the layout stores as consecutive blocks in row order. Entry s
// is the first cell of the part's first row at or after firstRow[s], or
// the part's end when there is none, so shard s owns the part's cells in
// [bound[s], bound[s+1]) and bound[0] and bound[shards] are the part's
// ends. f < rows holds because a split has at least one row per shard
// and at least two shards.
func partBounds(plan *spanPlan, firstRow []int, c, f, step int) []int32 {
	last := f + (plan.rows-1-f)/step*step
	end := plan.cell(last, c) + int32((plan.cols+1-c)/2)
	bound := make([]int32, len(firstRow))
	for s, r := range firstRow {
		bound[s] = end
		if g := f + (max(r-f, 0)+step-1)/step*step; g < plan.rows {
			bound[s] = plan.cell(g, c)
		}
	}
	return bound
}

// splitSpan appends sp's pieces to the shards owning them. Shard s owns
// the pairs k with bound[s] <= lo + k < bound[s+1]; a piece keeps sp's
// pitch and starts its ranks where its first pair's are. Pairs outside
// [bound[0], bound[len(pieces)]) are left to the other parts' bounds.
func splitSpan(sp *span, bound []int32, pieces [][]span) {
	for s := range pieces {
		kA := max(bound[s]-sp.lo, 0)
		kB := min(bound[s+1]-sp.lo, sp.pairs)
		if kB <= kA {
			continue
		}
		pieces[s] = append(pieces[s], span{
			lo: sp.lo + kA, hi: sp.hi + kA, pairs: kB - kA,
			lr0: sp.lr0 + kA*sp.dl, dl: sp.dl, hr0: sp.hr0 + kA*sp.dh, dh: sp.dh,
		})
	}
}

// shardArena is one shard's private cursor storage: the pair-trim
// cursors (two per row piece) and row-window cursors (two per band) of
// span.go, confined to the shard so no cursor is shared.
type shardArena struct {
	cur []int32
	win []int32
}

// shardJob is one phase barrier's payload: the phase index plus the
// settled windows as of the barrier, published identically to every
// shard.
type shardJob struct {
	pi   int32
	p32  int32 // settled prefix size, in ranks
	ns32 int32 // n minus settled suffix size
}

// ShardPool is a persistent pool of shard workers plus the arenas the
// sharded span executor reuses across runs, so steady-state trials are
// allocation-free. A pool serves one run at a time (mcbatch gives each
// trial worker its own); runs may use any shard count up to Shards().
// The coordinator executes shard 0 itself, so a pool for S shards runs
// S-1 goroutines.
type ShardPool struct {
	shards int
	start  []chan shardJob
	done   chan int
	wg     sync.WaitGroup

	// Run-scoped state, written by the coordinator while the workers are
	// parked and read by them only after receiving a job: the start-
	// channel send/receive pairs (and done-channel replies) order every
	// access, so none of these need locks.
	buf     []uint64 // shadow storage, grown to the largest plan run so far
	sh      unsafe.Pointer
	sharded *shardedPlan
	arenas  []shardArena

	// One-entry sharded-plan memo: mcbatch reuses a pool for a whole
	// batch of identical specs, so the split is computed once.
	lastPlan    *spanPlan
	lastShards  int
	lastSharded *shardedPlan
}

// NewShardPool starts a pool able to run up to `shards` row shards
// (clamped to [1, 64]). Close must be called to release the workers.
func NewShardPool(shards int) *ShardPool {
	if shards < 1 {
		shards = 1
	}
	if shards > maxShards {
		shards = maxShards
	}
	p := &ShardPool{
		shards: shards,
		start:  make([]chan shardJob, shards-1),
		done:   make(chan int, shards-1),
		arenas: make([]shardArena, shards),
	}
	for w := range p.start {
		p.start[w] = make(chan shardJob, 1)
		p.wg.Add(1)
		go p.worker(w, p.start[w])
	}
	return p
}

// Shards returns the pool's shard capacity.
func (p *ShardPool) Shards() int { return p.shards }

// Close stops the workers and waits for them to exit. The pool must be
// idle (no run in flight).
func (p *ShardPool) Close() {
	for _, ch := range p.start {
		close(ch)
	}
	p.wg.Wait()
}

// worker owns shard w+1 for every run dispatched through the pool: it
// executes that shard's slice of the announced phase against the
// run-scoped shadow and reports its swap count to the barrier.
func (p *ShardPool) worker(w int, jobs <-chan shardJob) {
	defer p.wg.Done()
	for job := range jobs {
		a := &p.arenas[w+1]
		p.done <- execPhaseBands(p.sh, p.sharded.plan.wide, p.sharded.phases[job.pi][w+1],
			a.cur, a.win, job.p32, job.ns32)
	}
}

// bind prepares the pool for a run of plan split `shards` ways: memoized
// sharded plan plus arenas grown (never shrunk) to fit, so repeated runs
// of one spec allocate nothing.
func (p *ShardPool) bind(plan *spanPlan, shards int) *shardedPlan {
	sharded := p.lastSharded
	if p.lastPlan != plan || p.lastShards != shards {
		sharded = shardSpanPlan(plan, shards)
		p.lastPlan, p.lastShards, p.lastSharded = plan, shards, sharded
	}
	for s := 0; s < shards; s++ {
		a := &p.arenas[s]
		if cap(a.cur) < int(sharded.curLen[s]) {
			a.cur = make([]int32, sharded.curLen[s])
		}
		a.cur = a.cur[:sharded.curLen[s]]
		if cap(a.win) < int(sharded.winLen[s]) {
			a.win = make([]int32, sharded.winLen[s])
		}
		a.win = a.win[:sharded.winLen[s]]
	}
	p.sharded = sharded
	return sharded
}

// resetCursors rewinds every shard's trim and window cursors to whole
// rows and whole windows, as at the start of a fresh run.
func (p *ShardPool) resetCursors(sharded *shardedPlan) {
	for _, parts := range sharded.phases {
		for s, bands := range parts {
			resetCursors(bands, p.arenas[s].cur, p.arenas[s].win)
		}
	}
}

// ClampShards bounds a requested shard count by what an R-row mesh can
// use: at most one shard per row, at most maxShards, and at least one.
// Run clamps every sharded request with it, so a caller that reports the
// shard count (mcbatch's Batch.Shards) clamps with it too and reports
// what actually runs.
func ClampShards(shards, rows int) int {
	return max(1, min(shards, rows, maxShards))
}

// resolveShards turns the run's hints into an effective shard count: an
// explicit Options.Shards is honored, otherwise AutoShards decides with
// the pool's capacity (or GOMAXPROCS) as the budget; either way the
// count is clamped to the pool capacity and by ClampShards.
func resolveShards(opts Options, rows, cols int) int {
	shards := opts.Shards
	if shards <= 0 {
		budget := runtime.GOMAXPROCS(0)
		if opts.ShardPool != nil {
			budget = opts.ShardPool.shards
		}
		shards = AutoShards(rows, cols, budget)
	}
	if opts.ShardPool != nil {
		shards = min(shards, opts.ShardPool.shards)
	}
	return ClampShards(shards, rows)
}

// runDistinctSpansSharded is the sharded span kernel. Structure and
// counters mirror runDistinctSpans exactly — shared shadow, shared
// execPhaseBands inner loop, serial settled-window advancement — with
// the phase's bands pre-partitioned into row shards and dispatched to
// the pool at each step. See the package comment above for why the
// partition cannot change results.
//
//meshlint:exempt oblivious settled-window completion detection around branchless span sweeps; exactness is proven by the differential suites
func runDistinctSpansSharded(g *grid.Grid, plan *spanPlan, maxSteps, minVal, shards int, pool *ShardPool) (Result, error) {
	if pool != nil {
		shards = min(shards, pool.shards)
	}
	if shards <= 1 {
		return runDistinctSpans(g, plan, maxSteps, minVal)
	}
	if pool == nil {
		pool = NewShardPool(shards)
		defer pool.Close()
	}
	sharded := pool.bind(plan, shards)

	gc := g.Cells()
	n := plan.n
	if words := plan.words(); cap(pool.buf) < words {
		pool.buf = make([]uint64, words)
	}
	pool.sh = unsafe.Pointer(unsafe.SliceData(pool.buf))
	sh := pool.sh
	plan.transfer(sh, gc, minVal, true)

	var res Result
	p, s := plan.settle(sh, 0, 0) // settled prefix / suffix sizes, in ranks
	if p+s >= n {
		res.Sorted = true
		return res, nil
	}
	pool.resetCursors(sharded)
	period := len(plan.phases)
	pi := 0
	for t := 1; t <= maxSteps; t++ {
		ph := pi
		if pi++; pi == period {
			pi = 0
		}
		p32, ns32 := int32(p), int32(n-s)
		job := shardJob{pi: int32(ph), p32: p32, ns32: ns32}
		for w := 0; w < shards-1; w++ {
			pool.start[w] <- job
		}
		a := &pool.arenas[0]
		swaps := execPhaseBands(sh, plan.wide, sharded.phases[ph][0], a.cur, a.win, p32, ns32)
		for w := 0; w < shards-1; w++ {
			swaps += <-pool.done
		}
		res.Swaps += int64(swaps)
		res.Comparisons += plan.phases[ph].pairs
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
