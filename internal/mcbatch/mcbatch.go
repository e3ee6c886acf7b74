// Package mcbatch is the batched Monte-Carlo trial engine behind the
// experiment harness. Every quantitative claim reproduced from the paper
// (E[steps], variances, Chebyshev tails) is estimated by running K
// independent trials on random inputs; this package makes that trial loop
// the optimized subsystem:
//
//   - Schedules are compiled once per (algorithm, rows, cols) and shared
//     read-only across all trials (sched.Cached), so no trial pays the
//     construction cost or the per-step Step(t) interface dispatch.
//   - Trials are sharded over a pool of worker goroutines. Each trial
//     derives its own PCG stream from (master seed, trial index), so the
//     sample — and therefore every derived statistic — is bit-identical
//     under any worker count, including Workers=1.
//   - Per-trial statistics aggregate into a Welford accumulator per fixed
//     64-trial slice, merged in slice order (stats.MergeAll), so the
//     floating-point aggregate is deterministic for every worker count
//     and executor.
//   - Workers reuse their scratch (generator, input grid or packed
//     lanes, trial slice) across the trials they claim, so the
//     steady-state trial loop allocates nothing per trial for the
//     canonical workloads.
//   - Each workload class has one executor: permutation batches run the
//     engine's span kernel (SWAR sweeps of unit-stride runs) and ZeroOne
//     batches the trial-sliced 0-1 kernel (64 trials in lockstep, one bit
//     lane each). Spec.Kernel = KernelGeneric pins the engine's general
//     loop instead, the reference the differential harness
//     (internal/kerneltest) compares batches against; every executor is
//     bit-identical on its class, so the choice never changes results.
package mcbatch

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/stats"
	"repro/internal/workload"
	"repro/internal/zeroone"
)

// MapCtx runs fn(0..n-1) across a pool of `workers` goroutines (0 means
// GOMAXPROCS) and returns the results in index order. Work is handed out
// by an atomic counter, so any worker may run any index — determinism is
// the callback's job: fn must depend only on its index (the per-trial RNG
// stream discipline). If several calls fail, the error of the smallest
// index is returned, so the reported failure is also deterministic.
//
// Cancelling ctx stops the batch between indices: every worker checks the
// context before claiming the next index, so a timed-out or abandoned
// caller stops burning CPU after at most one in-flight fn call per worker.
// A cancelled batch returns ctx's error (it wins over any fn error, which
// keeps the reported failure deterministic under racing cancellation) and
// nil results.
func MapCtx[T any](ctx context.Context, workers, n int, fn func(i int) (T, error)) ([]T, error) {
	return mapWorkers(ctx, workers, n,
		func() struct{} { return struct{}{} },
		func(_ struct{}, i int) (T, error) { return fn(i) })
}

// mapWorkers is MapCtx plus per-worker scratch state: every goroutine of
// the pool calls newState once and passes its value to each fn call it
// executes, so reusable buffers live exactly as long as a worker and are
// never shared between concurrent calls. Determinism is untouched — which
// worker (and thus which scratch) serves an index may vary, so fn must
// treat the scratch as reusable storage only, never as carried state.
func mapWorkers[S, T any](ctx context.Context, workers, n int, newState func() S, fn func(state S, i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, ctx.Err()
	}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	errs := make([]error, n)
	var next int64 = -1
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			state := newState()
			for ctx.Err() == nil {
				i := int(atomic.AddInt64(&next, 1))
				if i >= n {
					return
				}
				out[i], errs[i] = fn(state, i)
			}
		}()
	}
	wg.Wait()
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// Spec describes one batch of independent sorting trials.
type Spec struct {
	// Algorithm selects the schedule.
	Algorithm core.Algorithm
	// Rows, Cols are the mesh dimensions.
	Rows, Cols int
	// Trials is the number of independent trials, K.
	Trials int
	// TrialOffset shifts the batch's trial indices: the batch runs the
	// global trials [TrialOffset, TrialOffset+Trials) of the logical
	// experiment, deriving each trial's RNG stream (and custom-Gen index)
	// from its global index. The zero value runs [0, Trials) — the whole
	// experiment — so existing Specs are unchanged. A distributed
	// coordinator (internal/fabric) splits one logical Spec into
	// contiguous sub-Specs that differ only in TrialOffset/Trials;
	// because trial i's result depends only on (Seed, Stream(i)), the
	// concatenation of the shard results in offset order is bit-identical
	// to the unsplit run. TrialOffset participates in Spec.Hash exactly
	// through the per-trial stream ids it selects (see Hash).
	TrialOffset int
	// Seed is the master seed; every trial derives its own PCG stream
	// from (Seed, Stream(trial)).
	Seed uint64
	// Stream maps a trial index to its RNG stream id. Nil uses
	// DefaultStream(Algorithm, Rows).
	Stream func(trial int) uint64
	// Gen builds the input grid of one trial from its private source.
	// Nil draws the spec's canonical workload: a uniformly random
	// permutation of 1..Rows·Cols, or — for ZeroOne batches — the paper's
	// half-0/half-1 grid (workload.HalfZeroOne). The canonical workloads
	// fill per-worker reusable buffers instead of allocating per trial.
	Gen func(src rng.Source, trial int) *grid.Grid
	// Workers is the size of the trial-level worker pool; 0 uses
	// GOMAXPROCS. Results are identical for every value.
	Workers int
	// MaxSteps caps each trial; 0 uses engine.DefaultMaxSteps.
	MaxSteps int
	// ZeroOne routes trials through the trial-sliced 0-1 kernel. Gen must
	// then produce grids holding only 0s and 1s (nil Gen draws
	// half-0/half-1 grids).
	ZeroOne bool
	// Kernel is an execution hint that cannot change results, excluded
	// from Spec.Hash like Workers. core.KernelGeneric pins the engine's
	// general loop, the batch reference of the differential harness;
	// any other value, the zero value included, runs the class's kernel:
	// span for permutation batches, trial-sliced for ZeroOne batches. No
	// value is an error.
	Kernel core.Kernel
}

// DefaultStream is the harness's seeding scheme for square-mesh step
// measurements. Trial i < 65,536 gets stream side<<20 | algorithm<<16 | i.
// Those ids are part of the recorded-experiment contract (EXPERIMENTS.md
// tables, the goldens and every stored record were generated with
// them), so they must not change. Trial i ≥ 65,536 gets
// 1<<63 | side<<36 | algorithm<<32 | i: the tag bit 63 is clear in every
// low id, so no later trial reuses an earlier trial's stream. The map is
// injective in (side, algorithm, i) for sides below 2^27 and trial
// indices below MaxTrialIndex; CheckTrialRange rejects specs that leave
// that range.
func DefaultStream(a core.Algorithm, side int) func(trial int) uint64 {
	return func(trial int) uint64 {
		if trial < lowTrials {
			return uint64(side)<<20 | uint64(a)<<16 | uint64(trial)
		}
		return 1<<63 | uint64(side)<<36 | uint64(a)<<32 | uint64(trial)
	}
}

const (
	// MaxTrialIndex bounds the global trial indices a Spec under
	// DefaultStream may run: TrialOffset+Trials must not exceed it.
	MaxTrialIndex = 1 << 32
	// lowTrials is the number of trial indices with the original ids.
	lowTrials = 1 << 16
	// maxStreamSide bounds the sides whose trials reach lowTrials.
	maxStreamSide = 1 << 27
)

// CheckTrialRange reports an error when s resolves its streams through
// DefaultStream (Stream is nil) and its global trials
// [TrialOffset, TrialOffset+Trials) leave the range on which
// DefaultStream is injective: indices below MaxTrialIndex, and below
// 65,536 on meshes of 2^27 rows or more. RunCtx and Hash reject such
// specs, and the service decoders answer them with a 400.
func (s Spec) CheckTrialRange() error {
	if s.Stream != nil {
		return nil
	}
	if s.Trials < 0 || s.TrialOffset < 0 || s.TrialOffset > MaxTrialIndex-s.Trials {
		return fmt.Errorf("mcbatch: trial range [%d,%d) leaves [0,%d)", s.TrialOffset, s.TrialOffset+s.Trials, MaxTrialIndex)
	}
	if s.Rows >= maxStreamSide && s.TrialOffset+s.Trials > lowTrials {
		return fmt.Errorf("mcbatch: trial range [%d,%d) on %d rows leaves [0,%d)", s.TrialOffset, s.TrialOffset+s.Trials, s.Rows, lowTrials)
	}
	return nil
}

// Trial is the outcome of one trial.
type Trial struct {
	Steps       int
	Swaps       int64
	Comparisons int64
}

// Batch is the outcome of a whole batch.
type Batch struct {
	// Trials holds the per-trial results in trial order.
	Trials []Trial
	// Steps aggregates the per-trial step counts: one Welford accumulator
	// per fixed 64-trial slice, merged in slice order (deterministic under
	// any worker count and kernel family).
	Steps stats.Welford
	// Kernel records the executor the batch ran with: span, sliced or
	// generic. Execution metadata for observability; never part of a
	// result payload.
	Kernel core.Kernel
}

// StepCounts returns the per-trial step counts in trial order.
func (b *Batch) StepCounts() []int {
	out := make([]int, len(b.Trials))
	for i, t := range b.Trials {
		out[i] = t.Steps
	}
	return out
}

// RunCtx executes the batch described by spec until it completes or ctx is
// cancelled. Cancellation takes effect between trials (each worker checks
// the context before claiming another trial index), so an abandoned HTTP
// job or an expired deadline stops the pool after at most one in-flight
// trial per worker; a cancelled batch returns ctx's error.
func RunCtx(ctx context.Context, spec Spec) (*Batch, error) {
	if spec.Trials < 0 {
		return nil, fmt.Errorf("mcbatch: negative trial count %d", spec.Trials)
	}
	if err := spec.Algorithm.CheckMesh(spec.Rows, spec.Cols); err != nil {
		return nil, fmt.Errorf("mcbatch: %w", err)
	}
	if spec.TrialOffset < 0 {
		return nil, fmt.Errorf("mcbatch: negative trial offset %d", spec.TrialOffset)
	}
	if err := spec.CheckTrialRange(); err != nil {
		return nil, err
	}
	stream := spec.Stream
	if stream == nil {
		stream = DefaultStream(spec.Algorithm, spec.Rows)
	}
	if off := spec.TrialOffset; off > 0 {
		// Shift the batch onto its global trial range. Runners keep
		// addressing trials by local index [0, Trials); only the derived
		// stream ids (and a custom Gen's trial argument, below) see the
		// global index, which is all a trial's result can depend on.
		base := stream
		stream = func(trial int) uint64 { return base(off + trial) }
	}
	seed := CanonicalSeed(spec.Seed)

	// Resolve the generator. The canonical workloads (nil Gen) fill a
	// reusable per-worker grid in place, except that the trial-sliced
	// runner draws canonical 0-1 inputs packed (drawCanonical); a custom
	// Gen keeps its allocate-per-trial contract.
	gen := spec.Gen
	var genInto func(src rng.Source, g *grid.Grid)
	if gen == nil {
		if spec.ZeroOne {
			genInto = workload.HalfZeroOneInto
		} else {
			genInto = workload.RandomPermutationInto
		}
	}
	// makeInput draws trial i's grid into the worker's reusable buffer (or
	// through the custom Gen) and validates its shape.
	makeInput := func(src rng.Source, buf *grid.Grid, i int) (*grid.Grid, error) {
		if genInto != nil {
			genInto(src, buf)
			return buf, nil
		}
		g := gen(src, spec.TrialOffset+i)
		if g.Rows() != spec.Rows || g.Cols() != spec.Cols {
			return nil, fmt.Errorf("mcbatch: trial %d: Gen produced a %dx%d grid for a %dx%d batch",
				i, g.Rows(), g.Cols(), spec.Rows, spec.Cols)
		}
		if spec.ZeroOne {
			// Every 0-1 kernel assumes 0-1 cells; the trial-sliced one would
			// panic on a worker goroutine, out of any caller's reach.
			for f, v := range g.Cells() {
				if v != 0 && v != 1 {
					return nil, fmt.Errorf("mcbatch: trial %d: Gen produced %d at cell (%d,%d) of a ZeroOne batch",
						i, v, f/spec.Cols, f%spec.Cols)
				}
			}
		}
		return g, nil
	}

	// One executor per workload class; a Generic pin runs the engine's
	// general loop instead.
	var (
		kern core.Kernel
		run  runner
	)
	switch {
	case spec.Kernel == core.KernelGeneric:
		kern, run = core.KernelGeneric, runEngine(core.KernelGeneric)
	case spec.ZeroOne:
		kern, run = core.KernelSliced, runSliced
	default:
		kern, run = core.KernelSpan, runEngine(core.KernelSpan)
	}
	trials, err := run(ctx, spec, seed, stream, makeInput)
	if err != nil {
		if spec.TrialOffset > 0 {
			// Runner errors name trials by local index; anchor the shard so
			// a distributed failure is attributable to its global range.
			return nil, fmt.Errorf("mcbatch: shard [%d,%d): %w",
				spec.TrialOffset, spec.TrialOffset+spec.Trials, err)
		}
		return nil, err
	}
	b := &Batch{Trials: trials, Kernel: kern}
	b.Steps = AggregateSteps(trials)
	return b, nil
}

// runner executes a batch with one fixed executor family.
type runner func(ctx context.Context, spec Spec, seed uint64, stream func(int) uint64,
	makeInput func(rng.Source, *grid.Grid, int) (*grid.Grid, error)) ([]Trial, error)

// runEngine adapts the scalar engine (with an engine-level kernel hint:
// generic or span) as a per-trial runner.
func runEngine(kern core.Kernel) runner {
	return func(ctx context.Context, spec Spec, seed uint64, stream func(int) uint64,
		makeInput func(rng.Source, *grid.Grid, int) (*grid.Grid, error)) ([]Trial, error) {
		// Warm the shared compiled-schedule cache before the pool starts,
		// so workers never race to build it.
		spec.Algorithm.Schedule(spec.Rows, spec.Cols)
		return runPerTrial(ctx, spec, seed, stream, makeInput,
			func(g *grid.Grid) (engine.Result, error) {
				return core.Sort(g, spec.Algorithm, core.Options{MaxSteps: spec.MaxSteps, Kernel: kern})
			})
	}
}

// trialScratch is one worker's reusable state for the per-trial runners:
// the input grid and the generator each trial reseeds to its own stream.
type trialScratch struct {
	buf *grid.Grid
	src rng.PCG64
}

// runPerTrial executes one trial per grid through sort, with a per-worker
// reusable input buffer.
func runPerTrial(ctx context.Context, spec Spec, seed uint64, stream func(int) uint64,
	makeInput func(rng.Source, *grid.Grid, int) (*grid.Grid, error),
	sort func(*grid.Grid) (engine.Result, error)) ([]Trial, error) {
	name := spec.Algorithm.ShortName()
	return mapWorkers(ctx, spec.Workers, spec.Trials,
		func() *trialScratch { return &trialScratch{buf: grid.New(spec.Rows, spec.Cols)} },
		func(sc *trialScratch, i int) (Trial, error) {
			sc.src.SeedStream(seed, stream(i))
			g, err := makeInput(&sc.src, sc.buf, i)
			if err != nil {
				return Trial{}, err
			}
			res, err := sort(g)
			if err != nil {
				return Trial{}, fmt.Errorf("%s %dx%d trial %d: %w", name, spec.Rows, spec.Cols, i, err)
			}
			return Trial{Steps: res.Steps, Swaps: res.Swaps, Comparisons: res.Comparisons}, nil
		})
}

// slicedScratch is one worker's reusable state for the trial-sliced
// kernel: the 64-lane slice buffer, the generator each trial reseeds,
// and the byte-per-cell shuffle buffer and 64 packed lanes that canonical
// inputs are drawn into.
type slicedScratch struct {
	ts     *zeroone.TrialSlice
	src    rng.PCG64
	cells  []byte
	packed []uint64
}

func newSlicedScratch(rows, cols int) *slicedScratch {
	ts := zeroone.NewTrialSlice(rows, cols)
	return &slicedScratch{
		ts:     ts,
		cells:  make([]byte, rows*cols),
		packed: make([]uint64, 64*ts.PackedWords()),
	}
}

// drawCanonical fills sc.ts with the canonical inputs of trials [lo, hi),
// hi − lo ≤ 64: each trial's half-0/half-1 grid is drawn from its own
// stream straight into a packed lane (workload.HalfZeroOnePacked), and
// the lanes are transposed into the slice 64×64 bits at a time. The
// words equal those of HalfZeroOneInto and AddGrid, with no int grid.
func (sc *slicedScratch) drawCanonical(seed uint64, stream func(int) uint64, lo, hi int) {
	nw := sc.ts.PackedWords()
	for k := 0; k < hi-lo; k++ {
		sc.src.SeedStream(seed, stream(lo+k))
		workload.HalfZeroOnePacked(&sc.src, sc.cells, sc.packed[k*nw:(k+1)*nw])
	}
	sc.ts.FillPacked(sc.packed, hi-lo)
}

// runSliced executes a ZeroOne batch through the trial-sliced kernel:
// trials are grouped into fixed blocks of 64 (the last one ragged when
// Trials % 64 != 0) and each block runs in lockstep, one bit lane per
// trial. Block boundaries depend only on trial indices, so results — and
// the error reported on failure, which is the one of the smallest failing
// trial index — are identical to the per-trial paths.
func runSliced(ctx context.Context, spec Spec, seed uint64, stream func(int) uint64,
	makeInput func(rng.Source, *grid.Grid, int) (*grid.Grid, error)) ([]Trial, error) {
	name := spec.Algorithm.ShortName()
	ss, err := zeroone.CachedSliced(name, spec.Rows, spec.Cols)
	if err != nil {
		return nil, err
	}
	canonical := spec.Gen == nil
	blocks := (spec.Trials + 63) / 64
	blockTrials, err := mapWorkers(ctx, spec.Workers, blocks,
		func() *slicedScratch { return newSlicedScratch(spec.Rows, spec.Cols) },
		func(sc *slicedScratch, b int) ([]Trial, error) {
			lo := b * 64
			hi := min(lo+64, spec.Trials)
			if canonical {
				sc.drawCanonical(seed, stream, lo, hi)
			} else {
				sc.ts.Reset()
				for i := lo; i < hi; i++ {
					sc.src.SeedStream(seed, stream(i))
					// A custom Gen allocates its own grid; no buffer needed.
					g, err := makeInput(&sc.src, nil, i)
					if err != nil {
						return nil, err
					}
					sc.ts.AddGrid(g)
				}
			}
			results, errs, err := zeroone.SortSliced(sc.ts, ss, spec.MaxSteps)
			if err != nil {
				return nil, err
			}
			out := make([]Trial, hi-lo)
			for k := range out {
				if errs != nil && errs[k] != nil {
					return nil, fmt.Errorf("%s %dx%d trial %d: %w", name, spec.Rows, spec.Cols, lo+k, errs[k])
				}
				out[k] = Trial{Steps: results[k].Steps, Swaps: results[k].Swaps, Comparisons: results[k].Comparisons}
			}
			return out, nil
		})
	if err != nil {
		return nil, err
	}
	trials := make([]Trial, 0, spec.Trials)
	for _, bt := range blockTrials {
		trials = append(trials, bt...)
	}
	return trials, nil
}

// SliceWelfords folds the per-trial step counts into one Welford
// accumulator per fixed 64-trial slice, in slice order. The partition
// depends only on trial indices — never on the worker count or kernel
// family — so the slice list is bit-identical for every execution
// strategy. These partials are the unit of distributed aggregation: a
// fabric shard whose trial range is 64-aligned produces exactly the
// slices of its range, so concatenating shard partials in offset order
// reconstructs the unsplit slice list (pinned by the stats merge golden
// test and docs/INVARIANTS.md "Placement independence").
func SliceWelfords(trials []Trial) []stats.Welford {
	parts := make([]stats.Welford, 0, (len(trials)+63)/64)
	for lo := 0; lo < len(trials); lo += 64 {
		hi := min(lo+64, len(trials))
		var w stats.Welford
		for _, t := range trials[lo:hi] {
			w.AddInt(t.Steps)
		}
		parts = append(parts, w)
	}
	return parts
}

// AggregateSteps merges the per-slice partials of SliceWelfords in slice
// order. The fold order is fixed, so the floating-point aggregate is
// deterministic for every execution strategy — including a distributed
// run that concatenates 64-aligned shard partials before this one fold —
// which is what keeps the daemon's content-addressed result payloads
// byte-stable.
func AggregateSteps(trials []Trial) stats.Welford {
	return stats.MergeAll(SliceWelfords(trials))
}
