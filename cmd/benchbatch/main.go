// Command benchbatch measures the headline speedups of the Monte-Carlo
// trial machinery and writes them as machine-readable JSON. It has five
// suites:
//
//   - batch (default, BENCH_batch.json via `make bench-batch`): the
//     historical per-trial loop (schedule rebuilt every trial, Step(t)
//     fetched through the interface, tracker dispatched per swap) against
//     mcbatch.RunCtx on the same seeds and trials.
//   - kernel (BENCH_kernel.json via `make bench-kernel`): the span kernel
//     sweep — for each side in {32, 64, 128}, single-thread legacy vs
//     generic-kernel vs span-kernel ns/trial, and span-kernel trial
//     throughput across GOMAXPROCS in {1, 2, 4, 8} with parallel
//     efficiency relative to the single-thread point.
//   - zeroone (BENCH_zeroone.json via `make bench-zeroone`): the 0-1
//     kernel sweep — for each side in {32, 64, 128}, single-thread
//     ns/trial and allocs/trial of the cellwise scalar engine and the
//     trial-sliced lockstep kernel (64 trials per machine word), on
//     identical inputs pregenerated from the batch's canonical per-trial
//     streams (generation is byte-equal across arms, so the timed region
//     is the kernel alone). The suite doubles as a differential check:
//     before timing, both kernels run through mcbatch.RunCtx and must
//     return bit-identical batches or the run fails. For peak sliced
//     numbers keep -trials a multiple of 64 (full lane occupancy).
//   - bigside (BENCH_bigside.json via `make bench-bigside`): the sharded
//     span executor on large meshes — for each side (default
//     {256, 512, 1024}), a single-thread serial span baseline, then a
//     shards × GOMAXPROCS sweep through one persistent ShardPool on
//     identical pregenerated inputs, reporting ns/trial, warm-pool
//     allocs/trial, and speedup vs serial, plus the measured E[steps]/N
//     constant next to the paper's Theorem 7 floor. Every arm doubles as
//     a differential: per-trial Results must match the serial baseline
//     bit for bit, a final-grid comparison guards the write-back, and
//     smoke-scale sides (≤128) also check the mcbatch worker × shard
//     split. Speedups are bounded by num_cpu (in the header): with 8
//     shards the ≥3x target needs ≥8 physical cores.
//   - fabric (BENCH_fabric.json via `make bench-fabric`): the distributed
//     trial fabric on loopback — N in-process worker daemons behind real
//     TCP listeners at N in {1, 2, 3}, each fleet's merged result payload
//     checked byte-for-byte against a single-process run, with per-shard
//     retry counts and an honest-hardware caveat when all nodes share few
//     cores (see fabric.go).
//
// Arms are interleaved rep by rep and the per-arm minimum is reported, so
// a background load spike degrades both arms of a rep rather than biasing
// one side. Allocation counts come from a separate post-timing pass, so
// the runtime.MemStats reads never sit inside a timed region. Every
// measurement records the GOMAXPROCS and worker count it ran under (the
// machine-level gomaxprocs is *not* a global of the report: the kernel
// suite changes it between measurements).
//
// Usage:
//
//	benchbatch [-suite batch|kernel|zeroone|bigside|fabric] [-out FILE] [-reps 5] [-trials 64]
//	           [-sides 256,512,1024] [-shards 1,2,4,8] [-procs N,...]
//	           [-cpuprofile FILE] [-memprofile FILE]
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"reflect"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"strings"
	"time"

	meshsort "repro"
	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/mcbatch"
	"repro/internal/report"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
	"repro/internal/zeroone"
)

// hostInfo is the header every suite report embeds: enough context to
// read a committed BENCH_*.json without the machine it ran on. Speedups
// and parallel efficiencies are meaningless without NumCPU, and ns/trial
// figures shift with the microarchitecture (CPUModel) and the compiled
// SIMD level (GOAMD64), so the header pins all of them.
type hostInfo struct {
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	NumCPU      int    `json:"num_cpu"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	// GOAMD64 is the amd64 microarchitecture level the binary was built
	// for (v1..v4), from the embedded build info; empty on other arches.
	GOAMD64 string `json:"goamd64,omitempty"`
	// CPUModel is the "model name" line of /proc/cpuinfo; empty where the
	// file is unreadable (non-Linux hosts).
	CPUModel string `json:"cpu_model,omitempty"`
}

func collectHostInfo() hostInfo {
	h := hostInfo{
		GeneratedAt: time.Now().UTC().Format(time.RFC3339),
		GoVersion:   runtime.Version(),
		NumCPU:      runtime.NumCPU(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		GOOS:        runtime.GOOS,
		GOARCH:      runtime.GOARCH,
		CPUModel:    cpuModel(),
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "GOAMD64" {
				h.GOAMD64 = s.Value
			}
		}
	}
	return h
}

func cpuModel() string {
	buf, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return ""
	}
	for _, line := range strings.Split(string(buf), "\n") {
		if name, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(name) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return ""
}

// The per-measurement records embed report.SpecJSON — the Spec encoding
// shared with the meshsortd service API — so the batch-describing field
// names cannot drift between the bench artifacts and the daemon.
type batchedResult struct {
	report.SpecJSON
	Reps                 int     `json:"reps"`
	GOMAXPROCS           int     `json:"gomaxprocs"`
	LegacyNsPerTrial     float64 `json:"legacy_ns_per_trial"`
	BatchNsPerTrial      float64 `json:"mcbatch_ns_per_trial"`
	LegacyAllocsPerTrial float64 `json:"legacy_allocs_per_trial"`
	BatchAllocsPerTrial  float64 `json:"mcbatch_allocs_per_trial"`
	Speedup              float64 `json:"speedup"`
}

type batchReport struct {
	hostInfo
	Batched batchedResult `json:"batched"`
}

// singleThreadResult is one gomaxprocs=1 comparison of the three
// permutation-trial executors on one side. The embedded spec's kernel
// field is left empty: the record compares all three executor families.
type singleThreadResult struct {
	report.SpecJSON
	Reps                  int     `json:"reps"`
	GOMAXPROCS            int     `json:"gomaxprocs"`
	LegacyNsPerTrial      float64 `json:"legacy_ns_per_trial"`
	GenericNsPerTrial     float64 `json:"generic_ns_per_trial"`
	SpanNsPerTrial        float64 `json:"span_ns_per_trial"`
	LegacyAllocsPerTrial  float64 `json:"legacy_allocs_per_trial"`
	GenericAllocsPerTrial float64 `json:"generic_allocs_per_trial"`
	SpanAllocsPerTrial    float64 `json:"span_allocs_per_trial"`
	SpanVsLegacy          float64 `json:"span_vs_legacy"`
	SpanVsGeneric         float64 `json:"span_vs_generic"`
	GenericVsLegacy       float64 `json:"generic_vs_legacy"`
}

// scalingResult is one (side, gomaxprocs) point of the span-kernel
// throughput sweep. Efficiency is throughput divided by gomaxprocs times
// the side's single-thread throughput; on hardware with fewer cores than
// gomaxprocs it is bounded by num_cpu/gomaxprocs, which is why the report
// records num_cpu.
type scalingResult struct {
	report.SpecJSON
	Reps           int     `json:"reps"`
	GOMAXPROCS     int     `json:"gomaxprocs"`
	SpanNsPerTrial float64 `json:"span_ns_per_trial"`
	TrialsPerSec   float64 `json:"trials_per_sec"`
	Efficiency     float64 `json:"efficiency"`
}

type kernelReport struct {
	hostInfo
	SingleThread []singleThreadResult `json:"single_thread"`
	Scaling      []scalingResult      `json:"scaling"`
}

// zeroOneSlicedResult is one gomaxprocs=1 comparison of the two 0-1
// kernel families on one side. The ns/trial figures time the sort kernels
// only, on inputs pregenerated once from the batch's canonical per-trial
// streams: workload generation is stream-pinned and byte-identical across
// arms, so including it would only dilute the kernel ratio. The sliced
// arm's timed region does include the AddGrid bit-transpose — that is its
// per-trial price of admission. The embedded spec's kernel field is left
// empty: the record compares both families.
type zeroOneSlicedResult struct {
	report.SpecJSON
	Reps                   int     `json:"reps"`
	GOMAXPROCS             int     `json:"gomaxprocs"`
	CellwiseNsPerTrial     float64 `json:"cellwise_ns_per_trial"`
	SlicedNsPerTrial       float64 `json:"sliced_ns_per_trial"`
	CellwiseAllocsPerTrial float64 `json:"cellwise_allocs_per_trial"`
	SlicedAllocsPerTrial   float64 `json:"sliced_allocs_per_trial"`
	SlicedVsCellwise       float64 `json:"sliced_vs_cellwise"`
}

type zeroOneSuiteReport struct {
	hostInfo
	Results []zeroOneSlicedResult `json:"results"`
}

// allocsPerOp runs fn once outside any timed region and returns the heap
// allocations it performed divided by ops.
func allocsPerOp(ops int, fn func() error) (float64, error) {
	return allocsPerOpWarm(ops, nil, fn)
}

// allocsPerOpWarm is allocsPerOp with an uncounted warmup run inside
// the measurement window. The window is pinned to GOMAXPROCS=1 with the
// collector paused because the runtime's channel-park bookkeeping
// otherwise leaks into the count: a GC cycle purges the per-P sudog
// caches, and with many P's on a barrier-heavy fn (the sharded arms
// cross thousands of phase barriers per trial) goroutines keep landing
// on P's whose cache is empty, so the scheduler allocates fresh sudogs
// — tens per run, nondeterministic, and proportional to the P count,
// not to anything the kernel does. Allocation behaviour is
// GOMAXPROCS-independent, so measuring on one P with a short warmup (a
// step-capped run is plenty) after the explicit GC's purge sees exactly
// the kernel's steady-state setup cost the budgets are pinned to.
func allocsPerOpWarm(ops int, warm func(), fn func() error) (float64, error) {
	var before, after runtime.MemStats
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if warm != nil {
		warm()
	}
	runtime.ReadMemStats(&before)
	if err := fn(); err != nil {
		return 0, err
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(ops), nil
}

// assertAllocBudget is the dynamic side of the meshvet allocation gate:
// each hot suite asserts its kernels stay under a pinned allocs/op
// ceiling, so a kernel that starts allocating per step or per swap fails
// `make bench-*` loudly instead of drifting until someone rereads a
// report. Budgets are ceilings on today's measured per-trial setup costs
// (tracker, shadow arrays, result structs), not targets.
func assertAllocBudget(name string, got, budget float64) error {
	if got > budget {
		return fmt.Errorf("%s ran at %.3f allocs/op over its budget of %g — a hot kernel started allocating (gate: docs/INVARIANTS.md, performance invariants)",
			name, got, budget)
	}
	return nil
}

// legacySortTrial reproduces the pre-batching per-trial code path exactly
// as the seed shipped it: rebuild the schedule every trial, fetch each
// step's comparators through the Schedule.Step(t) interface call, and pay
// a Tracker interface dispatch per swap.
func legacySortTrial(alg meshsort.Algorithm, side int, src rng.Source) (int, error) {
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

func measureBatched(reps, trials int, side int, seed uint64) (batchedResult, error) {
	alg := meshsort.SnakeA
	stream := mcbatch.DefaultStream(alg, side)
	workers := runtime.GOMAXPROCS(0)
	spec := mcbatch.Spec{
		Algorithm: alg, Rows: side, Cols: side, Trials: trials, Seed: seed,
		Workers: workers,
	}
	legacyBest, batchBest := time.Duration(1<<62), time.Duration(1<<62)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for trial := 0; trial < trials; trial++ {
			if _, err := legacySortTrial(alg, side, rng.NewStream(seed, stream(trial))); err != nil {
				return batchedResult{}, err
			}
		}
		if d := time.Since(start); d < legacyBest {
			legacyBest = d
		}
		start = time.Now()
		if _, err := mcbatch.RunCtx(context.Background(), spec); err != nil {
			return batchedResult{}, err
		}
		if d := time.Since(start); d < batchBest {
			batchBest = d
		}
	}
	legacy := float64(legacyBest.Nanoseconds()) / float64(trials)
	batch := float64(batchBest.Nanoseconds()) / float64(trials)
	legacyAllocs, err := allocsPerOp(trials, func() error {
		for trial := 0; trial < trials; trial++ {
			if _, err := legacySortTrial(alg, side, rng.NewStream(seed, stream(trial))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return batchedResult{}, err
	}
	batchAllocs, err := allocsPerOp(trials, func() error {
		_, err := mcbatch.RunCtx(context.Background(), spec)
		return err
	})
	if err != nil {
		return batchedResult{}, err
	}
	if err := assertAllocBudget("legacy per-trial loop", legacyAllocs, 128); err != nil {
		return batchedResult{}, err
	}
	if err := assertAllocBudget("mcbatch batch", batchAllocs, 16); err != nil {
		return batchedResult{}, err
	}
	enc := report.SpecOf(spec)
	enc.Kernel = "" // the record compares executors, so no single kernel applies
	return batchedResult{
		SpecJSON:             enc,
		Reps:                 reps,
		GOMAXPROCS:           runtime.GOMAXPROCS(0),
		LegacyNsPerTrial:     legacy,
		BatchNsPerTrial:      batch,
		LegacyAllocsPerTrial: legacyAllocs,
		BatchAllocsPerTrial:  batchAllocs,
		Speedup:              legacy / batch,
	}, nil
}

// pregenInputs draws a batch's canonical per-trial inputs once: trial
// t's grid is filled from the same (seed, stream) pair mcbatch pins to
// it, so a timed loop over the returned grids does exactly the batch's
// sorting work with generation hoisted out of the timed region. Every
// suite that times kernels on pregenerated inputs goes through this one
// helper — the fill function is the only thing that varies.
func pregenInputs(alg meshsort.Algorithm, side, trials int, seed uint64, fill func(rng.Source, *grid.Grid)) []*grid.Grid {
	stream := mcbatch.DefaultStream(alg, side)
	canonical := mcbatch.CanonicalSeed(seed)
	inputs := make([]*grid.Grid, trials)
	for t := range inputs {
		g := grid.New(side, side)
		fill(rng.NewStream(canonical, stream(t)), g)
		inputs[t] = g
	}
	return inputs
}

// kernelTrials scales the per-rep trial count down with the mesh area so
// every side costs roughly the same wall-clock: `trials` is the count at
// side 32.
func kernelTrials(trials, side int) int {
	t := trials * (32 * 32) / (side * side)
	if t < 2 {
		t = 2
	}
	return t
}

// measureSingleThread compares the three permutation-trial executors at
// GOMAXPROCS=1 and one worker, interleaved rep by rep: the legacy
// historical loop, the generic comparator kernel, and the span kernel.
func measureSingleThread(reps, trials, side int, seed uint64) (singleThreadResult, error) {
	alg := meshsort.SnakeA
	stream := mcbatch.DefaultStream(alg, side)
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	spec := mcbatch.Spec{
		Algorithm: alg, Rows: side, Cols: side, Trials: trials, Seed: seed,
		Workers: 1,
	}
	legacyBest, genericBest, spanBest := time.Duration(1<<62), time.Duration(1<<62), time.Duration(1<<62)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		for trial := 0; trial < trials; trial++ {
			if _, err := legacySortTrial(alg, side, rng.NewStream(seed, stream(trial))); err != nil {
				return singleThreadResult{}, err
			}
		}
		if d := time.Since(start); d < legacyBest {
			legacyBest = d
		}
		spec.Kernel = core.KernelGeneric
		start = time.Now()
		if _, err := mcbatch.RunCtx(context.Background(), spec); err != nil {
			return singleThreadResult{}, err
		}
		if d := time.Since(start); d < genericBest {
			genericBest = d
		}
		spec.Kernel = core.KernelSpan
		start = time.Now()
		if _, err := mcbatch.RunCtx(context.Background(), spec); err != nil {
			return singleThreadResult{}, err
		}
		if d := time.Since(start); d < spanBest {
			spanBest = d
		}
	}
	legacy := float64(legacyBest.Nanoseconds()) / float64(trials)
	generic := float64(genericBest.Nanoseconds()) / float64(trials)
	span := float64(spanBest.Nanoseconds()) / float64(trials)
	legacyAllocs, err := allocsPerOp(trials, func() error {
		for trial := 0; trial < trials; trial++ {
			if _, err := legacySortTrial(alg, side, rng.NewStream(seed, stream(trial))); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return singleThreadResult{}, err
	}
	var allocs [2]float64
	for i, k := range []core.Kernel{core.KernelGeneric, core.KernelSpan} {
		spec.Kernel = k
		allocs[i], err = allocsPerOp(trials, func() error {
			_, err := mcbatch.RunCtx(context.Background(), spec)
			return err
		})
		if err != nil {
			return singleThreadResult{}, err
		}
	}
	if err := assertAllocBudget("legacy per-trial loop", legacyAllocs, 128); err != nil {
		return singleThreadResult{}, err
	}
	if err := assertAllocBudget("generic kernel", allocs[0], 16); err != nil {
		return singleThreadResult{}, err
	}
	if err := assertAllocBudget("span kernel", allocs[1], 16); err != nil {
		return singleThreadResult{}, err
	}
	spec.Kernel = core.KernelAuto
	enc := report.SpecOf(spec)
	enc.Kernel = "" // the record compares executors, so no single kernel applies
	return singleThreadResult{
		SpecJSON:              enc,
		Reps:                  reps,
		GOMAXPROCS:            1,
		LegacyNsPerTrial:      legacy,
		GenericNsPerTrial:     generic,
		SpanNsPerTrial:        span,
		LegacyAllocsPerTrial:  legacyAllocs,
		GenericAllocsPerTrial: allocs[0],
		SpanAllocsPerTrial:    allocs[1],
		SpanVsLegacy:          legacy / span,
		SpanVsGeneric:         generic / span,
		GenericVsLegacy:       legacy / generic,
	}, nil
}

// measureZeroOneSliced compares the two 0-1 kernel families at
// GOMAXPROCS=1 on one side. It first runs the spec through mcbatch.RunCtx
// once per kernel family (untimed) and fails unless both return
// bit-identical batches — the bench run is itself a lockstep-equivalence
// differential. It then pregenerates the batch's inputs from the
// canonical per-trial streams and times the kernels alone, interleaved
// rep by rep, reporting the per-arm minimum.
func measureZeroOneSliced(reps, trials, side int, seed uint64) (zeroOneSlicedResult, error) {
	prev := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(prev)

	alg := meshsort.SnakeA
	spec := mcbatch.Spec{
		Algorithm: alg, Rows: side, Cols: side, Trials: trials, Seed: seed,
		Workers: 1, ZeroOne: true,
	}
	names := [2]string{"cellwise", "sliced"}
	var batches [2]*mcbatch.Batch
	for i, k := range [2]core.Kernel{core.KernelGeneric, core.KernelSliced} {
		spec.Kernel = k
		b, err := mcbatch.RunCtx(context.Background(), spec)
		if err != nil {
			return zeroOneSlicedResult{}, fmt.Errorf("%s arm: %w", names[i], err)
		}
		batches[i] = b
	}
	if !reflect.DeepEqual(batches[0].Trials, batches[1].Trials) || batches[0].Steps != batches[1].Steps {
		return zeroOneSlicedResult{}, fmt.Errorf(
			"side %d: %s batch differs from %s batch — kernel families are not lockstep-equivalent",
			side, names[1], names[0])
	}

	name := alg.ShortName()
	inputs := pregenInputs(alg, side, trials, seed, workload.HalfZeroOneInto)
	s, err := sched.Cached(name, side, side)
	if err != nil {
		return zeroOneSlicedResult{}, err
	}
	ss, err := zeroone.CachedSliced(name, side, side)
	if err != nil {
		return zeroOneSlicedResult{}, err
	}
	buf := grid.New(side, side)
	ts := zeroone.NewTrialSlice(side, side)
	runCellwise := func() error {
		for _, in := range inputs {
			copy(buf.Cells(), in.Cells())
			if _, err := engine.Run(buf, s, engine.Options{}); err != nil {
				return err
			}
		}
		return nil
	}
	runSliced := func() error {
		for base := 0; base < trials; base += 64 {
			ts.Reset()
			for _, in := range inputs[base:min(base+64, trials)] {
				ts.AddGrid(in)
			}
			if _, _, err := zeroone.SortSliced(ts, ss, 0); err != nil {
				return err
			}
		}
		return nil
	}
	arms := [2]func() error{runCellwise, runSliced}
	best := [2]time.Duration{1 << 62, 1 << 62}
	for rep := 0; rep < reps; rep++ {
		for i, run := range arms {
			start := time.Now()
			if err := run(); err != nil {
				return zeroOneSlicedResult{}, fmt.Errorf("%s arm: %w", names[i], err)
			}
			if d := time.Since(start); d < best[i] {
				best[i] = d
			}
		}
	}
	var allocs [2]float64
	for i, run := range arms {
		a, err := allocsPerOp(trials, run)
		if err != nil {
			return zeroOneSlicedResult{}, err
		}
		allocs[i] = a
	}
	// The sliced kernel's only allocations are the 3 per-block scratch
	// slices of SortSliced, amortized over 64 lanes — anything at or
	// above one alloc per trial means a lane loop started allocating.
	if err := assertAllocBudget("cellwise 0-1 engine", allocs[0], 8); err != nil {
		return zeroOneSlicedResult{}, err
	}
	if err := assertAllocBudget("sliced 0-1 kernel", allocs[1], 0.999); err != nil {
		return zeroOneSlicedResult{}, err
	}
	cellwise := float64(best[0].Nanoseconds()) / float64(trials)
	sliced := float64(best[1].Nanoseconds()) / float64(trials)
	spec.Kernel = core.KernelAuto
	enc := report.SpecOf(spec)
	enc.Kernel = "" // the record compares executors, so no single kernel applies
	return zeroOneSlicedResult{
		SpecJSON:               enc,
		Reps:                   reps,
		GOMAXPROCS:             1,
		CellwiseNsPerTrial:     cellwise,
		SlicedNsPerTrial:       sliced,
		CellwiseAllocsPerTrial: allocs[0],
		SlicedAllocsPerTrial:   allocs[1],
		SlicedVsCellwise:       cellwise / sliced,
	}, nil
}

// measureScaling times the span kernel at one (side, gomaxprocs) point
// with one trial worker per proc.
func measureScaling(reps, trials, side, procs int, seed uint64) (scalingResult, error) {
	alg := meshsort.SnakeA
	prev := runtime.GOMAXPROCS(procs)
	defer runtime.GOMAXPROCS(prev)

	spec := mcbatch.Spec{
		Algorithm: alg, Rows: side, Cols: side, Trials: trials, Seed: seed,
		Workers: procs, Kernel: core.KernelSpan,
	}
	best := time.Duration(1 << 62)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		if _, err := mcbatch.RunCtx(context.Background(), spec); err != nil {
			return scalingResult{}, err
		}
		if d := time.Since(start); d < best {
			best = d
		}
	}
	ns := float64(best.Nanoseconds()) / float64(trials)
	return scalingResult{
		SpecJSON:       report.SpecOf(spec),
		Reps:           reps,
		GOMAXPROCS:     procs,
		SpanNsPerTrial: ns,
		TrialsPerSec:   1e9 / ns,
	}, nil
}

// bigsideArm is one (shards, gomaxprocs) point of the sharded sweep.
type bigsideArm struct {
	Shards          int     `json:"shards"`
	GOMAXPROCS      int     `json:"gomaxprocs"`
	NsPerTrial      float64 `json:"ns_per_trial"`
	AllocsPerTrial  float64 `json:"allocs_per_trial"`
	SpeedupVsSerial float64 `json:"speedup_vs_serial"`
}

// bigsideResult is one side of the large-mesh suite: a single-thread
// serial span baseline, the shards × gomaxprocs sweep against it, and
// the measured Θ(N) step constant next to the paper's bound. Every arm
// is also a differential: each trial's Result must equal the serial
// baseline's bit for bit, or the suite fails.
type bigsideResult struct {
	report.SpecJSON
	Reps             int     `json:"reps"`
	SerialNsPerTrial float64 `json:"serial_span_ns_per_trial"`
	StepsMean        float64 `json:"steps_mean"`
	// StepsPerN is the measured Θ(N) constant E[steps]/N.
	StepsPerN float64 `json:"steps_per_n"`
	// PaperLowerStepsPerN is Theorem 7's snake-A lower bound
	// (N/2 − √N/2 − 4)/N evaluated at this N — the proved floor the
	// measured constant must sit above.
	PaperLowerStepsPerN float64      `json:"paper_lower_steps_per_n"`
	Arms                []bigsideArm `json:"arms"`
}

type bigsideSuiteReport struct {
	hostInfo
	Results []bigsideResult `json:"results"`
}

// measureBigside runs one side of the bigside suite. The serial span
// baseline is timed at GOMAXPROCS=1 and its per-trial Results recorded;
// every sharded arm then re-runs the identical pregenerated inputs
// through one persistent ShardPool and fails on the first Result that
// deviates — the serial-vs-sharded differential is built into the timed
// sweep, not a separate pass. A full final-grid comparison (untimed, at
// the largest shard count) guards the write-back path the Result
// equality cannot see.
func measureBigside(reps, trials, side int, seed uint64, shardsSweep, procsSweep []int) (bigsideResult, error) {
	alg := meshsort.SnakeA
	name := alg.ShortName()
	inputs := pregenInputs(alg, side, trials, seed, workload.RandomPermutationInto)
	s, err := sched.Cached(name, side, side)
	if err != nil {
		return bigsideResult{}, err
	}
	maxShards := 1
	for _, sh := range shardsSweep {
		if sh > maxShards {
			maxShards = sh
		}
	}
	pool := engine.NewShardPool(maxShards)
	defer pool.Close()
	buf := grid.New(side, side)

	base := make([]engine.Result, trials)
	runSerial := func(record bool) error {
		for t, in := range inputs {
			copy(buf.Cells(), in.Cells())
			res, err := engine.Run(buf, s, engine.Options{Kernel: engine.KernelSpan})
			if err != nil {
				return err
			}
			if record {
				base[t] = res
			}
		}
		return nil
	}
	prev := runtime.GOMAXPROCS(1)
	serialBest := time.Duration(1 << 62)
	for rep := 0; rep < reps; rep++ {
		start := time.Now()
		if err := runSerial(rep == 0); err != nil {
			runtime.GOMAXPROCS(prev)
			return bigsideResult{}, err
		}
		if d := time.Since(start); d < serialBest {
			serialBest = d
		}
	}
	runtime.GOMAXPROCS(prev)

	// Untimed grid differential: the Result comparison inside the arms
	// proves steps/swaps/comparisons equal, this proves the sorted cells
	// written back are too.
	refGrid := inputs[0].Clone()
	if _, err := engine.Run(refGrid, s, engine.Options{Kernel: engine.KernelSpan}); err != nil {
		return bigsideResult{}, err
	}
	gotGrid := inputs[0].Clone()
	res, err := engine.Run(gotGrid, s, engine.Options{
		Kernel: engine.KernelSpanSharded, Shards: maxShards, ShardPool: pool,
	})
	if err != nil {
		return bigsideResult{}, err
	}
	if res != base[0] || !gotGrid.Equal(refGrid) {
		return bigsideResult{}, fmt.Errorf(
			"side %d: sharded run (shards=%d) diverged from serial span — not bit-identical", side, maxShards)
	}

	var arms []bigsideArm
	serialNs := float64(serialBest.Nanoseconds()) / float64(trials)
	for _, procs := range procsSweep {
		prev := runtime.GOMAXPROCS(procs)
		for _, sh := range shardsSweep {
			armRun := func() error {
				for t, in := range inputs {
					copy(buf.Cells(), in.Cells())
					res, err := engine.Run(buf, s, engine.Options{
						Kernel: engine.KernelSpanSharded, Shards: sh, ShardPool: pool,
					})
					if err != nil {
						return err
					}
					if res != base[t] {
						return fmt.Errorf("side %d shards=%d procs=%d trial %d: result %+v != serial %+v — shard equivalence broken",
							side, sh, procs, t, res, base[t])
					}
				}
				return nil
			}
			best := time.Duration(1 << 62)
			for rep := 0; rep < reps; rep++ {
				start := time.Now()
				if err := armRun(); err != nil {
					runtime.GOMAXPROCS(prev)
					return bigsideResult{}, err
				}
				if d := time.Since(start); d < best {
					best = d
				}
			}
			// The timed reps have warmed the pool's arenas and plan memo, so
			// this pass sees the steady state: the same small fixed per-trial
			// setup cost the serial span kernel is held to, with zero
			// contribution from the per-step barrier loop. The warmup is a
			// step-capped sharded run — a few barrier crossings to refill the
			// scheduler's sudog caches after allocsPerOpWarm's GC purge; its
			// ErrStepLimit is the cap working, not a failure.
			warm := func() {
				copy(buf.Cells(), inputs[0].Cells())
				_, _ = engine.Run(buf, s, engine.Options{
					Kernel: engine.KernelSpanSharded, Shards: sh, ShardPool: pool, MaxSteps: 8,
				})
			}
			allocs, err := allocsPerOpWarm(trials, warm, armRun)
			if err != nil {
				runtime.GOMAXPROCS(prev)
				return bigsideResult{}, err
			}
			if err := assertAllocBudget("sharded span trial (warm pool)", allocs, 16); err != nil {
				runtime.GOMAXPROCS(prev)
				return bigsideResult{}, err
			}
			ns := float64(best.Nanoseconds()) / float64(trials)
			arms = append(arms, bigsideArm{
				Shards:          sh,
				GOMAXPROCS:      procs,
				NsPerTrial:      ns,
				AllocsPerTrial:  allocs,
				SpeedupVsSerial: serialNs / ns,
			})
		}
		runtime.GOMAXPROCS(prev)
	}

	var stepsSum float64
	for _, r := range base {
		stepsSum += float64(r.Steps)
	}
	n := float64(side * side)
	stepsMean := stepsSum / float64(trials)
	spec := mcbatch.Spec{
		Algorithm: alg, Rows: side, Cols: side, Trials: trials, Seed: seed, Workers: 1,
	}
	enc := report.SpecOf(spec)
	enc.Kernel = "" // the record compares serial and sharded executors
	return bigsideResult{
		SpecJSON:            enc,
		Reps:                reps,
		SerialNsPerTrial:    serialNs,
		StepsMean:           stepsMean,
		StepsPerN:           stepsMean / n,
		PaperLowerStepsPerN: (n/2 - math.Sqrt(n)/2 - 4) / n,
		Arms:                arms,
	}, nil
}

// bigsideTrials scales the per-side trial count down with the mesh area
// (`trials` is the count at side 256), floored at 1: a single side-1024
// trial costs minutes of serial span time, so the suite cannot afford
// the constant-count policy of the small suites.
func bigsideTrials(trials, side int) int {
	t := trials * (256 * 256) / (side * side)
	if t < 1 {
		t = 1
	}
	return t
}

func runBigsideSuite(reps, trials int, sides, shardsSweep, procsSweep []int) (any, string, error) {
	rep := bigsideSuiteReport{hostInfo: collectHostInfo()}
	const seed = 7
	for _, side := range sides {
		// Two-level budget differential at smoke-scale sides: the batch
		// runner's worker × shard split must not change results either.
		// Big sides skip it — each extra trial there costs minutes, and
		// the engine-level differential inside measureBigside still runs.
		if side <= 128 {
			spec := mcbatch.Spec{
				Algorithm: meshsort.SnakeA, Rows: side, Cols: side,
				Trials: 4, Seed: seed, Workers: 1, Kernel: core.KernelSpan,
			}
			ref, err := mcbatch.RunCtx(context.Background(), spec)
			if err != nil {
				return nil, "", err
			}
			spec.Kernel = core.KernelSpanSharded
			spec.Workers = 2
			spec.Shards = 2
			got, err := mcbatch.RunCtx(context.Background(), spec)
			if err != nil {
				return nil, "", err
			}
			if !reflect.DeepEqual(ref.Trials, got.Trials) || ref.Steps != got.Steps {
				return nil, "", fmt.Errorf(
					"side %d: sharded batch (workers=2, shards=2) differs from serial span batch", side)
			}
		}
		r, err := measureBigside(reps, bigsideTrials(trials, side), side, seed, shardsSweep, procsSweep)
		if err != nil {
			return nil, "", err
		}
		rep.Results = append(rep.Results, r)
	}
	last := rep.Results[len(rep.Results)-1]
	bestArm := last.Arms[0]
	for _, a := range last.Arms {
		if a.SpeedupVsSerial > bestArm.SpeedupVsSerial {
			bestArm = a
		}
	}
	summary := fmt.Sprintf("side %d: best %.2fx vs serial span (%d shards, %d procs, %d cpu); steps/N %.3f vs paper floor %.3f",
		last.Rows, bestArm.SpeedupVsSerial, bestArm.Shards, bestArm.GOMAXPROCS, rep.NumCPU,
		last.StepsPerN, last.PaperLowerStepsPerN)
	return rep, summary, nil
}

// parseIntsCSV parses a "256,512,1024"-style flag value.
func parseIntsCSV(flagName, csv string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(csv, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || v < 1 {
			return nil, fmt.Errorf("-%s: %q is not a positive integer list", flagName, csv)
		}
		out = append(out, v)
	}
	return out, nil
}

func runBatchSuite(reps, trials int) (any, string, error) {
	rep := batchReport{hostInfo: collectHostInfo()}
	batched, err := measureBatched(reps, trials, 32, 7)
	if err != nil {
		return nil, "", err
	}
	rep.Batched = batched
	return rep, fmt.Sprintf("batched %.2fx", rep.Batched.Speedup), nil
}

func runKernelSuite(reps, trials int) (any, string, error) {
	rep := kernelReport{hostInfo: collectHostInfo()}
	const seed = 7
	sides := []int{32, 64, 128}
	procsSweep := []int{1, 2, 4, 8}
	for _, side := range sides {
		st, err := measureSingleThread(reps, kernelTrials(trials, side), side, seed)
		if err != nil {
			return nil, "", err
		}
		rep.SingleThread = append(rep.SingleThread, st)
	}
	for _, side := range sides {
		var base float64 // single-thread span throughput of this side
		for _, procs := range procsSweep {
			sc, err := measureScaling(reps, kernelTrials(trials, side), side, procs, seed)
			if err != nil {
				return nil, "", err
			}
			if procs == 1 {
				base = sc.TrialsPerSec
			}
			sc.Efficiency = sc.TrialsPerSec / (float64(procs) * base)
			rep.Scaling = append(rep.Scaling, sc)
		}
	}
	var side64 singleThreadResult
	for _, st := range rep.SingleThread {
		if st.Rows == 64 {
			side64 = st
		}
	}
	summary := fmt.Sprintf("span vs legacy %.2fx / vs generic %.2fx at side 64 (single thread, %d cpu)",
		side64.SpanVsLegacy, side64.SpanVsGeneric, rep.NumCPU)
	return rep, summary, nil
}

func runZeroOneSuite(reps, trials int) (any, string, error) {
	rep := zeroOneSuiteReport{hostInfo: collectHostInfo()}
	const seed = 7
	for _, side := range []int{32, 64, 128} {
		r, err := measureZeroOneSliced(reps, trials, side, seed)
		if err != nil {
			return nil, "", err
		}
		rep.Results = append(rep.Results, r)
	}
	summary := fmt.Sprintf("sliced vs cellwise %.2fx / %.2fx / %.2fx at sides 32/64/128",
		rep.Results[0].SlicedVsCellwise, rep.Results[1].SlicedVsCellwise, rep.Results[2].SlicedVsCellwise)
	return rep, summary, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchbatch:", err)
	os.Exit(1)
}

func main() {
	var (
		suite      = flag.String("suite", "batch", "benchmark suite: batch, kernel, zeroone, bigside or fabric")
		out        = flag.String("out", "", "output file ('-' for stdout; default BENCH_<suite>.json)")
		reps       = flag.Int("reps", 5, "interleaved repetitions per arm (minimum is reported)")
		trials     = flag.Int("trials", 64, "Monte-Carlo trials per rep (kernel suite: count at side 32, bigside: at side 256; scaled by area)")
		sides      = flag.String("sides", "256,512,1024", "bigside suite: CSV of mesh sides")
		shardsCSV  = flag.String("shards", "1,2,4,8", "bigside suite: CSV of shard counts to sweep")
		procsCSV   = flag.String("procs", "", "bigside suite: CSV of GOMAXPROCS values for the sharded arms (default: num_cpu)")
		cpuprofile = flag.String("cpuprofile", "", "write a CPU profile of the measurement to this file")
		memprofile = flag.String("memprofile", "", "write a heap profile after the measurement to this file")
	)
	flag.Parse()
	if *reps < 1 || *trials < 1 {
		fmt.Fprintf(os.Stderr, "benchbatch: -reps and -trials must be >= 1 (got %d, %d)\n", *reps, *trials)
		os.Exit(2)
	}
	if *out == "" {
		switch *suite {
		case "batch":
			*out = "BENCH_batch.json"
		case "kernel":
			*out = "BENCH_kernel.json"
		case "zeroone":
			*out = "BENCH_zeroone.json"
		case "bigside":
			*out = "BENCH_bigside.json"
		case "fabric":
			*out = "BENCH_fabric.json"
		}
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}

	var (
		rep     any
		summary string
		err     error
	)
	switch *suite {
	case "batch":
		rep, summary, err = runBatchSuite(*reps, *trials)
	case "kernel":
		rep, summary, err = runKernelSuite(*reps, *trials)
	case "zeroone":
		rep, summary, err = runZeroOneSuite(*reps, *trials)
	case "bigside":
		var sideList, shardList, procList []int
		if sideList, err = parseIntsCSV("sides", *sides); err == nil {
			shardList, err = parseIntsCSV("shards", *shardsCSV)
		}
		if err == nil {
			if *procsCSV == "" {
				procList = []int{runtime.NumCPU()}
			} else {
				procList, err = parseIntsCSV("procs", *procsCSV)
			}
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchbatch:", err)
			os.Exit(2)
		}
		rep, summary, err = runBigsideSuite(*reps, *trials, sideList, shardList, procList)
	case "fabric":
		rep, summary, err = runFabricSuite(*reps, *trials)
	default:
		fmt.Fprintf(os.Stderr, "benchbatch: unknown suite %q (want batch, kernel, zeroone, bigside or fabric)\n", *suite)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}

	if *memprofile != "" {
		f, ferr := os.Create(*memprofile)
		if ferr != nil {
			fatal(ferr)
		}
		runtime.GC()
		if ferr := pprof.WriteHeapProfile(f); ferr != nil {
			fatal(ferr)
		}
		f.Close()
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	buf = append(buf, '\n')
	if *out == "-" {
		if _, err := os.Stdout.Write(buf); err != nil {
			fatal(err)
		}
		return
	}
	if err := os.WriteFile(*out, buf, 0o644); err != nil {
		fatal(err)
	}
	fmt.Printf("wrote %s: %s\n", *out, summary)
}
