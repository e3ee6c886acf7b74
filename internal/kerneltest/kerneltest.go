// Package kerneltest is the shared differential harness that proves every
// executor bit-identical. It grew out of the per-kernel comparison loops
// that had accreted in the engine, zeroone, and mcbatch test suites;
// those suites now call into this one source of truth, so every executor
// gets the full matrix — schedules × shapes (odd, rectangular, single
// row/column, >64 cells) × workloads × step caps × worker counts — from
// one listing (Executors) rather than a copied loop. Batches are compared
// between the class's served kernel (span for permutations, trial-sliced
// for 0-1 inputs) and the engine's general loop. Besides the production
// executors it runs the threshold-sliced 0-1-principle oracle
// (zeroone.SortThresholds), which no batch path serves, and the sharded
// span executor, which only the engine's tests and the benchmark's
// layer replay reach.
//
// Equality is strict everywhere: engine.Result structs, final grids, and
// errors including the exact ErrStepLimit fields. The baseline is an
// independent reference executor (ApplyStep + full rescan per step), so a
// bug shared by the optimized paths cannot vouch for itself.
package kerneltest

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/mcbatch"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
	"repro/internal/zeroone"
)

// Inputs classifies what an executor can serve exactly.
type Inputs int

const (
	// AnyInput executors accept every integer grid.
	AnyInput Inputs = iota
	// PermutationInput executors require each value 1..N exactly once.
	PermutationInput
)

// Executor is one way to run a schedule on a single grid, in place.
type Executor struct {
	Name  string
	Needs Inputs
	Run   func(g *grid.Grid, algName string, maxSteps int) (engine.Result, error)
}

// Executors returns every per-grid executor of the repository: the
// engine's sequential, generic, span, and sharded-span paths plus the
// threshold-sliced permutation oracle. The sharded span executor appears
// twice (2 and 3 shards) so the matrix covers both even and uneven row
// splits; shapes with fewer rows than shards exercise its clamp-to-serial
// path. The trial-sliced
// lockstep kernel runs batches, not single grids; Compare adds it by
// packing all eligible cases of a call into shared slices.
func Executors() []Executor {
	engineOpts := func(opts engine.Options) func(*grid.Grid, string, int) (engine.Result, error) {
		return func(g *grid.Grid, algName string, maxSteps int) (engine.Result, error) {
			s, err := sched.Cached(algName, g.Rows(), g.Cols())
			if err != nil {
				return engine.Result{}, err
			}
			opts.MaxSteps = maxSteps
			return engine.Run(g, s, opts)
		}
	}
	return []Executor{
		{Name: "fresh-schedule", Run: func(g *grid.Grid, algName string, maxSteps int) (engine.Result, error) {
			s, err := sched.ByName(algName, g.Rows(), g.Cols())
			if err != nil {
				return engine.Result{}, err
			}
			return engine.Run(g, s, engine.Options{MaxSteps: maxSteps})
		}},
		{Name: "sequential", Run: engineOpts(engine.Options{})},
		{Name: "generic-kernel", Run: engineOpts(engine.Options{Kernel: engine.KernelGeneric})},
		{Name: "span-kernel", Run: engineOpts(engine.Options{Kernel: engine.KernelSpan})},
		{Name: "span-sharded-2", Run: engineOpts(engine.Options{Kernel: engine.KernelSpanSharded, Shards: 2})},
		{Name: "span-sharded-3", Run: engineOpts(engine.Options{Kernel: engine.KernelSpanSharded, Shards: 3})},
		{Name: "threshold-sliced", Needs: PermutationInput, Run: func(g *grid.Grid, algName string, maxSteps int) (engine.Result, error) {
			ss, err := zeroone.CachedSliced(algName, g.Rows(), g.Cols())
			if err != nil {
				return engine.Result{}, err
			}
			return zeroone.SortThresholds(g, ss, maxSteps)
		}},
	}
}

// RefRun is the independent reference executor: scalar ApplyStep per
// step, completion by full-grid rescan, ErrStepLimit built from a fresh
// tracker's misplacement count — no code shared with the engine's run
// loop beyond the comparator primitive itself.
func RefRun(g *grid.Grid, s sched.Schedule, maxSteps int) (engine.Result, error) {
	var res engine.Result
	if maxSteps == 0 {
		r, c := s.Dims()
		maxSteps = engine.DefaultMaxSteps(r, c)
	}
	if g.IsSorted(s.Order()) {
		res.Sorted = true
		return res, nil
	}
	for t := 1; t <= maxSteps; t++ {
		comps := s.Step(t)
		res.Swaps += int64(engine.ApplyStep(g, comps))
		res.Comparisons += int64(len(comps))
		if g.IsSorted(s.Order()) {
			res.Steps = t
			res.Sorted = true
			return res, nil
		}
	}
	return res, &engine.ErrStepLimit{
		Algorithm: s.Name(), MaxSteps: maxSteps,
		Misplaced: grid.NewTracker(g, s.Order()).Misplaced(),
	}
}

// Case is one labeled input grid of a differential comparison.
type Case struct {
	Label string
	Input *grid.Grid
}

// Workloads returns the canonical input set for an R×C mesh: a random
// permutation, its reversal, duplicate-heavy and already-sorted grids,
// and the 0-1 family (half, sparse, all-zero, all-one).
func Workloads(src rng.Source, rows, cols int) []Case {
	n := rows * cols
	return []Case{
		{Label: "permutation", Input: workload.RandomPermutation(src, rows, cols)},
		{Label: "reversed", Input: workload.ReversedGrid(rows, cols, grid.RowMajor)},
		{Label: "duplicates", Input: workload.FewDistinct(src, rows, cols, 3)},
		{Label: "sorted-rowmajor", Input: workload.SortedGrid(rows, cols, grid.RowMajor)},
		{Label: "sorted-snake", Input: workload.SortedGrid(rows, cols, grid.Snake)},
		{Label: "zeroone-half", Input: workload.RandomZeroOne(src, rows, cols, (n+1)/2)},
		{Label: "zeroone-sparse", Input: workload.RandomZeroOne(src, rows, cols, n-n/4)},
		{Label: "all-zero", Input: grid.New(rows, cols)},
		{Label: "all-one", Input: workload.RandomZeroOne(src, rows, cols, 0)},
	}
}

// Shapes returns the canonical shape matrix for a schedule: square even
// and odd sides, rectangles, single row/column meshes, and meshes beyond
// 64 cells (multi-chunk for the threshold oracle, multi-block for the
// sliced kernel). The row-major wrap schedules require even columns, so the
// odd-column shapes are reserved for the snake family and shearsort.
func Shapes(algName string) [][2]int {
	shapes := [][2]int{
		{4, 4}, {6, 6}, {8, 8}, {5, 6}, {3, 8}, {1, 8}, {9, 8}, {5, 14},
	}
	if strings.HasPrefix(algName, "rm-") { // rm-rf, rm-cf, rm-rf-nowrap
		return shapes
	}
	return append(shapes, [2]int{6, 5}, [2]int{8, 1}, [2]int{1, 7}, [2]int{1, 1}, [2]int{9, 9}, [2]int{13, 5})
}

// IsZeroOne reports whether g holds only 0s and 1s.
func IsZeroOne(g *grid.Grid) bool {
	for _, v := range g.Cells() {
		if v != 0 && v != 1 {
			return false
		}
	}
	return true
}

// IsPermutation reports whether g holds each value 1..N exactly once.
func IsPermutation(g *grid.Grid) bool {
	seen := make([]bool, g.Len())
	for _, v := range g.Cells() {
		if v < 1 || v > len(seen) || seen[v-1] {
			return false
		}
		seen[v-1] = true
	}
	return true
}

func (in Inputs) accepts(g *grid.Grid) bool {
	return in != PermutationInput || IsPermutation(g)
}

// outcome is one executor's observation on one case.
type outcome struct {
	res engine.Result
	err error
	g   *grid.Grid
}

// diffErrors renders a mismatch between two errors, or "" when they are
// equal: both nil, or both step limits with identical fields.
func diffErrors(want, got error) string {
	if (want == nil) != (got == nil) {
		return fmt.Sprintf("error mismatch: want %v, got %v", want, got)
	}
	if want == nil {
		return ""
	}
	var wantLim, gotLim *engine.ErrStepLimit
	if !errors.As(want, &wantLim) || !errors.As(got, &gotLim) {
		return fmt.Sprintf("non-step-limit errors: want %v, got %v", want, got)
	}
	if *wantLim != *gotLim {
		return fmt.Sprintf("step limits differ: want %+v, got %+v", *wantLim, *gotLim)
	}
	return ""
}

func (o outcome) check(t *testing.T, label string, res engine.Result, err error, g *grid.Grid) {
	t.Helper()
	if msg := diffErrors(o.err, err); msg != "" {
		t.Errorf("%s: %s", label, msg)
		return
	}
	if res != o.res {
		t.Errorf("%s: result %+v != reference %+v", label, res, o.res)
	}
	if !g.Equal(o.g) {
		t.Errorf("%s: final grid differs from reference:\n%v\nvs\n%v", label, g.Values(), o.g.Values())
	}
}

// Compare runs every applicable executor — plus the trial-sliced lockstep
// kernel over the 0-1 cases — on each input and requires bit-identical
// Results, errors (including ErrStepLimit fields), and final grids,
// against the independent reference executor.
func Compare(t *testing.T, algName string, rows, cols, maxSteps int, cases []Case) {
	t.Helper()
	s, err := sched.Cached(algName, rows, cols)
	if err != nil {
		t.Fatal(err)
	}

	base := references(s, maxSteps, cases)
	prefix := fmt.Sprintf("%s %dx%d cap=%d", algName, rows, cols, maxSteps)
	for _, ex := range Executors() {
		for i, c := range cases {
			if !ex.Needs.accepts(c.Input) {
				continue
			}
			g := c.Input.Clone()
			res, err := ex.Run(g, algName, maxSteps)
			base[i].check(t, fmt.Sprintf("%s %s [%s]", prefix, c.Label, ex.Name), res, err, g)
		}
	}

	ss, err := zeroone.CachedSliced(algName, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	compareLockstep(t, prefix, ss, maxSteps, cases, base)
}

// references runs RefRun on a clone of every case.
func references(s sched.Schedule, maxSteps int, cases []Case) []outcome {
	base := make([]outcome, len(cases))
	for i, c := range cases {
		g := c.Input.Clone()
		res, err := RefRun(g, s, maxSteps)
		base[i] = outcome{res: res, err: err, g: g}
	}
	return base
}

// compareLockstep packs every 0-1 case into shared trial slices (64 lanes
// per batch, ragged tail included) and checks each lane against the
// reference — the batched kernel's differential, covering lane
// interactions no single-grid run exercises.
func compareLockstep(t *testing.T, prefix string, ss *zeroone.SlicedSchedule, maxSteps int, cases []Case, base []outcome) {
	t.Helper()
	var lanes []int // indices of the 0-1 cases, in case order
	for i, c := range cases {
		if IsZeroOne(c.Input) {
			lanes = append(lanes, i)
		}
	}
	if len(lanes) == 0 {
		return
	}
	rows, cols := ss.Dims()
	ts := zeroone.NewTrialSlice(rows, cols)
	out := grid.New(rows, cols)
	for lo := 0; lo < len(lanes); lo += 64 {
		hi := min(lo+64, len(lanes))
		ts.Reset()
		for _, ci := range lanes[lo:hi] {
			ts.AddGrid(cases[ci].Input.Clone())
		}
		results, errs, err := zeroone.SortSliced(ts, ss, maxSteps)
		if err != nil {
			t.Fatal(err)
		}
		for k, ci := range lanes[lo:hi] {
			var laneErr error
			if errs != nil {
				laneErr = errs[k]
			}
			ts.ExtractInto(k, out)
			base[ci].check(t, fmt.Sprintf("%s %s [trial-sliced lane %d]", prefix, cases[ci].Label, k), results[k], laneErr, out)
		}
	}
}

// BatchKernels returns the two executors a batch can run on: KernelAuto,
// the class's kernel (span for permutations, trial-sliced for 0-1
// batches), and KernelGeneric, the engine's general loop.
func BatchKernels() []core.Kernel {
	return []core.Kernel{core.KernelAuto, core.KernelGeneric}
}

// batchReport is the JSON rendering CompareBatches compares byte for
// byte: every per-trial result plus the step aggregate's moments.
type batchReport struct {
	Trials []mcbatch.Trial `json:"trials"`
	N      int64           `json:"n"`
	Mean   float64         `json:"mean"`
	StdDev float64         `json:"std_dev"`
	Min    float64         `json:"min"`
	Max    float64         `json:"max"`
}

func reportJSON(b *mcbatch.Batch) ([]byte, error) {
	return json.Marshal(batchReport{
		Trials: b.Trials,
		N:      b.Steps.N(), Mean: b.Steps.Mean(), StdDev: b.Steps.StdDev(),
		Min: b.Steps.Min(), Max: b.Steps.Max(),
	})
}

// CompareBatches runs spec under both BatchKernels crossed with every
// worker count and requires identical outcomes:
// the per-trial results, the Welford aggregate, the JSON report (byte
// for byte), and — for failing specs — the error string. It returns the
// reference batch (nil when the spec fails).
func CompareBatches(t *testing.T, spec mcbatch.Spec, workers []int) *mcbatch.Batch {
	t.Helper()
	if len(workers) == 0 {
		workers = []int{1, 4}
	}
	var (
		ref      *mcbatch.Batch
		refJSON  []byte
		refErr   error
		refLabel string
		first    = true
	)
	for _, k := range BatchKernels() {
		for _, w := range workers {
			spec.Kernel = k
			spec.Workers = w
			label := fmt.Sprintf("kernel=%s workers=%d", core.KernelName(k), w)
			b, err := mcbatch.RunCtx(context.Background(), spec)
			if first {
				first = false
				ref, refErr, refLabel = b, err, label
				if err == nil {
					if refJSON, err = reportJSON(b); err != nil {
						t.Fatal(err)
					}
				}
				continue
			}
			if (err == nil) != (refErr == nil) {
				t.Errorf("%s: err %v, but %s err %v", label, err, refLabel, refErr)
				continue
			}
			if err != nil {
				if err.Error() != refErr.Error() {
					t.Errorf("%s: error %q != %s error %q", label, err, refLabel, refErr)
				}
				continue
			}
			if !reflect.DeepEqual(b.Trials, ref.Trials) {
				t.Errorf("%s: trials differ from %s", label, refLabel)
				continue
			}
			if b.Steps != ref.Steps {
				t.Errorf("%s: aggregate %+v != %s aggregate %+v", label, b.Steps, refLabel, ref.Steps)
			}
			got, err := reportJSON(b)
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != string(refJSON) {
				t.Errorf("%s: JSON report not byte-identical to %s", label, refLabel)
			}
		}
	}
	if refErr != nil {
		return nil
	}
	return ref
}
