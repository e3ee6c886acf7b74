package kerneltest_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/kerneltest"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// runShardPair runs one input under the serial span kernel and under the
// sharded executor at several shard counts, requiring identical Results,
// errors, and final grids. It is the large-side differential: the full
// Compare matrix would drag the reference executor (full rescan per
// step) through meshes where it costs minutes, so here the serial span
// kernel — itself proven against the reference on the Compare shapes —
// serves as the baseline.
func runShardPair(t *testing.T, alg string, rows, cols, maxSteps int, shardCounts []int) {
	t.Helper()
	s, err := sched.Cached(alg, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	src := rng.NewStream(0xB16, uint64(rows)<<16|uint64(maxSteps))
	input := workload.RandomPermutation(src, rows, cols)
	ref := input.Clone()
	want, wantErr := engine.Run(ref, s, engine.Options{Kernel: engine.KernelSpan, MaxSteps: maxSteps})
	for _, shards := range shardCounts {
		got := input.Clone()
		res, err := engine.Run(got, s, engine.Options{
			Kernel: engine.KernelSpanSharded, Shards: shards, MaxSteps: maxSteps,
		})
		label := alg
		if res != want {
			t.Fatalf("%s %dx%d shards=%d cap=%d: result %+v, want %+v", label, rows, cols, shards, maxSteps, res, want)
		}
		if msg := diffErr(wantErr, err); msg != "" {
			t.Fatalf("%s %dx%d shards=%d cap=%d: %s", label, rows, cols, shards, maxSteps, msg)
		}
		if !got.Equal(ref) {
			t.Fatalf("%s %dx%d shards=%d cap=%d: final grids differ", label, rows, cols, shards, maxSteps)
		}
	}
}

func diffErr(want, got error) string {
	if (want == nil) != (got == nil) {
		return "error mismatch"
	}
	if want != nil && want.Error() != got.Error() {
		return "errors differ: " + want.Error() + " vs " + got.Error()
	}
	return ""
}

// TestShardedLargeOddSides covers the shard-boundary arithmetic on sides
// the small matrix cannot reach: large, odd, non-power-of-two meshes
// where the row split is uneven (129 = 4·32+1, 257 = 8·32+1) and every
// shard boundary cuts through vertical spans. Side 129 runs to
// completion; side 257 is step-capped with caps landing mid-phase, which
// exercises the settled-window trim and the sentinel-row handling at the
// boundary without paying for a full sort.
func TestShardedLargeOddSides(t *testing.T) {
	if testing.Short() {
		t.Skip("large meshes: skipped under -short")
	}
	runShardPair(t, "snake-a", 129, 129, 0, []int{2, 3, 4, 8})
	s, err := sched.Cached("shearsort", 257, 257)
	if err != nil {
		t.Fatal(err)
	}
	for _, cap := range []int{1, s.Period() + 1, 2*s.Period() + 3} {
		runShardPair(t, "shearsort", 257, 257, cap, []int{2, 3, 8})
	}
	runShardPair(t, "snake-b", 257, 129, 1+257%5, []int{3, 5})
}

// TestLaneWidthBoundary runs every schedule on meshes either side of the
// span kernel's cell-width switch — 128×256 = 32768 cells (16-bit shadow
// cells) and 182×182 = 33124 cells (32-bit) — and requires every engine
// executor to match the generic comparator executor exactly: Result,
// ErrStepLimit fields, and final grid. Runs are step-capped, with caps
// landing mid-phase, and inputs include a permutation shifted to
// negative values, so the shadow's v − min encoding is exercised at both
// widths.
func TestLaneWidthBoundary(t *testing.T) {
	if testing.Short() {
		t.Skip("large meshes: skipped under -short")
	}
	for _, shape := range [][2]int{{128, 256}, {182, 182}} {
		rows, cols := shape[0], shape[1]
		src := rng.NewStream(0x1A4E, uint64(rows))
		perm := workload.RandomPermutation(src, rows, cols)
		shifted := workload.RandomPermutation(src, rows, cols)
		for i := range shifted.Cells() {
			shifted.Cells()[i] -= rows * cols / 2
		}
		for _, alg := range algs() {
			s, err := sched.Cached(alg, rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			for _, maxSteps := range []int{1, s.Period() + 1, 37} {
				for _, in := range []struct {
					name  string
					input *grid.Grid
				}{{"permutation", perm}, {"shifted", shifted}} {
					input := in.input
					ref := input.Clone()
					want, wantErr := engine.Run(ref, s, engine.Options{Kernel: engine.KernelGeneric, MaxSteps: maxSteps})
					for _, ex := range kerneltest.Executors() {
						if ex.Needs != kerneltest.AnyInput {
							continue
						}
						got := input.Clone()
						res, err := ex.Run(got, alg, maxSteps)
						label := fmt.Sprintf("%s %dx%d cap=%d %s [%s]", alg, rows, cols, maxSteps, in.name, ex.Name)
						var wantLim, gotLim *engine.ErrStepLimit
						if !errors.As(wantErr, &wantLim) || !errors.As(err, &gotLim) || *wantLim != *gotLim {
							t.Fatalf("%s: err %v, generic %v", label, err, wantErr)
						}
						if res != want || !got.Equal(ref) {
							t.Fatalf("%s: result %+v, generic %+v (grids equal: %v)", label, res, want, got.Equal(ref))
						}
					}
				}
			}
		}
	}
}
