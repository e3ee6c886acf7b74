package mcbatch

import (
	"context"
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/workload"
	"repro/internal/zeroone"
)

// TestCanonicalZeroOneMatchesGridPath pins the canonical 0-1 input: the
// trial slice the sliced runner draws without an int grid holds exactly
// the words of workload.HalfZeroOneInto plus AddGrid on each trial's
// stream. It covers shapes below, at and past the 64-cell block, ragged
// lane counts, a trial offset of 64, and tagged stream ids from trial
// 65,536 on, reusing each worker scratch across blocks as the runner does.
func TestCanonicalZeroOneMatchesGridPath(t *testing.T) {
	const seed = 0x5EED
	shapes := []struct{ rows, cols int }{{1, 1}, {2, 2}, {3, 3}, {7, 9}, {32, 32}, {48, 48}, {64, 64}}
	blocks := []struct{ offset, lanes int }{
		{0, 64}, {0, 1}, {0, 63}, {64, 64}, {64, 63},
		{lowTrials - 32, 64}, // lanes 32..63 take tagged ids
		{lowTrials + 64, 1},
	}
	for _, shape := range shapes {
		sc := newSlicedScratch(shape.rows, shape.cols)
		want := zeroone.NewTrialSlice(shape.rows, shape.cols)
		g := grid.New(shape.rows, shape.cols)
		for _, b := range blocks {
			base := DefaultStream(core.SnakeA, shape.rows)
			stream := func(i int) uint64 { return base(b.offset + i) }
			if tagged := stream(b.lanes-1)>>63 == 1; tagged != (b.offset+b.lanes > lowTrials) {
				t.Fatalf("offset %d: last stream id %#x, tagged=%v", b.offset, stream(b.lanes-1), tagged)
			}
			sc.drawCanonical(seed, stream, 0, b.lanes)
			want.Reset()
			for i := 0; i < b.lanes; i++ {
				workload.HalfZeroOneInto(rng.NewStream(seed, stream(i)), g)
				want.AddGrid(g)
			}
			if sc.ts.Lanes() != b.lanes {
				t.Fatalf("%dx%d offset %d: %d lanes, want %d", shape.rows, shape.cols, b.offset, sc.ts.Lanes(), b.lanes)
			}
			for f := 0; f < shape.rows*shape.cols; f++ {
				for lane := 0; lane < 64; lane++ {
					if got, w := sc.ts.Bit(lane, f), want.Bit(lane, f); got != w {
						t.Fatalf("%dx%d offset %d, %d lanes: lane %d cell %d = %d, want %d",
							shape.rows, shape.cols, b.offset, b.lanes, lane, f, got, w)
					}
				}
			}
		}
	}
}

// TestZeroOneGenRejectsNonBinary: a custom Gen that returns a non-0-1 grid
// for a ZeroOne batch is an error naming the smallest failing trial and
// its cell, under every 0-1 kernel and worker count, not a panic on a
// worker goroutine.
func TestZeroOneGenRejectsNonBinary(t *testing.T) {
	spec := Spec{
		Algorithm: core.SnakeA, Rows: 4, Cols: 4, Trials: 200, Seed: 1, ZeroOne: true,
		Gen: func(src rng.Source, trial int) *grid.Grid {
			g := workload.HalfZeroOne(src, 4, 4)
			if trial == 70 || trial == 130 {
				g.Set(2, 1, 15)
			}
			return g
		},
	}
	const want = "trial 70: Gen produced 15 at cell (2,1)"
	for _, kern := range []core.Kernel{core.KernelSliced, core.KernelGeneric} {
		for _, workers := range []int{1, 4} {
			spec.Kernel, spec.Workers = kern, workers
			_, err := RunCtx(context.Background(), spec)
			if err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("%s, %d workers: err = %v, want it to contain %q", core.KernelName(kern), workers, err, want)
			}
		}
	}
}

// BenchmarkCanonicalZeroOne times drawing one 64-trial block of canonical
// 0-1 inputs into a trial slice, per trial: through an int grid and
// AddGrid ("grid"), and packed ("packed").
func BenchmarkCanonicalZeroOne(b *testing.B) {
	for _, side := range []int{32, 48, 64} {
		stream := DefaultStream(core.SnakeA, side)
		b.Run(fmt.Sprintf("grid/side=%d", side), func(b *testing.B) {
			ts := zeroone.NewTrialSlice(side, side)
			g := grid.New(side, side)
			for n := 0; n < b.N; n += 64 {
				ts.Reset()
				for i := 0; i < 64; i++ {
					workload.HalfZeroOneInto(rng.NewStream(1, stream(i)), g)
					ts.AddGrid(g)
				}
			}
		})
		b.Run(fmt.Sprintf("packed/side=%d", side), func(b *testing.B) {
			sc := newSlicedScratch(side, side)
			for n := 0; n < b.N; n += 64 {
				sc.drawCanonical(1, stream, 0, 64)
			}
		})
	}
}
