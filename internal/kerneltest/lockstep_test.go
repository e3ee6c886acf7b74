package kerneltest

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sched/schedtest"
	"repro/internal/workload"
	"repro/internal/zeroone"
)

// TestLockstepCarryStress packs 64 (and 63) copies of one half-0/half-1
// grid at 48×48, so every pair that swaps does so in every lane at once
// and each chunk's swap counts carry through all four register planes
// into the high lane-counter planes. Every lane must still match the
// reference run of that grid.
func TestLockstepCarryStress(t *testing.T) {
	const side = 48
	src := rng.New(0xCA22)
	for _, alg := range append(sched.Names(), "rm-rf-nowrap") {
		s, err := sched.Cached(alg, side, side)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := zeroone.CachedSliced(alg, side, side)
		if err != nil {
			t.Fatal(err)
		}
		in := Case{Label: "half", Input: workload.HalfZeroOne(src, side, side)}
		ref := references(s, 0, []Case{in})[0]
		for _, lanes := range []int{64, 63} {
			cases := make([]Case, lanes)
			base := make([]outcome, lanes)
			for i := range cases {
				cases[i], base[i] = in, ref
			}
			compareLockstep(t, fmt.Sprintf("%s %dx%d %d copies", alg, side, side, lanes), ss, 0, cases, base)
		}
	}
}

// TestLockstepBlockStraddle runs meshes whose rows cross 64-cell blocks,
// so runs stop at block edges and end mid-chunk, under no cap, a negative
// cap (no step runs), cap 3, and a cap at the lanes' median step count
// that cuts the sort off while half the lanes are still active, with
// ragged lane counts around the chunk size and the full width.
func TestLockstepBlockStraddle(t *testing.T) {
	src := rng.New(0xB10C)
	for _, alg := range append(sched.Names(), "rm-rf-nowrap") {
		for _, shape := range [][2]int{{10, 22}, {7, 18}, {11, 13}} {
			rows, cols := shape[0], shape[1]
			if strings.HasPrefix(alg, "rm-") && cols%2 != 0 {
				continue // the row-major schedules need even columns
			}
			s, err := sched.Cached(alg, rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := zeroone.CachedSliced(alg, rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			cases := make([]Case, 64)
			for i := range cases {
				cases[i] = Case{
					Label: fmt.Sprintf("zeroone-%d", i),
					Input: workload.RandomZeroOne(src, rows, cols, rng.Intn(src, rows*cols+1)),
				}
			}
			uncapped := references(s, 0, cases)
			steps := make([]int, len(uncapped))
			for i, o := range uncapped {
				steps[i] = o.res.Steps
			}
			slices.Sort(steps)
			for _, maxSteps := range []int{0, -1, 3, max(4, steps[len(steps)/2])} {
				base := uncapped
				if maxSteps != 0 {
					base = references(s, maxSteps, cases)
				}
				for _, lanes := range []int{1, 15, 16, 64} {
					prefix := fmt.Sprintf("%s %dx%d cap=%d lanes=%d", alg, rows, cols, maxSteps, lanes)
					compareLockstep(t, prefix, ss, maxSteps, cases[:lanes], base[:lanes])
				}
			}
		}
	}
}

// TestLockstepMixedWeights runs a schedule whose pairs take two nonzero
// weights under P(r, c) = r + c: snake-style row phases, whose odd rows
// run right to left (weight 2), row-major wrap pairs (weight C − 1 = 9)
// and column phases. It compiles with P ≡ 0, so the kernel counts every
// pair, and every lane must still match the reference under a cap.
func TestLockstepMixedWeights(t *testing.T) {
	const rows, cols = 7, 10
	var phases [][]sched.Comparator
	for parity := 0; parity < 2; parity++ {
		var rowPhase, colPhase []sched.Comparator
		for r := 0; r < rows; r++ {
			for c := parity; c+1 < cols; c += 2 {
				lo, hi := int32(r*cols+c), int32(r*cols+c+1)
				if r%2 == 1 {
					lo, hi = hi, lo
				}
				rowPhase = append(rowPhase, sched.Comparator{Lo: lo, Hi: hi})
			}
			if parity == 1 && r+1 < rows {
				rowPhase = append(rowPhase, sched.Comparator{Lo: int32(r*cols + cols - 1), Hi: int32((r + 1) * cols)})
			}
		}
		for r := parity; r+1 < rows; r += 2 {
			for c := 0; c < cols; c++ {
				colPhase = append(colPhase, sched.Comparator{Lo: int32(r*cols + c), Hi: int32((r+1)*cols + c)})
			}
		}
		phases = append(phases, rowPhase, colPhase)
	}
	s := schedtest.NewPhases(rows, cols, grid.Snake, phases)
	src := rng.New(0x317)
	cases := make([]Case, 64)
	for i := range cases {
		cases[i] = Case{
			Label: fmt.Sprintf("zeroone-%d", i),
			Input: workload.RandomZeroOne(src, rows, cols, rng.Intn(src, rows*cols+1)),
		}
	}
	for _, maxSteps := range []int{-1, 5, 400} {
		compareLockstep(t, fmt.Sprintf("mixed weights %dx%d cap=%d", rows, cols, maxSteps),
			zeroone.CompileSliced(s), maxSteps, cases, references(s, maxSteps, cases))
	}
}

// FuzzSlicedPlan runs the trial-sliced kernel on random monotone
// adjacent-pair schedules on meshes up to 24×24, so runs cross blocks and
// chunks. Every one of 1 to 64 random 0-1 lanes must match the reference
// run of its input alone — Result, ErrStepLimit and final grid — under a
// step cap, since a random schedule need not sort.
//
// Run with: go test -fuzz=FuzzSlicedPlan ./internal/kerneltest/
func FuzzSlicedPlan(f *testing.F) {
	f.Add(uint8(10), uint8(22), uint8(0), uint8(63), uint8(40), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(23), uint8(23), uint8(1), uint8(14), uint8(255), []byte{2, 2, 1, 0, 2, 1, 1})
	f.Add(uint8(0), uint8(8), uint8(0), uint8(0), uint8(2), []byte{1})
	f.Add(uint8(17), uint8(6), uint8(1), uint8(15), uint8(90), []byte{7, 1, 2, 200, 13, 8, 5, 31, 2, 9})
	f.Fuzz(func(t *testing.T, rows, cols, mode, lanes, maxSteps uint8, data []byte) {
		r, c := 1+int(rows)%24, 1+int(cols)%24
		order := grid.Order(mode & 1)
		phases, _ := schedtest.RandomPhases(r, c, order, data, false)
		s := schedtest.NewPhases(r, c, order, phases)
		src := rng.New(uint64(len(data))<<8 | uint64(mode))
		cases := make([]Case, 1+int(lanes)%64)
		for i := range cases {
			cases[i] = Case{
				Label: fmt.Sprintf("zeroone-%d", i),
				Input: workload.RandomZeroOne(src, r, c, rng.Intn(src, r*c+1)),
			}
		}
		limit := 1 + int(maxSteps)
		compareLockstep(t, fmt.Sprintf("phases %dx%d cap=%d", r, c, limit),
			zeroone.CompileSliced(s), limit, cases, references(s, limit, cases))
	})
}
