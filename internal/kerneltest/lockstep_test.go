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

// TestLockstepCarryStress packs 64 (and 63) copies of one grid into a
// batch, so every pair that swaps does so in every lane at once and each
// chunk's swap counts carry through all five register planes into the
// high lane-counter planes. The grids are half-0/half-1 draws at 48×48
// and at 64×64, whose reverse rows of 32 pairs fill a 31-pair chunk, and
// a crafted 2×64 snake lane whose reverse row swaps on every one of its
// 31 pairs at step 1, a count that sets all five planes before the
// flush. Every lane must still match the reference run of its grid.
func TestLockstepCarryStress(t *testing.T) {
	src := rng.New(0xCA22)
	for _, side := range []int{48, 64} {
		for _, alg := range append(sched.Names(), "rm-rf-nowrap") {
			carryStress(t, alg, 0, workload.HalfZeroOne(src, side, side))
		}
	}
	// Step 1 of snake-a and snake-b runs row 1 right to left on the pairs
	// (c+1, c), c = 1, 3, ..., 61, the min landing at c+1: a 1 at every
	// even column of row 1 but the first swaps all 31.
	full := grid.New(2, 64)
	for c := 2; c < 64; c += 2 {
		full.Set(1, c, 1)
	}
	for _, alg := range []string{"snake-a", "snake-b"} {
		s, err := sched.Cached(alg, 2, 64)
		if err != nil {
			t.Fatal(err)
		}
		if ref := references(s, 1, []Case{{Input: full}})[0]; ref.res.Swaps != 31 {
			t.Fatalf("%s: crafted lane swaps %d times at step 1, want 31", alg, ref.res.Swaps)
		}
		for _, maxSteps := range []int{1, 0} {
			carryStress(t, alg, maxSteps, full)
		}
	}
}

// carryStress runs 64 and 63 copies of g under alg with cap maxSteps and
// checks every lane against the reference run of g.
func carryStress(t *testing.T, alg string, maxSteps int, g *grid.Grid) {
	t.Helper()
	rows, cols := g.Rows(), g.Cols()
	s, err := sched.Cached(alg, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	ss, err := zeroone.CachedSliced(alg, rows, cols)
	if err != nil {
		t.Fatal(err)
	}
	in := Case{Label: "copy", Input: g}
	ref := references(s, maxSteps, []Case{in})[0]
	for _, lanes := range []int{64, 63} {
		cases := make([]Case, lanes)
		base := make([]outcome, lanes)
		for i := range cases {
			cases[i], base[i] = in, ref
		}
		compareLockstep(t, fmt.Sprintf("%s %dx%d cap=%d %d copies", alg, rows, cols, maxSteps, lanes), ss, maxSteps, cases, base)
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

// TestLockstepLastSwapAtCap: a lane whose last swap falls exactly on the
// step cap reports Sorted with Steps equal to the cap, and a cap one step
// lower is its step limit, both equal to RefRun's, alone and among 15
// other lanes: the cap's last step counts toward a lane's steps, and the
// lane is not reported sorted before its last swap has run.
func TestLockstepLastSwapAtCap(t *testing.T) {
	const rows, cols = 6, 8
	src := rng.New(0xCA9)
	for _, alg := range sched.Names() {
		s, err := sched.Cached(alg, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := zeroone.CachedSliced(alg, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 4; i++ {
			cases := make([]Case, 16)
			for j := range cases {
				cases[j] = Case{Label: fmt.Sprintf("zeroone-%d-%d", i, j), Input: workload.HalfZeroOne(src, rows, cols)}
			}
			last := references(s, 0, cases[:1])[0].res.Steps
			if last < 2 {
				t.Fatalf("%s: input %d sorts in %d steps; the test needs a later last swap", alg, i, last)
			}
			for _, maxSteps := range []int{last, last - 1} {
				base := references(s, maxSteps, cases)
				if sorted := base[0].err == nil; sorted != (maxSteps == last) || (sorted && base[0].res.Steps != maxSteps) {
					t.Fatalf("%s input %d cap %d: reference %+v/%v, want a last swap at step %d",
						alg, i, maxSteps, base[0].res, base[0].err, last)
				}
				for _, lanes := range []int{1, 16} {
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
// chunks, with wrap pairs (a row's last cell against the next row's
// first) when mode has bit 1. Every one of 1 to 64 random 0-1 lanes must match the reference
// run of its input alone — Result, ErrStepLimit and final grid — under a
// step cap, since a random schedule need not sort.
//
// Run with: go test -fuzz=FuzzSlicedPlan ./internal/kerneltest/
func FuzzSlicedPlan(f *testing.F) {
	f.Add(uint8(10), uint8(22), uint8(0), uint8(63), uint8(40), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(23), uint8(23), uint8(1), uint8(14), uint8(255), []byte{2, 2, 1, 0, 2, 1, 1})
	f.Add(uint8(0), uint8(8), uint8(0), uint8(0), uint8(2), []byte{1})
	f.Add(uint8(17), uint8(6), uint8(1), uint8(15), uint8(90), []byte{7, 1, 2, 200, 13, 8, 5, 31, 2, 9})
	f.Add(uint8(6), uint8(6), uint8(3), uint8(20), uint8(60), []byte{1, 4, 7, 1, 0, 2}) // 7×7 snake order with a wrap pair
	f.Fuzz(func(t *testing.T, rows, cols, mode, lanes, maxSteps uint8, data []byte) {
		r, c := 1+int(rows)%24, 1+int(cols)%24
		order := grid.Order(mode & 1)
		phases, _ := schedtest.RandomPhases(r, c, order, data, false, mode&2 != 0)
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
