package zeroone

import (
	"errors"
	"testing"

	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

func TestLoadThresholds(t *testing.T) {
	src := rng.New(11)
	g := workload.RandomPermutation(src, 9, 11) // 99 cells: values beyond one chunk
	ts := NewTrialSlice(9, 11)
	for _, base := range []int{0, 63, 126} {
		ts.LoadThresholds(g, base)
		if ts.Lanes() != 64 {
			t.Fatalf("base %d: lanes = %d, want 64", base, ts.Lanes())
		}
		for lane := 0; lane < 64; lane++ {
			if want := g.Threshold(base + lane); !ts.Extract(lane).Equal(want) {
				t.Fatalf("base %d lane %d: slice != g.Threshold(%d)", base, lane, base+lane)
			}
		}
	}
}

// evenColsIfNeeded reports whether algorithm name runs on a mesh with c
// columns (the row-major wrap schedules need even columns by design).
func evenColsIfNeeded(name string, c int) bool {
	return !((name == "rm-rf" || name == "rm-cf") && c%2 != 0)
}

// TestSortThresholdsMatchesEngine is the kernel's core claim: on random
// permutations the threshold decomposition reproduces the scalar engine's
// Result and final grid exactly, across every schedule and meshes from a
// single chunk (≤64 cells) to several (9x9, 12x12).
func TestSortThresholdsMatchesEngine(t *testing.T) {
	src := rng.New(607)
	for _, name := range sched.Names() {
		for _, shape := range []struct{ rows, cols int }{
			{4, 4}, {6, 6}, {5, 7}, {1, 8}, {8, 1}, {9, 9}, {12, 12},
		} {
			if !evenColsIfNeeded(name, shape.cols) {
				continue
			}
			s, err := sched.Cached(name, shape.rows, shape.cols)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := CachedSliced(name, shape.rows, shape.cols)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 4; trial++ {
				input := workload.RandomPermutation(src, shape.rows, shape.cols)
				gs := input.Clone()
				rs, errS := engine.Run(gs, s, engine.Options{})
				gt := input.Clone()
				rt, errT := SortThresholds(gt, ss, 0)
				if (errS == nil) != (errT == nil) {
					t.Fatalf("%s %dx%d: engine err %v, threshold err %v", name, shape.rows, shape.cols, errS, errT)
				}
				if errS != nil {
					var wantLim, gotLim *engine.ErrStepLimit
					if !errors.As(errS, &wantLim) || !errors.As(errT, &gotLim) || *wantLim != *gotLim {
						t.Fatalf("%s %dx%d: engine limit %v != threshold limit %v", name, shape.rows, shape.cols, errS, errT)
					}
				}
				if rs != rt {
					t.Fatalf("%s %dx%d: engine %+v != threshold %+v", name, shape.rows, shape.cols, rs, rt)
				}
				if !gs.Equal(gt) {
					t.Fatalf("%s %dx%d: final grids differ", name, shape.rows, shape.cols)
				}
			}
		}
	}
}

// TestSortThresholdsStepLimit pins the failure contract: with a tiny step
// cap the kernel must reproduce the scalar ErrStepLimit fields (including
// Misplaced) and leave the grid in the scalar engine's exact partial
// state — the reconstruction, not the input.
func TestSortThresholdsStepLimit(t *testing.T) {
	src := rng.New(93)
	for _, name := range []string{"rm-rf", "snake-a", "shearsort"} {
		s, err := sched.Cached(name, 9, 8)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := CachedSliced(name, 9, 8)
		if err != nil {
			t.Fatal(err)
		}
		for _, maxSteps := range []int{1, 3, 7} {
			input := workload.RandomPermutation(src, 9, 8)
			gs := input.Clone()
			rs, errS := engine.Run(gs, s, engine.Options{MaxSteps: maxSteps})
			gt := input.Clone()
			rt, errT := SortThresholds(gt, ss, maxSteps)
			if (errS == nil) != (errT == nil) {
				t.Fatalf("%s cap %d: engine err %v, threshold err %v", name, maxSteps, errS, errT)
			}
			if errS != nil {
				var wantLim, gotLim *engine.ErrStepLimit
				if !errors.As(errS, &wantLim) || !errors.As(errT, &gotLim) {
					t.Fatalf("%s cap %d: non-step-limit errors %v / %v", name, maxSteps, errS, errT)
				}
				if *wantLim != *gotLim {
					t.Fatalf("%s cap %d: scalar limit %+v != threshold limit %+v", name, maxSteps, *wantLim, *gotLim)
				}
			}
			if rs != rt {
				t.Fatalf("%s cap %d: engine %+v != threshold %+v", name, maxSteps, rs, rt)
			}
			if !gs.Equal(gt) {
				t.Fatalf("%s cap %d: partial grids differ", name, maxSteps)
			}
		}
	}
}

func TestSortThresholdsRejectsNonPermutation(t *testing.T) {
	ss, err := CachedSliced("snake-a", 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, vals := range [][]int{
		{1, 2, 3, 3}, // duplicate
		{0, 1, 2, 3}, // below range
		{1, 2, 3, 5}, // above range
	} {
		g := grid.FromValues(2, 2, vals)
		before := g.Clone()
		if _, err := SortThresholds(g, ss, 0); !errors.Is(err, ErrNotPermutation) {
			t.Fatalf("%v: err = %v, want ErrNotPermutation", vals, err)
		}
		if !g.Equal(before) {
			t.Fatalf("%v: grid modified on rejection", vals)
		}
	}
}

func TestSortThresholdsSortedAndTiny(t *testing.T) {
	ss, err := CachedSliced("snake-b", 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.SortedGrid(6, 6, grid.Snake)
	res, err := SortThresholds(g, ss, 0)
	if err != nil || !res.Sorted || res.Steps != 0 || res.Swaps != 0 || res.Comparisons != 0 {
		t.Fatalf("sorted input: res=%+v err=%v", res, err)
	}
	ss1, err := CachedSliced("snake-a", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	g1 := grid.FromValues(1, 1, []int{1})
	res, err = SortThresholds(g1, ss1, 0)
	if err != nil || !res.Sorted || res.Steps != 0 || g1.AtFlat(0) != 1 {
		t.Fatalf("1x1: res=%+v err=%v grid=%v", res, err, g1.AtFlat(0))
	}
}

func TestSortThresholdsDimensionMismatch(t *testing.T) {
	ss, err := CachedSliced("snake-a", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.RandomPermutation(rng.New(1), 4, 6)
	if _, err := SortThresholds(g, ss, 0); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}
