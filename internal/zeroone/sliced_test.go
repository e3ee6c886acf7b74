package zeroone

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
)

func TestTrialSliceRoundTrip(t *testing.T) {
	src := rng.New(31)
	for _, shape := range []struct{ rows, cols int }{
		{1, 1}, {1, 7}, {9, 1}, {8, 8}, {5, 13},
	} {
		ts := NewTrialSlice(shape.rows, shape.cols)
		var inputs []*grid.Grid
		for lane := 0; lane < 64; lane++ {
			alpha := rng.Intn(src, shape.rows*shape.cols+1)
			g := workload.RandomZeroOne(src, shape.rows, shape.cols, alpha)
			if got := ts.AddGrid(g); got != lane {
				t.Fatalf("AddGrid returned lane %d, want %d", got, lane)
			}
			inputs = append(inputs, g)
		}
		if ts.Lanes() != 64 {
			t.Fatalf("Lanes = %d, want 64", ts.Lanes())
		}
		for lane, want := range inputs {
			if !ts.Extract(lane).Equal(want) {
				t.Fatalf("%dx%d lane %d: extract != input", shape.rows, shape.cols, lane)
			}
		}
		// Reset must clear every lane so the buffer is reusable.
		ts.Reset()
		if ts.Lanes() != 0 {
			t.Fatalf("Lanes after Reset = %d", ts.Lanes())
		}
		g := workload.RandomZeroOne(src, shape.rows, shape.cols, shape.rows*shape.cols/2)
		if ts.AddGrid(g); !ts.Extract(0).Equal(g) {
			t.Fatalf("%dx%d: lane 0 after Reset != input", shape.rows, shape.cols)
		}
	}
}

func TestTrialSliceRejectsNonBinary(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("AddGrid accepted a non-0-1 grid")
		}
	}()
	NewTrialSlice(1, 2).AddGrid(grid.FromRows([][]int{{0, 2}}))
}

// TestCompileSlicedShape pins the compiled layout the sweep relies on,
// for every schedule on shapes whose rows straddle 64-cell blocks and for
// random adjacent-pair schedules: each step's runs expand back to exactly
// the step's comparator set, advance through memory by lower cell, and
// keep their lower cells inside one block, and blo..bhi covers every cell
// a run touches.
func TestCompileSlicedShape(t *testing.T) {
	var scheds []sched.Schedule
	for _, shape := range [][2]int{{16, 16}, {10, 22}, {7, 18}, {9, 9}, {1, 130}, {130, 2}} {
		for _, name := range append(sched.Names(), "rm-rf-nowrap") {
			if strings.HasPrefix(name, "rm-") && shape[1]%2 != 0 {
				continue // the row-major schedules need even columns
			}
			s, err := sched.ByName(name, shape[0], shape[1])
			if err != nil {
				t.Fatal(err)
			}
			scheds = append(scheds, s)
		}
	}
	for i, data := range [][]byte{{1, 2, 3, 4, 5, 6, 7, 8}, {2, 2, 1, 0, 2, 1, 1}, {7, 1, 2, 200, 13, 8, 5, 31, 2, 9}} {
		rows, cols, order := 24-i, 20+i, grid.Order(i%2)
		phases, _ := schedtest.RandomPhases(rows, cols, order, data, false)
		scheds = append(scheds, schedtest.NewPhases(rows, cols, order, phases))
	}
	for _, s := range scheds {
		rows, cols := s.Dims()
		ss := CompileSliced(s)
		if ss.Period() != s.Period() {
			t.Fatalf("%s %dx%d: period %d != %d", s.Name(), rows, cols, ss.Period(), s.Period())
		}
		for si, st := range ss.steps {
			label := fmt.Sprintf("%s %dx%d step %d", s.Name(), rows, cols, si+1)
			want := append([]sched.Comparator(nil), s.Step(si+1)...)
			if st.comparisons != int64(len(want)) {
				t.Fatalf("%s: comparisons=%d, want %d", label, st.comparisons, len(want))
			}
			var got []sched.Comparator
			prev := int32(-1)
			for _, r := range st.runs {
				block := (r.base + min(r.delta, 0)) >> blockShift
				for k := int32(0); k < r.count; k++ {
					c := sched.Comparator{Lo: r.base + k*r.stride, Hi: r.base + k*r.stride + r.delta}
					low := pairLow(c)
					if low <= prev {
						t.Fatalf("%s: run %+v breaks lower-cell order at %v", label, r, c)
					}
					prev = low
					if low>>blockShift != block {
						t.Fatalf("%s: run %+v has lower cells in blocks %d and %d", label, r, block, low>>blockShift)
					}
					for _, f := range [2]int32{c.Lo, c.Hi} {
						if b := f >> blockShift; b < r.blo || b > r.bhi {
							t.Fatalf("%s: run %+v touches block %d outside %d..%d", label, r, b, r.blo, r.bhi)
						}
					}
					got = append(got, c)
				}
			}
			schedtest.SortComparators(want)
			schedtest.SortComparators(got)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: runs expand to %v, want %v", label, got, want)
			}
		}
	}
}

func TestCachedSliced(t *testing.T) {
	a, err := CachedSliced("snake-b", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := CachedSliced("snake-b", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("CachedSliced rebuilt the schedule")
	}
	if _, err := CachedSliced("no-such-algorithm", 8, 8); err == nil {
		t.Fatal("unknown algorithm accepted")
	}
}

// The lockstep differential suite (sliced vs scalar, step-cap and
// ragged-lane coverage) lives in internal/kerneltest now: its
// Compare harness packs every 0-1 case of the shared matrix into trial
// slices and checks each lane against the independent reference. The
// tests below keep the package-private coverage: packing round-trips,
// compiled layout, caching, and scratch reuse.

// TestSortSlicedScratchReuse pins buffer pooling: running a second batch
// through a Reset slice must give the same results as a fresh slice.
func TestSortSlicedScratchReuse(t *testing.T) {
	src := rng.New(4242)
	ss, err := CachedSliced("snake-c", 8, 8)
	if err != nil {
		t.Fatal(err)
	}
	ts := NewTrialSlice(8, 8)
	for round := 0; round < 3; round++ {
		inputs := make([]*grid.Grid, 9+round)
		for i := range inputs {
			inputs[i] = workload.HalfZeroOne(src, 8, 8)
		}
		ts.Reset()
		fresh := NewTrialSlice(8, 8)
		for _, g := range inputs {
			ts.AddGrid(g)
			fresh.AddGrid(g)
		}
		rReuse, _, err := SortSliced(ts, ss, 0)
		if err != nil {
			t.Fatal(err)
		}
		rFresh, _, err := SortSliced(fresh, ss, 0)
		if err != nil {
			t.Fatal(err)
		}
		for k := range rFresh {
			if rReuse[k] != rFresh[k] {
				t.Fatalf("round %d lane %d: reused %+v != fresh %+v", round, k, rReuse[k], rFresh[k])
			}
			if !ts.Extract(k).Equal(fresh.Extract(k)) {
				t.Fatalf("round %d lane %d: reused grid differs", round, k)
			}
		}
	}
}

func TestSortSlicedDimensionMismatch(t *testing.T) {
	ss, err := CachedSliced("snake-a", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := SortSliced(NewTrialSlice(4, 6), ss, 0); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestSortSlicedEmpty(t *testing.T) {
	ss, err := CachedSliced("snake-a", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	results, errs, err := SortSliced(NewTrialSlice(4, 4), ss, 0)
	if err != nil || errs != nil || len(results) != 0 {
		t.Fatalf("empty batch: results=%v errs=%v err=%v", results, errs, err)
	}
}
