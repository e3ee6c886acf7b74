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

// packGrid packs g's cells as FillPacked reads them, with every bit past
// the last cell set, which FillPacked must ignore.
func packGrid(g *grid.Grid, out []uint64) {
	for w := range out {
		out[w] = ^uint64(0)
	}
	for f, v := range g.Cells() {
		out[f>>6] &^= uint64(v^1) << uint(f&63)
	}
}

// TestFillPackedMatchesAddGrid: FillPacked's words equal Reset plus
// AddGrid of each lane, for random 0-1 grids of any zero count, ragged
// lane counts, shapes below, at and across the 64-cell block boundary,
// and a slice that held more lanes before.
func TestFillPackedMatchesAddGrid(t *testing.T) {
	src := rng.New(0xF111)
	for _, shape := range []struct{ rows, cols int }{
		{1, 1}, {2, 2}, {3, 3}, {1, 64}, {7, 9}, {8, 8}, {13, 5}, {32, 32}, {48, 48}, {64, 64}, {65, 3},
	} {
		want := NewTrialSlice(shape.rows, shape.cols)
		got := NewTrialSlice(shape.rows, shape.cols)
		nw := got.PackedWords()
		packed := make([]uint64, 64*nw)
		for _, lanes := range []int{64, 1, 63, 0, 2} {
			want.Reset()
			for k := 0; k < lanes; k++ {
				n := shape.rows * shape.cols
				g := workload.RandomZeroOne(src, shape.rows, shape.cols, rng.Intn(src, n+1))
				want.AddGrid(g)
				packGrid(g, packed[k*nw:(k+1)*nw])
			}
			got.FillPacked(packed[:lanes*nw], lanes)
			if got.Lanes() != lanes || !slices.Equal(got.words, want.words) {
				t.Fatalf("%dx%d, %d lanes: FillPacked words differ from AddGrid's",
					shape.rows, shape.cols, lanes)
			}
		}
	}
}

// TestFillPackedAllocBudget: the bulk fill allocates nothing.
func TestFillPackedAllocBudget(t *testing.T) {
	ts := NewTrialSlice(48, 48)
	packed := make([]uint64, 64*ts.PackedWords())
	for i := range packed {
		packed[i] = uint64(i) * 0x9e3779b97f4a7c15
	}
	if allocs := testing.AllocsPerRun(20, func() { ts.FillPacked(packed, 64) }); allocs != 0 {
		t.Errorf("FillPacked: %.1f heap allocations per call, budget 0", allocs)
	}
}

// FuzzPackedZeroOne checks the packed generation path against the grid
// path on arbitrary (seed, stream, rows, cols): lanes drawn through
// workload.HalfZeroOnePacked and FillPacked must hold exactly the words
// that workload.HalfZeroOneInto and AddGrid produce from the same streams.
func FuzzPackedZeroOne(f *testing.F) {
	f.Add(uint64(1), uint64(0x800000), uint8(8), uint8(8))
	f.Add(uint64(7919), uint64(1<<63|48<<36|70000), uint8(48), uint8(48))
	f.Add(uint64(0), uint64(0), uint8(1), uint8(1))
	f.Add(uint64(3), uint64(5), uint8(7), uint8(9))
	f.Fuzz(func(t *testing.T, seed, stream uint64, r, c uint8) {
		rows, cols := 1+int(r%64), 1+int(c%64)
		lanes := 1 + int(stream%64)
		want := NewTrialSlice(rows, cols)
		got := NewTrialSlice(rows, cols)
		nw := got.PackedWords()
		cells := make([]byte, rows*cols)
		packed := make([]uint64, lanes*nw)
		g := grid.New(rows, cols)
		var p rng.PCG64
		for k := 0; k < lanes; k++ {
			workload.HalfZeroOneInto(rng.NewStream(seed, stream+uint64(k)), g)
			want.AddGrid(g)
			p.SeedStream(seed, stream+uint64(k))
			workload.HalfZeroOnePacked(&p, cells, packed[k*nw:(k+1)*nw])
		}
		got.FillPacked(packed, lanes)
		if got.Lanes() != lanes || !slices.Equal(got.words, want.words) {
			t.Fatalf("seed %d stream %#x %dx%d, %d lanes: packed path differs from grid path",
				seed, stream, rows, cols, lanes)
		}
	})
}

// TestCompileSlicedShape pins the compiled layout the sweep relies on,
// for every schedule on shapes whose rows straddle 64-cell blocks and for
// random adjacent-pair schedules: each step's runs expand back to exactly
// the step's comparator set, advance through memory by lower cell, and
// keep their lower cells inside one block, blo..bhi covers every cell a
// run touches, and every member pair carries its run's weight, which is 0
// or the schedule's ω.
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
					if w := pairWeight(ss.pot, c); w != r.weight || (w != 0 && int64(w) != ss.omega) {
						t.Fatalf("%s: pair %v has weight %d in run %+v, schedule ω %d", label, c, w, r, ss.omega)
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

// TestSlicedPotential pins the potential each schedule compiles with:
// P(r, c) = r + c and ω = C − 1 for the row-major wrap schedules, ω = 2
// for the snakes and shearsort, none for rm-rf-nowrap, and ω in {0, 2}
// for random monotone adjacent-pair schedules; P ≡ 0 with every pair
// counted (ω = 1) for a schedule whose pairs take two nonzero weights;
// and phiSorted[α] = Σ P over ranks α..N−1.
func TestSlicedPotential(t *testing.T) {
	const rows, cols = 6, 10
	want := []struct {
		name  string
		omega int64
	}{
		{"rm-rf", cols - 1}, {"rm-cf", cols - 1}, {"rm-rf-nowrap", 0},
		{"snake-a", 2}, {"snake-b", 2}, {"snake-c", 2}, {"shearsort", 2},
	}
	check := func(label string, ss *SlicedSchedule, omega int64, fallback bool) {
		t.Helper()
		if ss.omega != omega {
			t.Errorf("%s: ω = %d, want %d", label, ss.omega, omega)
		}
		r, c := ss.Dims()
		for f, p := range ss.pot {
			if wantP := int32(f/c + f%c); (fallback && p != 0) || (!fallback && p != wantP) {
				t.Fatalf("%s: P(%d) = %d (fallback %v)", label, f, p, fallback)
			}
		}
		var phi int64
		for m := r*c - 1; m >= 0; m-- {
			phi += int64(ss.pot[ss.ranks[m]])
			if ss.phiSorted[m] != phi {
				t.Fatalf("%s: phiSorted[%d] = %d, want %d", label, m, ss.phiSorted[m], phi)
			}
		}
	}
	for _, w := range want {
		s, err := sched.ByName(w.name, rows, cols)
		if err != nil {
			t.Fatal(err)
		}
		check(w.name, CompileSliced(s), w.omega, false)
	}
	for i, data := range [][]byte{{1, 2, 3, 4, 5, 6, 7, 8}, {2, 2, 1, 0, 2, 1, 1}, {7, 1, 2, 200, 13, 8, 5, 31, 2, 9}} {
		order := grid.Order(i % 2)
		phases, _ := schedtest.RandomPhases(rows, cols, order, data, false)
		ss := CompileSliced(schedtest.NewPhases(rows, cols, order, phases))
		if ss.omega != 0 && ss.omega != 2 {
			t.Errorf("random schedule %d: ω = %d, want 0 or 2", i, ss.omega)
		}
		check(fmt.Sprintf("random schedule %d", i), ss, ss.omega, false)
	}
	// A reverse row pair (weight 2) and a wrap pair (weight C − 1 = 9)
	// in one schedule: no single ω fits, so P ≡ 0 and every pair counts.
	mixed := schedtest.NewPhases(rows, cols, grid.RowMajor, [][]sched.Comparator{
		{{Lo: cols + 1, Hi: cols}},
		{{Lo: cols - 1, Hi: cols}},
	})
	ss := CompileSliced(mixed)
	check("mixed weights", ss, 1, true)
	for _, st := range ss.steps {
		for _, r := range st.runs {
			if r.weight != 1 {
				t.Errorf("mixed weights: run %+v has weight %d under P ≡ 0", r, r.weight)
			}
		}
	}
}

// TestCompileSlicedRejectsOutOfRangePair pins the precondition of the
// sweep's unchecked loads: CompileSliced looks up the potential of both
// cells of every comparator, bounds-checked, so a schedule with a
// comparator outside [0, rows·cols) panics while compiling, before any
// sweep could reach past the slice words. The second phase list takes
// two nonzero weights, so choosePotential stops early and compressRuns
// must catch the bad comparator.
func TestCompileSlicedRejectsOutOfRangePair(t *testing.T) {
	const rows, cols = 2, 3
	for _, bad := range []sched.Comparator{{Lo: 0, Hi: 6}, {Lo: 6, Hi: 5}, {Lo: -1, Hi: 0}, {Lo: 2, Hi: 40}} {
		for _, lead := range [][]sched.Comparator{
			{{Lo: 0, Hi: 1}},
			{{Lo: 1, Hi: 0}, {Lo: 5, Hi: 0}}, // weights 2 and 4
		} {
			phases := [][]sched.Comparator{append(slices.Clone(lead), bad)}
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("CompileSliced accepted comparator %+v on a %dx%d mesh", bad, rows, cols)
					}
				}()
				CompileSliced(schedtest.NewPhases(rows, cols, grid.RowMajor, phases))
			}()
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

// TestSortSlicedAllocBudget enforces the trial-sliced kernel's allocation
// budget: one 64-lane block at 32×32 — Reset, 64 AddGrid calls and one
// SortSliced — allocates at most the results, blockMax and lastExec.
// Every other piece of per-block state lives on the stack or in the
// reused TrialSlice.
func TestSortSlicedAllocBudget(t *testing.T) {
	const side = 32
	src := rng.New(0xA110C)
	inputs := make([]*grid.Grid, 64)
	for i := range inputs {
		inputs[i] = workload.HalfZeroOne(src, side, side)
	}
	ts := NewTrialSlice(side, side)
	for _, name := range []string{"rm-rf", "snake-a"} {
		ss, err := CachedSliced(name, side, side)
		if err != nil {
			t.Fatal(err)
		}
		var runErr error
		allocs := testing.AllocsPerRun(20, func() {
			ts.Reset()
			for _, g := range inputs {
				ts.AddGrid(g)
			}
			if _, errs, err := SortSliced(ts, ss, 0); err != nil || errs != nil {
				runErr = fmt.Errorf("SortSliced: err=%v errs=%v", err, errs)
			}
		})
		if runErr != nil {
			t.Fatalf("%s: %v", name, runErr)
		}
		if allocs > 3 {
			t.Errorf("%s %dx%d: %.1f heap allocations per 64-lane block, budget 3", name, side, side, allocs)
		}
	}
}

// BenchmarkSortSliced times the trial-sliced kernel alone: one canonical
// 64-lane block (half-0/half-1 grids, as mcbatch draws them) per schedule
// and side, per op. The packed lanes are drawn before the timer, and
// since SortSliced sorts in place each iteration refills the slice from
// them with FillPacked, one 64×64 bit transpose per 64 cells.
//
// Run with: go test -run '^$' -bench SortSliced ./internal/zeroone/
func BenchmarkSortSliced(b *testing.B) {
	for _, side := range []int{32, 48, 64} {
		ts := NewTrialSlice(side, side)
		nw := ts.PackedWords()
		packed := make([]uint64, 64*nw)
		cells := make([]byte, side*side)
		var src rng.PCG64
		for k := 0; k < 64; k++ {
			src.SeedStream(1, uint64(side)<<20|uint64(k))
			workload.HalfZeroOnePacked(&src, cells, packed[k*nw:(k+1)*nw])
		}
		for _, name := range sched.Names() {
			ss, err := CachedSliced(name, side, side)
			if err != nil {
				b.Fatal(err)
			}
			b.Run(fmt.Sprintf("%s/side=%d", name, side), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					ts.FillPacked(packed, 64)
					if _, errs, err := SortSliced(ts, ss, 0); err != nil || errs != nil {
						b.Fatalf("SortSliced: err=%v errs=%v", err, errs)
					}
				}
			})
		}
	}
}
