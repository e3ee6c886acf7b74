package engine

import (
	"fmt"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/sched/schedtest"
	"repro/internal/workload"
)

// checkLossless requires every phase of plan to expand back to exactly
// the comparator set of Step(t) (as a set: a step's comparators are
// disjoint, so order is irrelevant), with the recorded pair count.
func checkLossless(t *testing.T, s sched.Schedule, plan *spanPlan) {
	t.Helper()
	rows, cols := s.Dims()
	if len(plan.phases) != s.Period() {
		t.Fatalf("%s %dx%d: %d phases, period %d", s.Name(), rows, cols, len(plan.phases), s.Period())
	}
	for step := 1; step <= s.Period(); step++ {
		want := append([]sched.Comparator(nil), s.Step(step)...)
		got := plan.comparators(step - 1)
		if len(got) != len(want) || plan.phases[step-1].pairs != int64(len(want)) {
			t.Fatalf("%s %dx%d step %d: %d expanded comparators (pairs=%d), want %d",
				s.Name(), rows, cols, step, len(got), plan.phases[step-1].pairs, len(want))
		}
		schedtest.SortComparators(want)
		schedtest.SortComparators(got)
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("%s %dx%d step %d comparator %d: span %v != schedule %v",
					s.Name(), rows, cols, step, i, got[i], want[i])
			}
		}
	}
}

// TestSpanPlanShapesRowMajor pins the layout's payoff on RM-RF at 8×8:
// the even-start row phase is one band of one row from the even half
// onto the odd half, the fused wrap phase one row of N/2−1 pairs the
// other way, and each column phase two bands (even and odd columns) of
// one row per row pair, 16 ranks apart.
func TestSpanPlanShapesRowMajor(t *testing.T) {
	s := sched.NewRowMajorRowFirst(8, 8)
	plan := buildSpanPlan(s, grid.New(8, 8))
	if plan == nil {
		t.Fatal("rm-rf has no span plan")
	}
	for _, tc := range []struct {
		phase int
		bands []band // the geometry fields; cursor slots are not pinned
	}{
		{0, []band{{span: span{lo: 0, hi: 32, pairs: 32, lr0: 0, dl: 2, hr0: 1, dh: 2}, rows: 1}}},
		{1, []band{
			{span: span{lo: 0, hi: 4, pairs: 4, lr0: 0, dl: 2, hr0: 8, dh: 2}, rows: 4, sLo: 8, sHi: 8, rl: 16, rh: 16},
			{span: span{lo: 32, hi: 36, pairs: 4, lr0: 1, dl: 2, hr0: 9, dh: 2}, rows: 4, sLo: 8, sHi: 8, rl: 16, rh: 16},
		}},
		{2, []band{{span: span{lo: 32, hi: 1, pairs: 31, lr0: 1, dl: 2, hr0: 2, dh: 2}, rows: 1}}},
		{3, []band{
			{span: span{lo: 4, hi: 8, pairs: 4, lr0: 8, dl: 2, hr0: 16, dh: 2}, rows: 3, sLo: 8, sHi: 8, rl: 16, rh: 16},
			{span: span{lo: 36, hi: 40, pairs: 4, lr0: 9, dl: 2, hr0: 17, dh: 2}, rows: 3, sLo: 8, sHi: 8, rl: 16, rh: 16},
		}},
	} {
		checkBands(t, fmt.Sprintf("rm-rf 8x8 phase %d", tc.phase), plan.phases[tc.phase].bands, tc.bands)
	}
}

// TestSpanPlanShapesSnakeB pins SN-B at 6×6: the alternating-parity
// column step — strided in row-major memory — is two bands (even and odd
// columns) of three-pair rows; the row step is two bands, the forward
// rows walking up the ranks and the reverse rows down them.
func TestSpanPlanShapesSnakeB(t *testing.T) {
	s := sched.NewSnakeB(6, 6)
	plan := buildSpanPlan(s, grid.New(6, 6))
	if plan == nil {
		t.Fatal("snake-b has no span plan")
	}
	checkBands(t, "snake-b 6x6 row step", plan.phases[0].bands, []band{
		{span: span{lo: 4, hi: 21, pairs: 2, lr0: 9, dl: -2, hr0: 10, dh: -2}, rows: 3, sLo: 6, sHi: 6, rl: 12, rh: 12},
		{span: span{lo: 0, hi: 18, pairs: 3, lr0: 0, dl: 2, hr0: 1, dh: 2}, rows: 3, sLo: 6, sHi: 6, rl: 12, rh: 12},
	})
	checkBands(t, "snake-b 6x6 column step", plan.phases[1].bands, []band{
		{span: span{lo: 21, hi: 24, pairs: 3, lr0: 10, dl: -2, hr0: 13, dh: 2}, rows: 2, sLo: 6, sHi: 6, rl: 12, rh: 12},
		{span: span{lo: 0, hi: 3, pairs: 3, lr0: 0, dl: 2, hr0: 11, dh: -2}, rows: 3, sLo: 6, sHi: 6, rl: 12, rh: 12},
	})
}

// TestSpanPlanBandsPerPhase pins how far the grouping folds every
// schedule: at sides 6 through 48, odd and even, no phase has more than
// two bands, and the row-major schedules average 1.5 per phase (their two
// full-mesh row phases are one row each).
func TestSpanPlanBandsPerPhase(t *testing.T) {
	for _, side := range []int{6, 7, 16, 33, 48} {
		for _, name := range append(sched.Names(), "rm-rf-nowrap") {
			if strings.HasPrefix(name, "rm-") && side%2 != 0 {
				continue
			}
			s, err := sched.ByName(name, side, side)
			if err != nil {
				t.Fatal(err)
			}
			plan := buildSpanPlan(s, grid.New(side, side))
			total := 0
			for pi, ph := range plan.phases {
				if len(ph.bands) > 2 {
					t.Errorf("%s %dx%d phase %d: %d bands", name, side, side, pi, len(ph.bands))
				}
				total += len(ph.bands)
			}
			want := 2 * len(plan.phases)
			if strings.HasPrefix(name, "rm-") {
				want = 3 * len(plan.phases) / 2
			}
			if total != want {
				t.Errorf("%s %dx%d: %d bands over %d phases, want %d", name, side, side, total, len(plan.phases), want)
			}
		}
	}
}

// checkBands compares bands with want on every geometry field.
func checkBands(t *testing.T, label string, got, want []band) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d bands, want %d: %+v", label, len(got), len(want), got)
	}
	for i := range want {
		g, w := got[i], want[i]
		g.cur, g.win = 0, 0
		w.maxLoRank = max(w.lr0, w.lr0+(w.pairs-1)*w.dl)
		w.minHiRank = min(w.hr0, w.hr0+(w.pairs-1)*w.dh)
		if g != w {
			t.Fatalf("%s band %d: %+v, want %+v", label, i, got[i], w)
		}
	}
}

// TestSpanPlanEligibility pins which schedules get a plan: any disjoint
// monotone comparator set does, adjacent or not; a step whose
// comparators share a cell, or one that sends the minimum up the target
// order, does not. Shared compiled schedules get one cached plan.
func TestSpanPlanEligibility(t *testing.T) {
	g := grid.New(2, 2)
	diag := schedtest.NewPhases(2, 2, grid.RowMajor, [][]sched.Comparator{{{Lo: 0, Hi: 3}}})
	plan := buildSpanPlan(diag, g)
	if plan == nil {
		t.Fatal("a disjoint monotone diagonal schedule got no plan")
	}
	checkLossless(t, diag, plan)
	for _, bad := range [][]sched.Comparator{
		{{Lo: 0, Hi: 1}, {Lo: 1, Hi: 3}}, // cell 1 twice
		{{Lo: 0, Hi: 1}, {Lo: 2, Hi: 0}}, // cell 0 twice
		{{Lo: 3, Hi: 2}},                 // min to the higher rank
		{{Lo: 2, Hi: 0}},                 // the same, max to shadow cell 0
		{{Lo: 1, Hi: 1}},                 // self-comparison
	} {
		if buildSpanPlan(schedtest.NewPhases(2, 2, grid.RowMajor, [][]sched.Comparator{bad}), g) != nil {
			t.Fatalf("phase %v got a span plan", bad)
		}
	}
	good, err := sched.Cached("snake-a", 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	g = grid.New(6, 6)
	if p1, p2 := spanPlanFor(good, g), spanPlanFor(good, g); p1 == nil || p1 != p2 {
		t.Fatalf("span plan not shared: %p vs %p", p1, p2)
	}
}

// TestSweep checks the SWAR sweep against a scalar compare-exchange at
// both cell widths: one to three rows at unequal strides, every row
// length from 0 to 9 pairs (which covers rows shorter than a word, whole
// words, and the overlapped last word), lanes at 0 and at the largest
// storable value, equal values and equal partners (which never swap),
// and every cell outside the rows' pairs untouched.
func TestSweep(t *testing.T) {
	const cells = 96
	src := rng.New(0x5EEB)
	for _, wide := range []bool{false, true} {
		p := &spanPlan{n: cells, wide: wide}
		top := uint32(1)<<(8*p.cellSize()-1) - 1
		for pairs := int32(0); pairs <= 9; pairs++ {
			for _, geom := range [][5]int32{ // lo, hi, rows, sLo, sHi
				{0, 24, 1, 0, 0}, {1, 14, 1, 0, 0}, {3, 25, 1, 0, 0}, {30, 5, 1, 0, 0}, {11, 20, 1, 0, 0},
				{0, 48, 2, 10, 11}, {1, 50, 3, 13, 10}, {47, 3, 3, 10, 12}, {2, 13, 3, 23, 22},
			} {
				lo, hi, rows, sLo, sHi := geom[0], geom[1], geom[2], geom[3], geom[4]
				for pattern := 0; pattern < 4; pattern++ {
					vals := make([]uint32, cells)
					for i := range vals {
						switch pattern {
						case 0: // extremes
							vals[i] = []uint32{0, top, 1, top - 1}[rng.Intn(src, 4)]
						case 1: // all equal
							vals[i] = top / 2
						default:
							vals[i] = uint32(rng.Intn(src, int(top)+1))
						}
					}
					if pattern == 3 { // equal partners
						for j := int32(0); j < rows; j++ {
							for k := int32(0); k < pairs; k++ {
								vals[hi+j*sHi+k] = vals[lo+j*sLo+k]
							}
						}
					}
					sh := unsafe.Pointer(unsafe.SliceData(make([]uint64, p.words())))
					for i, v := range vals {
						p.set(sh, int32(i), v)
					}
					want := 0
					for j := int32(0); j < rows; j++ {
						for k := int32(0); k < pairs; k++ {
							a, b := lo+j*sLo+k, hi+j*sHi+k
							if vals[a] > vals[b] {
								vals[a], vals[b] = vals[b], vals[a]
								want++
							}
						}
					}
					var got int
					if wide {
						got = sweep[uint32](sh, lo, hi, pairs, rows, sLo, sHi)
					} else {
						got = sweep[uint16](sh, lo, hi, pairs, rows, sLo, sHi)
					}
					label := fmt.Sprintf("%d-bit cells, pairs=%d lo=%d hi=%d rows=%d strides %d/%d pattern %d",
						8*p.cellSize(), pairs, lo, hi, rows, sLo, sHi, pattern)
					if got != want {
						t.Fatalf("%s: %d swaps, want %d", label, got, want)
					}
					for i, v := range vals {
						if g := p.get(sh, int32(i)); g != v {
							t.Fatalf("%s: cell %d = %d, want %d", label, i, g, v)
						}
					}
				}
			}
		}
	}
}

// TestSpanAllocBudget pins the span kernel's allocations per run at
// 32×32: the permutation check's bitset, the shadow, and the two cursor
// arrays — four, whatever the schedule and however many steps it takes.
func TestSpanAllocBudget(t *testing.T) {
	for _, name := range []string{"rm-rf", "snake-a", "shearsort"} {
		s, err := sched.Cached(name, 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		input := workload.RandomPermutation(rng.New(5), 32, 32)
		g := grid.New(32, 32)
		run := func() {
			copy(g.Cells(), input.Cells())
			if _, err := Run(g, s, Options{Kernel: KernelSpan}); err != nil {
				t.Fatal(err)
			}
		}
		run() // warm the plan cache
		allocs := testing.AllocsPerRun(10, run)
		t.Logf("%s 32x32: %.2f allocs per run", name, allocs)
		if allocs > 4 {
			t.Errorf("%s 32x32: %.2f allocs per run, budget 4", name, allocs)
		}
	}
}

// TestCellwiseAllocBudget pins the engine's allocations per run on the
// paper's half-0/half-1 inputs at 32×32 (the cellwise 0-1 path: a 0-1
// grid is no permutation, so the generic comparator loop serves it) at
// eight, whatever the schedule.
func TestCellwiseAllocBudget(t *testing.T) {
	for _, name := range []string{"rm-rf", "snake-a", "shearsort"} {
		s, err := sched.Cached(name, 32, 32)
		if err != nil {
			t.Fatal(err)
		}
		input := workload.HalfZeroOne(rng.New(5), 32, 32)
		g := grid.New(32, 32)
		run := func() {
			copy(g.Cells(), input.Cells())
			if _, err := Run(g, s, Options{}); err != nil {
				t.Fatal(err)
			}
		}
		run()
		allocs := testing.AllocsPerRun(10, run)
		t.Logf("%s 32x32: %.2f allocs per run", name, allocs)
		if allocs > 8 {
			t.Errorf("%s 32x32: %.2f allocs per run, budget 8", name, allocs)
		}
	}
}

// FuzzSpanPlan feeds buildSpanPlan random disjoint adjacent-pair
// phases. A monotone schedule must get a lossless plan whose serial and
// sharded runs match the generic executor exactly on a permutation —
// Result, ErrStepLimit, and final grid — under a step cap (a random
// schedule need not sort); a schedule with a flipped pair must get none.
//
// Run with: go test -fuzz=FuzzSpanPlan ./internal/engine/
func FuzzSpanPlan(f *testing.F) {
	f.Add(uint8(4), uint8(4), uint8(0), []byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add(uint8(5), uint8(7), uint8(1), []byte{2, 2, 1, 0, 2, 1, 1})
	f.Add(uint8(1), uint8(9), uint8(0), []byte{1})
	f.Add(uint8(9), uint8(1), uint8(1), []byte{2})
	f.Add(uint8(6), uint8(6), uint8(3), []byte{0x81, 0x02, 0x85, 0x11})
	f.Add(uint8(11), uint8(10), uint8(2), []byte{7, 1, 2, 200, 13, 8, 5, 31, 2, 9})
	f.Fuzz(func(t *testing.T, rows, cols, mode uint8, data []byte) {
		r, c := 1+int(rows)%12, 1+int(cols)%12
		order := grid.Order(mode & 1)
		phases, flipped := schedtest.RandomPhases(r, c, order, data, mode&2 != 0)
		s := schedtest.NewPhases(r, c, order, phases)
		plan := buildSpanPlan(s, grid.New(r, c))
		if flipped {
			if plan != nil {
				t.Fatalf("%dx%d: a non-monotone schedule got a span plan", r, c)
			}
			return
		}
		if plan == nil {
			t.Fatalf("%dx%d: a disjoint monotone schedule got no span plan", r, c)
		}
		checkLossless(t, s, plan)

		input := workload.RandomPermutation(rng.New(uint64(len(data))), r, c)
		maxSteps := 3*len(phases) + 2
		ref := input.Clone()
		want, wantErr := Run(ref, s, Options{Kernel: KernelGeneric, MaxSteps: maxSteps})
		for _, opts := range []Options{
			{Kernel: KernelSpan, MaxSteps: maxSteps},
			{Kernel: KernelSpanSharded, Shards: 2, MaxSteps: maxSteps},
			{Kernel: KernelSpanSharded, Shards: 3, MaxSteps: maxSteps},
		} {
			got := input.Clone()
			res, err := Run(got, s, opts)
			if res != want || !sameStepLimit(err, wantErr) || !got.Equal(ref) {
				t.Fatalf("%dx%d %+v: %+v/%v, generic %+v/%v (grids equal: %v)",
					r, c, opts, res, err, want, wantErr, got.Equal(ref))
			}
		}
	})
}

// TestZeroOnePermutationStepLimit pins the one grid class both the span
// kernel and the 0-1 tracker could claim: a permutation of {0, 1}. The
// tracker path counts it as a 0-1 grid, so a run capped before it sorts
// (a negative cap, or rm-cf's empty first column step on a single row)
// must report that count from every kernel.
func TestZeroOnePermutationStepLimit(t *testing.T) {
	for _, name := range append(sched.Names(), "rm-rf-nowrap") {
		for _, dims := range [][2]int{{1, 2}, {2, 1}} {
			if strings.HasPrefix(name, "rm-") && dims[1]%2 != 0 {
				continue // the row-major schedules need even columns
			}
			s, err := sched.ByName(name, dims[0], dims[1])
			if err != nil {
				t.Fatal(err)
			}
			for _, maxSteps := range []int{-1, 1} {
				var want error
				for i, k := range []Kernel{KernelGeneric, KernelSpan, KernelSpanSharded} {
					g := grid.FromValues(dims[0], dims[1], []int{1, 0})
					_, err := Run(g, s, Options{Kernel: k, Shards: 2, MaxSteps: maxSteps})
					if i == 0 {
						want = err
					} else if !sameStepLimit(err, want) {
						t.Fatalf("%s %dx%d cap=%d kernel %d: %v, generic %v", name, dims[0], dims[1], maxSteps, k, err, want)
					}
				}
			}
		}
	}
}
