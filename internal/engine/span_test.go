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
// the even-start row phase is one span from the even half onto the odd
// half, the fused wrap phase one span of N/2−1 pairs the other way, and
// each column phase two spans (even and odd columns) per row pair.
func TestSpanPlanShapesRowMajor(t *testing.T) {
	s := sched.NewRowMajorRowFirst(8, 8)
	plan := buildSpanPlan(s, grid.New(8, 8))
	if plan == nil {
		t.Fatal("rm-rf has no span plan")
	}
	for _, tc := range []struct {
		phase, spans, pairs int
		first               span
	}{
		{0, 1, 32, span{lo: 0, hi: 32, pairs: 32}},
		{1, 8, 4, span{lo: 0, hi: 4, pairs: 4}},
		{2, 1, 31, span{lo: 32, hi: 1, pairs: 31}},
		{3, 6, 4, span{lo: 4, hi: 8, pairs: 4}},
	} {
		ph := plan.phases[tc.phase]
		if len(ph.spans) != tc.spans {
			t.Fatalf("phase %d: %d spans, want %d", tc.phase, len(ph.spans), tc.spans)
		}
		for _, sp := range ph.spans {
			if int(sp.pairs) != tc.pairs || !sp.affine {
				t.Fatalf("phase %d: span %+v, want %d affine pairs", tc.phase, sp, tc.pairs)
			}
		}
		if sp := ph.spans[0]; sp.lo != tc.first.lo || sp.hi != tc.first.hi || sp.pairs != tc.first.pairs {
			t.Fatalf("phase %d: first span %+v, want lo=%d hi=%d pairs=%d",
				tc.phase, sp, tc.first.lo, tc.first.hi, tc.first.pairs)
		}
	}
}

// TestSpanPlanShapesSnakeB pins SN-B at 6×6: the alternating-parity
// column step — strided in row-major memory — is unit-stride here, one
// span of three pairs per row pair and column parity; the row step is
// one span per row, walking up the ranks on forward rows and down them
// on reverse rows.
func TestSpanPlanShapesSnakeB(t *testing.T) {
	s := sched.NewSnakeB(6, 6)
	plan := buildSpanPlan(s, grid.New(6, 6))
	if plan == nil {
		t.Fatal("snake-b has no span plan")
	}
	col := plan.phases[1]
	if len(col.spans) != 5 {
		t.Fatalf("column step: %d spans, want 5", len(col.spans))
	}
	for _, sp := range col.spans {
		if sp.pairs != 3 {
			t.Fatalf("column step span %+v, want 3 pairs", sp)
		}
	}
	fwd, rev := 0, 0
	for _, sp := range plan.phases[0].spans {
		if sp.dl > 0 {
			fwd++
		} else if sp.dl < 0 {
			rev++
		}
	}
	if fwd != 3 || rev != 3 {
		t.Fatalf("row step: %d forward and %d reverse spans, want 3 and 3", fwd, rev)
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
// both cell widths: lanes at 0 and at the largest storable value, equal
// values (which never swap), every span length from 0 to 9 at aligned
// and unaligned offsets, and every cell outside the span untouched.
func TestSweep(t *testing.T) {
	const cells = 48
	src := rng.New(0x5EEB)
	for _, wide := range []bool{false, true} {
		p := &spanPlan{n: cells, wide: wide}
		top := uint32(1)<<(8*p.cellSize()-1) - 1
		for pairs := int32(0); pairs <= 9; pairs++ {
			for _, ends := range [][2]int32{{0, 24}, {1, 14}, {3, 25}, {30, 5}, {11, 20}} {
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
					lo, hi := ends[0], ends[1]
					if pattern == 3 { // equal partners
						for k := int32(0); k < pairs; k++ {
							vals[hi+k] = vals[lo+k]
						}
					}
					sh := unsafe.Pointer(unsafe.SliceData(make([]uint64, p.words())))
					for i, v := range vals {
						p.set(sh, int32(i), v)
					}
					want := 0
					for k := int32(0); k < pairs; k++ {
						if a, b := vals[lo+k], vals[hi+k]; a > b {
							vals[lo+k], vals[hi+k] = b, a
							want++
						}
					}
					got := sweep(sh, wide, lo, hi, pairs)
					label := fmt.Sprintf("%d-bit cells, pairs=%d lo=%d hi=%d pattern %d", 8*p.cellSize(), pairs, lo, hi, pattern)
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
