package engine

import (
	"errors"
	"testing"

	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

func schedules(rows, cols int) []sched.Schedule {
	var out []sched.Schedule
	names := sched.Names()
	for _, name := range names {
		if cols%2 != 0 && (name == "rm-rf" || name == "rm-cf") {
			continue
		}
		s, err := sched.ByName(name, rows, cols)
		if err != nil {
			panic(err)
		}
		out = append(out, s)
	}
	return out
}

func TestRunSortsRandomPermutations(t *testing.T) {
	dims := [][2]int{{2, 2}, {4, 4}, {4, 6}, {6, 4}, {8, 8}, {3, 3}, {5, 5}, {7, 3}}
	for _, d := range dims {
		rows, cols := d[0], d[1]
		src := rng.New(uint64(rows*100 + cols))
		for _, s := range schedules(rows, cols) {
			for trial := 0; trial < 10; trial++ {
				g := workload.RandomPermutation(src, rows, cols)
				res, err := Run(g, s, Options{})
				if err != nil {
					t.Fatalf("%s %dx%d: %v", s.Name(), rows, cols, err)
				}
				if !res.Sorted || !g.IsSorted(s.Order()) {
					t.Fatalf("%s %dx%d: not sorted after %d steps\n%v", s.Name(), rows, cols, res.Steps, g)
				}
				if res.Steps < 0 || res.Steps > DefaultMaxSteps(rows, cols) {
					t.Fatalf("%s: steps = %d", s.Name(), res.Steps)
				}
			}
		}
	}
}

func TestRunSortsZeroOneInputs(t *testing.T) {
	src := rng.New(44)
	for _, s := range schedules(6, 6) {
		for trial := 0; trial < 10; trial++ {
			alpha := rng.Intn(src, 37)
			g := workload.RandomZeroOne(src, 6, 6, alpha)
			res, err := Run(g, s, Options{})
			if err != nil {
				t.Fatalf("%s alpha=%d: %v", s.Name(), alpha, err)
			}
			if !g.IsSorted(s.Order()) {
				t.Fatalf("%s alpha=%d: not sorted after %d steps\n%v", s.Name(), alpha, res.Steps, g)
			}
		}
	}
}

func TestRunSortedInputZeroSteps(t *testing.T) {
	for _, s := range schedules(4, 4) {
		g := workload.SortedGrid(4, 4, s.Order())
		res, err := Run(g, s, Options{})
		if err != nil {
			t.Fatalf("%s: %v", s.Name(), err)
		}
		if res.Steps != 0 || res.Swaps != 0 {
			t.Fatalf("%s: sorted input took %d steps, %d swaps", s.Name(), res.Steps, res.Swaps)
		}
	}
}

func TestRunDimensionMismatch(t *testing.T) {
	g := grid.New(4, 4)
	s := sched.NewSnakeA(6, 6)
	if _, err := Run(g, s, Options{}); err == nil {
		t.Fatal("dimension mismatch accepted")
	}
}

func TestSortedStateIsFixedPoint(t *testing.T) {
	// Once in target order, every further step must leave the grid
	// unchanged (the paper's step counts are well defined because of
	// this).
	for _, s := range schedules(6, 6) {
		g := workload.SortedGrid(6, 6, s.Order())
		ref := g.Clone()
		for t0 := 1; t0 <= 4*s.Period(); t0++ {
			swaps, _ := runStepSeq(g, s.Step(t0), grid.NewTracker(g, s.Order()))
			if swaps != 0 || !g.Equal(ref) {
				t.Fatalf("%s: step %d disturbed a sorted grid", s.Name(), t0)
			}
		}
	}
}

func TestStepsCountIsExact(t *testing.T) {
	// Re-run step by step and confirm the grid is NOT in target order
	// after res.Steps−1 steps and IS after res.Steps.
	src := rng.New(5)
	for _, s := range schedules(6, 6) {
		g := workload.RandomPermutation(src, 6, 6)
		ref := g.Clone()
		res, err := Run(g, s, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps == 0 {
			continue
		}
		replay := ref.Clone()
		tr := grid.NewTracker(replay, s.Order())
		for t0 := 1; t0 <= res.Steps; t0++ {
			if tr.Sorted() {
				t.Fatalf("%s: sorted before reported step %d (at %d)", s.Name(), res.Steps, t0-1)
			}
			_, delta := runStepSeq(replay, s.Step(t0), tr)
			tr.Apply(delta)
		}
		if !tr.Sorted() {
			t.Fatalf("%s: not sorted after reported %d steps", s.Name(), res.Steps)
		}
	}
}

func TestObserverSeesEveryStep(t *testing.T) {
	g := workload.RandomPermutation(rng.New(7), 6, 6)
	s := sched.NewSnakeA(6, 6)
	var steps []int
	res, err := Run(g, s, Options{Observer: func(t int, gg *grid.Grid) {
		steps = append(steps, t)
	}})
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) < res.Steps {
		t.Fatalf("observer saw %d steps, run took %d", len(steps), res.Steps)
	}
	for i, got := range steps {
		if got != i+1 {
			t.Fatalf("observer steps not consecutive: %v", steps[:i+1])
		}
	}
	// With an observer the run continues to a period boundary.
	if last := steps[len(steps)-1]; last%s.Period() != 0 && last != res.Steps {
		t.Fatalf("run stopped at %d, not at a period boundary", last)
	}
}

func TestObserverOnSortedInputSeesOnePeriod(t *testing.T) {
	s := sched.NewSnakeB(4, 4)
	g := workload.SortedGrid(4, 4, s.Order())
	count := 0
	res, err := Run(g, s, Options{Observer: func(int, *grid.Grid) { count++ }})
	if err != nil || res.Steps != 0 {
		t.Fatalf("res=%+v err=%v", res, err)
	}
	if count != s.Period() {
		t.Fatalf("observer saw %d steps, want one period (%d)", count, s.Period())
	}
}

func TestNoWrapAblationHitsStepLimit(t *testing.T) {
	// Paper §1: without wrap-around wires, an all-zero column can never
	// disperse, so the ablation must hit the step cap.
	g := workload.AllZeroColumn(6, 6, 0)
	s, err := sched.ByName("rm-rf-nowrap", 6, 6)
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(g, s, Options{MaxSteps: 500})
	var limit *ErrStepLimit
	if !errors.As(err, &limit) {
		t.Fatalf("expected ErrStepLimit, got %v", err)
	}
	if limit.MaxSteps != 500 || limit.Misplaced == 0 {
		t.Fatalf("unexpected limit error: %+v", limit)
	}
}

func TestWithWrapSortsTheSameInput(t *testing.T) {
	g := workload.AllZeroColumn(6, 6, 0)
	s := sched.NewRowMajorRowFirst(6, 6)
	res, err := Run(g, s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !g.IsSorted(grid.RowMajor) {
		t.Fatal("wrap-around version failed to sort the all-zero column")
	}
	// Corollary 1: at least 2N − 4√N steps.
	n := 36
	if res.Steps < 2*n-4*6 {
		t.Fatalf("steps = %d, Corollary 1 demands >= %d", res.Steps, 2*n-4*6)
	}
}

func TestMultisetPreserved(t *testing.T) {
	src := rng.New(8)
	for _, s := range schedules(5, 5) {
		g := workload.RandomPermutation(src, 5, 5)
		before := make(map[int]int)
		for _, v := range g.Values() {
			before[v]++
		}
		if _, err := Run(g, s, Options{}); err != nil {
			t.Fatal(err)
		}
		after := make(map[int]int)
		for _, v := range g.Values() {
			after[v]++
		}
		for v, c := range before {
			if after[v] != c {
				t.Fatalf("%s: multiset changed for value %d", s.Name(), v)
			}
		}
	}
}

func TestExhaustive2x2AllAlgorithms(t *testing.T) {
	// All 24 permutations of 1..4 on a 2x2 mesh, every algorithm.
	perms := permutations([]int{1, 2, 3, 4})
	for _, s := range schedules(2, 2) {
		for _, p := range perms {
			g := grid.FromValues(2, 2, p)
			res, err := Run(g, s, Options{})
			if err != nil {
				t.Fatalf("%s on %v: %v", s.Name(), p, err)
			}
			if !g.IsSorted(s.Order()) {
				t.Fatalf("%s failed on %v (steps=%d):\n%v", s.Name(), p, res.Steps, g)
			}
		}
	}
}

func TestExhaustive4x4ZeroOne(t *testing.T) {
	// The 0-1 principle in action: every one of the 2^16 0-1 matrices on a
	// 4x4 mesh must sort, for one representative of each family.
	if testing.Short() {
		t.Skip("exhaustive 0-1 sweep skipped in -short mode")
	}
	for _, name := range []string{"rm-rf", "snake-a", "snake-b", "snake-c"} {
		s, err := sched.ByName(name, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]int, 16)
		for mask := 0; mask < 1<<16; mask++ {
			for i := range vals {
				vals[i] = (mask >> i) & 1
			}
			g := grid.FromValues(4, 4, vals)
			if _, err := Run(g, s, Options{}); err != nil {
				t.Fatalf("%s failed on mask %#x: %v", name, mask, err)
			}
		}
	}
}

func TestExhaustive3x3ZeroOneSnakes(t *testing.T) {
	for _, name := range []string{"snake-a", "snake-b", "snake-c", "shearsort"} {
		s, err := sched.ByName(name, 3, 3)
		if err != nil {
			t.Fatal(err)
		}
		vals := make([]int, 9)
		for mask := 0; mask < 1<<9; mask++ {
			for i := range vals {
				vals[i] = (mask >> i) & 1
			}
			g := grid.FromValues(3, 3, vals)
			if _, err := Run(g, s, Options{}); err != nil {
				t.Fatalf("%s failed on mask %#x: %v", name, mask, err)
			}
		}
	}
}

func TestDefaultMaxStepsScales(t *testing.T) {
	if DefaultMaxSteps(4, 4) <= 0 || DefaultMaxSteps(64, 64) < 6*64*64 {
		t.Fatal("DefaultMaxSteps too small")
	}
}

// permutations returns all permutations of a (n! of them; test sizes only).
func permutations(a []int) [][]int {
	if len(a) <= 1 {
		return [][]int{append([]int(nil), a...)}
	}
	var out [][]int
	for i := range a {
		rest := make([]int, 0, len(a)-1)
		rest = append(rest, a[:i]...)
		rest = append(rest, a[i+1:]...)
		for _, p := range permutations(rest) {
			out = append(out, append([]int{a[i]}, p...))
		}
	}
	return out
}

func BenchmarkRunSnakeA32Seq(b *testing.B) {
	src := rng.New(1)
	s := sched.NewSnakeA(32, 32)
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := workload.RandomPermutation(src, 32, 32)
		b.StartTimer()
		if _, err := Run(g, s, Options{}); err != nil {
			b.Fatal(err)
		}
	}
}
