package engine

import (
	"errors"
	"testing"

	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
)

// The snakelike schedules degenerate gracefully: a 1×C mesh is a linear
// array (row steps only; column steps are empty), and an R×1 mesh is a
// vertical linear array (column steps only).
func TestSingleRowMeshIsLinearArray(t *testing.T) {
	src := rng.New(1)
	for _, cols := range []int{2, 5, 8, 17} {
		for _, name := range []string{"snake-a", "snake-b", "snake-c", "shearsort"} {
			s, err := sched.ByName(name, 1, cols)
			if err != nil {
				t.Fatal(err)
			}
			g := workload.RandomPermutation(src, 1, cols)
			res, err := Run(g, s, Options{})
			if err != nil {
				t.Fatalf("%s 1x%d: %v", name, cols, err)
			}
			if !g.IsSorted(grid.Snake) {
				t.Fatalf("%s 1x%d not sorted", name, cols)
			}
			if res.Steps > 2*cols {
				t.Fatalf("%s 1x%d took %d steps", name, cols, res.Steps)
			}
		}
	}
}

func TestSingleColumnMesh(t *testing.T) {
	src := rng.New(2)
	for _, rows := range []int{2, 5, 9} {
		for _, name := range []string{"snake-a", "snake-b", "snake-c", "shearsort"} {
			s, err := sched.ByName(name, rows, 1)
			if err != nil {
				t.Fatal(err)
			}
			g := workload.RandomPermutation(src, rows, 1)
			if _, err := Run(g, s, Options{}); err != nil {
				t.Fatalf("%s %dx1: %v", name, rows, err)
			}
			if !g.IsSorted(grid.Snake) {
				t.Fatalf("%s %dx1 not sorted", name, rows)
			}
		}
	}
}

func TestTallAndWideRectangles(t *testing.T) {
	src := rng.New(3)
	dims := [][2]int{{2, 10}, {10, 2}, {3, 8}, {8, 3}, {2, 4}, {16, 4}}
	for _, d := range dims {
		rows, cols := d[0], d[1]
		for _, name := range sched.Names() {
			if cols%2 != 0 && (name == "rm-rf" || name == "rm-cf") {
				continue
			}
			s, err := sched.ByName(name, rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			g := workload.RandomPermutation(src, rows, cols)
			if _, err := Run(g, s, Options{}); err != nil {
				t.Fatalf("%s %dx%d: %v", name, rows, cols, err)
			}
			if !g.IsSorted(s.Order()) {
				t.Fatalf("%s %dx%d not sorted", name, rows, cols)
			}
		}
	}
}

func TestOptionsTrackerOverride(t *testing.T) {
	// Supplying an explicit tracker must be honoured.
	g := workload.RandomPermutation(rng.New(4), 4, 4)
	s := sched.NewSnakeA(4, 4)
	tr := grid.NewDistinctTracker(g, grid.Snake)
	res, err := Run(g, s, Options{Tracker: tr})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sorted || !tr.Sorted() {
		t.Fatal("custom tracker not driven to sorted")
	}
}

func TestMaxStepsTooSmall(t *testing.T) {
	g := workload.RandomPermutation(rng.New(5), 8, 8)
	s := sched.NewSnakeC(8, 8)
	_, err := Run(g, s, Options{MaxSteps: 3})
	var limit *ErrStepLimit
	if !errors.As(err, &limit) {
		t.Fatalf("want ErrStepLimit, got %v", err)
	}
	if limit.Error() == "" || limit.Algorithm != "snake-c" {
		t.Fatalf("bad error: %+v", limit)
	}
}

func TestRowMajorEmbeddedArrayUpperBound(t *testing.T) {
	// Paper §1: the row-major algorithms contain an N-cell linear array
	// (rows chained through the wrap-around wires); the row steps perform
	// one odd-even transposition step of that array every two mesh steps,
	// so any input sorts within ~2N steps. Verify the 2N + 4√N envelope
	// empirically on random and adversarial inputs.
	src := rng.New(55)
	for _, side := range []int{4, 8, 16} {
		n := side * side
		cap := 2*n + 4*side
		for _, name := range []string{"rm-rf", "rm-cf"} {
			s, err := sched.ByName(name, side, side)
			if err != nil {
				t.Fatal(err)
			}
			inputs := []*grid.Grid{
				workload.AllZeroColumn(side, side, 0),
				workload.SmallestInColumn(side, side, 0),
				workload.ReversedGrid(side, side, grid.RowMajor),
			}
			for i := 0; i < 10; i++ {
				inputs = append(inputs, workload.RandomPermutation(src, side, side))
			}
			for i, g := range inputs {
				res, err := Run(g, s, Options{})
				if err != nil {
					t.Fatalf("%s side %d input %d: %v", name, side, i, err)
				}
				if res.Steps > cap {
					t.Fatalf("%s side %d input %d: %d steps exceeds 2N+4√N = %d",
						name, side, i, res.Steps, cap)
				}
			}
		}
	}
}

func TestZeroOneAllSameValue(t *testing.T) {
	// Degenerate 0-1 inputs: all zeroes / all ones are already sorted.
	for _, v := range []int{0, 1} {
		g := grid.New(4, 4)
		for i := 0; i < g.Len(); i++ {
			g.SetFlat(i, v)
		}
		res, err := Run(g, sched.NewSnakeA(4, 4), Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != 0 {
			t.Fatalf("uniform grid of %d took %d steps", v, res.Steps)
		}
	}
}
