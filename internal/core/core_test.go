package core

import (
	"testing"

	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/workload"
)

func TestAlgorithmNamesRoundTrip(t *testing.T) {
	for _, a := range append(AllAlgorithms(), RowMajorRowFirstNoWrap) {
		got, err := ByName(a.ShortName())
		if err != nil {
			t.Fatalf("ByName(%q): %v", a.ShortName(), err)
		}
		if got != a {
			t.Fatalf("round trip failed for %v", a)
		}
	}
	if _, err := ByName("bogus"); err == nil {
		t.Fatal("bogus name accepted")
	}
}

func TestAlgorithmsList(t *testing.T) {
	if len(Algorithms()) != 5 {
		t.Fatalf("Algorithms() = %v", Algorithms())
	}
	if len(AllAlgorithms()) != 6 {
		t.Fatalf("AllAlgorithms() = %v", AllAlgorithms())
	}
}

func TestOrders(t *testing.T) {
	if RowMajorRowFirst.Order() != grid.RowMajor || RowMajorColFirst.Order() != grid.RowMajor {
		t.Fatal("row-major orders wrong")
	}
	for _, a := range []Algorithm{SnakeA, SnakeB, SnakeC, Shearsort} {
		if a.Order() != grid.Snake {
			t.Fatalf("%v order wrong", a)
		}
	}
}

func TestStringsAreDistinct(t *testing.T) {
	seen := map[string]bool{}
	for a := Algorithm(0); a < numAlgorithms; a++ {
		if seen[a.String()] || seen[a.ShortName()] {
			t.Fatalf("duplicate name for %d", a)
		}
		seen[a.String()] = true
		seen[a.ShortName()] = true
	}
}

func TestSortEachAlgorithm(t *testing.T) {
	src := rng.New(3)
	for _, a := range AllAlgorithms() {
		g := workload.RandomPermutation(src, 8, 8)
		res, err := Sort(g, a, Options{})
		if err != nil {
			t.Fatalf("%v: %v", a, err)
		}
		if !res.Sorted || !g.IsSorted(a.Order()) {
			t.Fatalf("%v did not sort", a)
		}
	}
}

func TestStepsToSortLeavesInputIntact(t *testing.T) {
	g := workload.RandomPermutation(rng.New(4), 6, 6)
	ref := g.Clone()
	steps, err := StepsToSort(g, SnakeA)
	if err != nil {
		t.Fatal(err)
	}
	if steps <= 0 {
		t.Fatalf("steps = %d", steps)
	}
	if !g.Equal(ref) {
		t.Fatal("input mutated")
	}
}

func TestScheduleDims(t *testing.T) {
	s := SnakeB.Schedule(4, 6)
	r, c := s.Dims()
	if r != 4 || c != 6 {
		t.Fatalf("dims %dx%d", r, c)
	}
}

func TestSortReportsStepLimitError(t *testing.T) {
	g := workload.AllZeroColumn(4, 4, 0)
	if _, err := Sort(g, RowMajorRowFirstNoWrap, Options{MaxSteps: 100}); err == nil {
		t.Fatal("no error from the non-sorting ablation")
	}
}

// TestCheckMesh pins which meshes each algorithm accepts: every
// algorithm takes any positive even-column mesh, only the snakes and
// shearsort take odd columns, and nothing takes an empty side.
func TestCheckMesh(t *testing.T) {
	for _, a := range append(AllAlgorithms(), RowMajorRowFirstNoWrap) {
		if err := a.CheckMesh(4, 6); err != nil {
			t.Errorf("%s 4x6: %v", a.ShortName(), err)
		}
		if err := a.CheckMesh(1, 1); (err == nil) != (a.Order() == grid.Snake) {
			t.Errorf("%s 1x1: %v", a.ShortName(), err)
		}
		if err := a.CheckMesh(15, 15); (err == nil) != (a.Order() == grid.Snake) {
			t.Errorf("%s 15x15: %v", a.ShortName(), err)
		}
		for _, dims := range [][2]int{{0, 4}, {4, 0}, {-2, 4}} {
			if err := a.CheckMesh(dims[0], dims[1]); err == nil {
				t.Errorf("%s %dx%d accepted", a.ShortName(), dims[0], dims[1])
			}
		}
	}
	if err := Algorithm(99).CheckMesh(4, 4); err == nil {
		t.Error("unknown algorithm accepted")
	}
}
