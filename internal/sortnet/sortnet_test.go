package sortnet

import (
	"testing"
	"testing/quick"

	"repro/internal/analysis"
	"repro/internal/engine"
	"repro/internal/grid"
	"repro/internal/rng"
	"repro/internal/sched"
	"repro/internal/workload"
	"repro/internal/zeroone"
)

func TestThresholdCommutation(t *testing.T) {
	// Compare-exchange commutes with monotone projection: running a step
	// then thresholding equals thresholding then running, for every step
	// of every algorithm.
	src := rng.New(3)
	for _, name := range sched.Names() {
		s, err := sched.ByName(name, 6, 6)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			g := workload.RandomPermutation(src, 6, 6)
			k := 1 + rng.Intn(src, 34)
			for t0 := 1; t0 <= 3*s.Period(); t0++ {
				projectedFirst := g.Threshold(k)
				engine.ApplyStep(projectedFirst, s.Step(t0))
				engine.ApplyStep(g, s.Step(t0))
				runFirst := g.Threshold(k)
				if !projectedFirst.Equal(runFirst) {
					t.Fatalf("%s step %d k=%d: projection does not commute", name, t0, k)
				}
			}
		}
	}
}

func TestStepsViaThresholdsMatchesDirect(t *testing.T) {
	// The threshold decomposition theorem, empirically: the direct step
	// count equals the max over 0-1 projections.
	src := rng.New(5)
	for _, name := range []string{"rm-rf", "rm-cf", "snake-a", "snake-b", "snake-c", "shearsort"} {
		s, err := sched.ByName(name, 6, 6)
		if err != nil {
			t.Fatal(err)
		}
		for trial := 0; trial < 5; trial++ {
			g := workload.RandomPermutation(src, 6, 6)
			direct, err := engine.Run(g.Clone(), s, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			viaThresh, err := StepsViaThresholds(g, s)
			if err != nil {
				t.Fatal(err)
			}
			if direct.Steps != viaThresh {
				t.Fatalf("%s: direct %d != thresholds %d", name, direct.Steps, viaThresh)
			}
		}
	}
}

func TestStepsViaThresholdsProperty(t *testing.T) {
	s := sched.NewSnakeA(4, 4)
	f := func(seed uint64) bool {
		g := workload.RandomPermutation(rng.New(seed), 4, 4)
		direct, err := engine.Run(g.Clone(), s, engine.Options{})
		if err != nil {
			return false
		}
		via, err := StepsViaThresholds(g, s)
		return err == nil && via == direct.Steps
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestExactWorstCase2x2(t *testing.T) {
	for _, name := range []string{"rm-rf", "snake-a", "snake-b", "snake-c"} {
		s, err := sched.ByName(name, 2, 2)
		if err != nil {
			t.Fatal(err)
		}
		worst, witness, err := ExactWorstCaseSteps(s)
		if err != nil {
			t.Fatal(err)
		}
		if worst <= 0 || worst > 16 {
			t.Fatalf("%s: worst = %d", name, worst)
		}
		if witness == nil {
			t.Fatalf("%s: no witness", name)
		}
		// The witness must actually attain the worst case.
		res, err := engine.Run(witness.Clone(), s, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if res.Steps != worst {
			t.Fatalf("%s: witness takes %d steps, reported %d", name, res.Steps, worst)
		}
	}
}

func TestExactWorstCase4x4MeetsCorollary1(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	// For the row-major algorithms, the exact worst case over all inputs
	// must be at least Corollary 1's 2N − 4√N.
	for _, name := range []string{"rm-rf", "rm-cf"} {
		s, err := sched.ByName(name, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		worst, _, err := ExactWorstCaseSteps(s)
		if err != nil {
			t.Fatal(err)
		}
		bound := analysis.Corollary1WorstCase(16, 4)
		if worst < bound {
			t.Fatalf("%s: exact worst case %d < Corollary 1 bound %d", name, worst, bound)
		}
	}
}

func TestCertifyZeroOne(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	for _, name := range sched.Names() {
		s, err := sched.ByName(name, 4, 4)
		if err != nil {
			t.Fatal(err)
		}
		if err := CertifyZeroOne(s, 0); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	// The no-wrap ablation must fail certification.
	s, err := sched.ByName("rm-rf-nowrap", 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if err := CertifyZeroOne(s, 400); err == nil {
		t.Fatal("no-wrap ablation certified — it must not sort all inputs")
	}
}

func TestNetworkStats(t *testing.T) {
	s := sched.NewRowMajorRowFirst(4, 4)
	st := NetworkStats(s, 4)
	// One period: 8 (rows odd) + 8 (cols odd) + 4+3 (rows even + wrap) + 4
	// (cols even) = 27 comparators, 3 of them wrap wires.
	if st.Depth != 4 || st.Comparators != 27 || st.WrapWires != 3 {
		t.Fatalf("stats = %+v", st)
	}
	sn := NetworkStats(sched.NewSnakeA(4, 4), 4)
	if sn.WrapWires != 0 {
		t.Fatalf("snake-a has wrap wires: %+v", sn)
	}
}

func TestExactWorstCasePanicsOnBigMesh(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	_, _, _ = ExactWorstCaseSteps(sched.NewSnakeA(6, 6))
}

func TestExhaustiveWitnessIsZeroColumnLike(t *testing.T) {
	if testing.Short() {
		t.Skip("exhaustive sweep skipped in -short mode")
	}
	// Informative: the rm-rf worst witness has a heavily loaded column,
	// echoing Corollary 1's construction. We only assert the worst case is
	// attained by SOME input at least as bad as the all-zero column.
	s := sched.NewRowMajorRowFirst(4, 4)
	worst, _, err := ExactWorstCaseSteps(s)
	if err != nil {
		t.Fatal(err)
	}
	g := workload.AllZeroColumn(4, 4, 0)
	res, err := engine.Run(g, s, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if worst < res.Steps {
		t.Fatalf("worst %d < all-zero-column steps %d", worst, res.Steps)
	}
}

// TestThresholdTrinity is the three-way property behind the threshold
// kernel: for random permutations, the direct engine measurement, the
// scalar threshold decomposition (StepsViaThresholds), and the
// threshold-sliced kernel (zeroone.SortThresholds) must report the same
// step count — and the kernel's full Result must match the engine's.
func TestThresholdTrinity(t *testing.T) {
	src := rng.New(8)
	for _, name := range sched.Names() {
		for _, shape := range [][2]int{{4, 4}, {5, 6}, {3, 8}} {
			rows, cols := shape[0], shape[1]
			s, err := sched.Cached(name, rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			ss, err := zeroone.CachedSliced(name, rows, cols)
			if err != nil {
				t.Fatal(err)
			}
			for trial := 0; trial < 3; trial++ {
				g := workload.RandomPermutation(src, rows, cols)
				direct, err := engine.Run(g.Clone(), s, engine.Options{})
				if err != nil {
					t.Fatal(err)
				}
				via, err := StepsViaThresholds(g, s)
				if err != nil {
					t.Fatal(err)
				}
				gk := g.Clone()
				kern, err := zeroone.SortThresholds(gk, ss, 0)
				if err != nil {
					t.Fatal(err)
				}
				if direct.Steps != via || direct != kern {
					t.Fatalf("%s %dx%d: direct %+v, thresholds %d, kernel %+v",
						name, rows, cols, direct, via, kern)
				}
			}
		}
	}
}

// FuzzThresholdDecomposition fuzzes the decomposition theorem end to
// end: an arbitrary byte-derived permutation must yield the same step
// count from the direct engine, the scalar per-threshold sweep, and the
// threshold-sliced kernel. Seeds use the same (algIdx, rows, cols, data)
// signature as the engine's FuzzSortsAnyInput corpus.
//
// Run with: go test -fuzz=FuzzThresholdDecomposition ./internal/sortnet/
func FuzzThresholdDecomposition(f *testing.F) {
	f.Add(uint8(0), uint8(4), uint8(4), []byte{1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16})
	f.Add(uint8(2), uint8(3), uint8(5), []byte{0, 0, 1, 1, 0, 1, 0, 1, 1, 0, 0, 0, 1, 1, 1})
	f.Add(uint8(5), uint8(1), uint8(9), []byte{9, 8, 7, 6, 5, 4, 3, 2, 1})
	f.Add(uint8(1), uint8(6), uint8(6), []byte{255, 0, 128, 7, 7, 7})
	f.Fuzz(func(t *testing.T, algIdx, rows, cols uint8, data []byte) {
		names := sched.Names()
		name := names[int(algIdx)%len(names)]
		r := 1 + int(rows)%8
		c := 1 + int(cols)%8
		if (name == "rm-rf" || name == "rm-cf") && c%2 != 0 {
			c++ // the row-major schedules require even columns by design
		}
		n := r * c
		// Derive a permutation from the fuzz bytes: identity shuffled by
		// data-directed transpositions, so any byte string is a valid input.
		g := grid.New(r, c)
		cells := g.Cells()
		for i := range cells {
			cells[i] = i + 1
		}
		for i, b := range data {
			j, k := i%n, int(b)%n
			cells[j], cells[k] = cells[k], cells[j]
		}

		s, err := sched.Cached(name, r, c)
		if err != nil {
			t.Fatal(err)
		}
		ss, err := zeroone.CachedSliced(name, r, c)
		if err != nil {
			t.Fatal(err)
		}
		direct, err := engine.Run(g.Clone(), s, engine.Options{})
		if err != nil {
			t.Fatalf("%s %dx%d: %v", name, r, c, err)
		}
		via, err := StepsViaThresholds(g, s)
		if err != nil {
			t.Fatal(err)
		}
		gk := g.Clone()
		kern, err := zeroone.SortThresholds(gk, ss, 0)
		if err != nil {
			t.Fatal(err)
		}
		if direct.Steps != via || direct != kern {
			t.Fatalf("%s %dx%d: direct %+v, thresholds %d, kernel %+v", name, r, c, direct, via, kern)
		}
	})
}
